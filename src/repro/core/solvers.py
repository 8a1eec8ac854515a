"""Parameter-solving functions ``R(x, y) = p`` used by MILR recovery.

Given a golden input/output pair for a layer, these routines reconstruct the
layer parameters (paper Sec. IV):

* dense: solve ``X @ W = Y`` for ``W``.  The planner stores ``N`` dummy input
  rows, so ``X`` is the square dummy system regenerated from the seed and is
  solved by LU factorization (LAPACK ``gesv``); only hand-built plans that
  append golden rows reach the least-squares branch,
* convolution (full): im2col patch matrix ``A (G^2, F^2 Z)`` against output
  ``B (G^2, Y)``,
* convolution (partial): restrict the unknowns to the weights the 2-D CRC
  flagged as erroneous; fall back to a least-squares (minimum-norm) solution
  when the restricted system is still under-determined (whole-layer
  corruption),
* bias: subtract input from output and collapse the broadcast copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.checkpoint import CheckpointStore
from repro.core.planner import LayerPlan
from repro.exceptions import RecoveryError
from repro.nn.layers import Bias, Conv2D, Dense
from repro.prng import SeededTensorGenerator
from repro.types import FLOAT_DTYPE

__all__ = [
    "SolveResult",
    "solve_dense_parameters",
    "solve_bias_parameters",
    "solve_conv_parameters_full",
    "solve_conv_parameters_partial",
    "solve_layer_parameters",
]


@dataclass
class SolveResult:
    """Outcome of one parameter-solving call."""

    parameters: np.ndarray
    parameters_updated: int
    fully_determined: bool
    residual: float = 0.0
    notes: str = ""


def _dense_dummy_system(
    layer: Dense, layer_plan: LayerPlan, store: CheckpointStore, prng: SeededTensorGenerator
) -> tuple[np.ndarray, np.ndarray]:
    """The stored dummy rows: ``X`` regenerated from the seed, ``Y`` as stored."""
    rows = prng.dummy_inputs(
        f"{layer.name}/solve-rows", (layer_plan.dummy_input_rows, layer.features_in)
    )
    outputs = store.dummy_row_outputs(layer_plan.index)
    return rows.astype(np.float64), outputs.astype(np.float64)


def solve_dense_parameters(
    layer: Dense,
    layer_plan: LayerPlan,
    golden_input: np.ndarray | None,
    golden_output: np.ndarray | None,
    store: CheckpointStore,
    prng: SeededTensorGenerator,
) -> SolveResult:
    """Solve ``X @ W = Y`` for the dense weight matrix ``W (N, P)``.

    When the stored dummy rows already form a complete system
    (``dummy_input_rows >= N``, the planner's default) the golden input/output
    pair is not used at all: the solve is *self-contained*, which keeps dense
    recovery exact even when neighbouring layers are erroneous (the paper's
    multi-layer whole-weight scenario).  ``golden_input``/``golden_output`` may
    then be ``None``.

    A square system -- always the case for planner-built plans, which store
    exactly ``N`` dummy rows -- is solved by LU factorization
    (``np.linalg.solve``).  Any other shape -- only hand-built plans reach
    one -- takes the least-squares solution.
    """
    self_contained = layer_plan.dummy_input_rows >= layer.features_in
    if golden_input is None or golden_output is None:
        if not self_contained:
            raise RecoveryError(
                f"dense layer {layer.name!r} needs a golden input/output pair: the stored "
                "dummy rows do not form a complete system on their own"
            )
    elif np.ndim(golden_input) != 2 or np.ndim(golden_output) != 2:
        raise RecoveryError("dense solving expects 2-D golden input and output")
    if self_contained:
        # The dummy system is complete; the golden pair is dropped so errors
        # in neighbouring layers cannot contaminate the solve.
        x, y = _dense_dummy_system(layer, layer_plan, store, prng)
    else:
        x = np.asarray(golden_input, dtype=np.float64)
        y = np.asarray(golden_output, dtype=np.float64)
        if layer_plan.dummy_input_rows > 0:
            dummy_x, dummy_y = _dense_dummy_system(layer, layer_plan, store, prng)
            x = np.concatenate([x, dummy_x], axis=0)
            y = np.concatenate([y, dummy_y], axis=0)
    if x.shape[0] == x.shape[1]:
        solution = np.linalg.solve(x, y)
        residual = 0.0
    else:
        solution, residuals, *_ = np.linalg.lstsq(x, y, rcond=None)
        residual = float(np.sum(residuals)) if np.size(residuals) else 0.0
    parameters = solution.astype(FLOAT_DTYPE)
    return SolveResult(
        parameters=parameters,
        parameters_updated=int(parameters.size),
        fully_determined=x.shape[0] >= layer.features_in,
        residual=residual,
    )


def solve_bias_parameters(
    layer: Bias, golden_input: np.ndarray, golden_output: np.ndarray
) -> SolveResult:
    """Bias solving: ``p = y - x`` with duplicate copies collapsed by averaging."""
    difference = np.asarray(golden_output, dtype=np.float64) - np.asarray(
        golden_input, dtype=np.float64
    )
    axes = tuple(range(difference.ndim - 1))
    parameters = difference.mean(axis=axes).astype(FLOAT_DTYPE)
    if parameters.shape != (layer.channels,):
        raise RecoveryError(
            f"bias solving for layer {layer.name!r} produced shape {parameters.shape}, "
            f"expected ({layer.channels},)"
        )
    return SolveResult(
        parameters=parameters,
        parameters_updated=int(parameters.size),
        fully_determined=True,
    )


def _conv_patch_system(
    layer: Conv2D, golden_input: np.ndarray, golden_output: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return the (A, B) matmul formulation of the convolution on golden data."""
    patches = layer.extract_patches(golden_input)
    batch, out_h, out_w, _ = patches.shape
    matrix_a = patches.reshape(batch * out_h * out_w, layer.receptive_field_size)
    matrix_b = np.asarray(golden_output, dtype=FLOAT_DTYPE).reshape(
        batch * out_h * out_w, layer.filters
    )
    return matrix_a.astype(np.float64), matrix_b.astype(np.float64)


def solve_conv_parameters_full(
    layer: Conv2D,
    layer_plan: LayerPlan,
    golden_input: np.ndarray,
    golden_output: np.ndarray,
    store: CheckpointStore,
    prng: SeededTensorGenerator,
) -> SolveResult:
    """Full convolution parameter solve: ``A @ W = B`` over all filters at once."""
    matrix_a, matrix_b = _conv_patch_system(layer, golden_input, golden_output)
    if layer_plan.index in store.dense_dummy_row_outputs and layer_plan.dummy_output_values:
        # Full recoverability below the G^2 >= F^2 Z threshold: dummy input
        # patches (regenerated) and their stored outputs extend the system.
        dummy_patch_count = layer.receptive_field_size - layer.output_positions
        if dummy_patch_count > 0:
            dummy_patches = prng.dummy_inputs(
                f"{layer.name}/solve-patches",
                (dummy_patch_count, layer.receptive_field_size),
            ).astype(np.float64)
            dummy_outputs = store.dummy_row_outputs(layer_plan.index).astype(np.float64)
            matrix_a = np.concatenate([matrix_a, dummy_patches], axis=0)
            matrix_b = np.concatenate([matrix_b, dummy_outputs], axis=0)
    fully_determined = matrix_a.shape[0] >= layer.receptive_field_size
    solution, residuals, *_ = np.linalg.lstsq(matrix_a, matrix_b, rcond=None)
    residual = float(np.sum(residuals)) if np.size(residuals) else 0.0
    kernel = solution.reshape(layer.get_weights().shape).astype(FLOAT_DTYPE)
    return SolveResult(
        parameters=kernel,
        parameters_updated=int(kernel.size),
        fully_determined=fully_determined,
        residual=residual,
    )


def solve_conv_parameters_partial(
    layer: Conv2D,
    layer_plan: LayerPlan,
    golden_input: np.ndarray,
    golden_output: np.ndarray,
    suspect_mask: np.ndarray,
) -> SolveResult:
    """Partial recoverability: solve only for the weights flagged by the 2-D CRC.

    For each filter ``k`` let ``e_k`` be the flagged weight indices.  With the
    non-flagged weights treated as known, the residual output
    ``B[:, k] - A[:, ok] @ W[ok, k]`` equals ``A[:, e_k] @ w_unknown``, a system
    with ``G^2`` equations.  Up to ``G^2`` erroneous weights per filter can be
    recovered exactly; beyond that the minimum-norm least-squares solution is
    used (the paper's "least-square solution" fallback for whole-layer errors).
    """
    suspect_mask = np.asarray(suspect_mask, dtype=bool)
    kernel = layer.get_weights()
    if suspect_mask.shape != kernel.shape:
        raise RecoveryError(
            f"suspect mask shape {suspect_mask.shape} does not match kernel shape {kernel.shape}"
        )
    matrix_a, matrix_b = _conv_patch_system(layer, golden_input, golden_output)
    kernel_matrix = kernel.reshape(layer.receptive_field_size, layer.filters).astype(np.float64)
    mask_matrix = suspect_mask.reshape(layer.receptive_field_size, layer.filters)
    recovered = kernel_matrix.copy()
    positions = layer.output_positions
    updated = 0
    fully_determined = True
    for filter_index in range(layer.filters):
        erroneous = np.flatnonzero(mask_matrix[:, filter_index])
        if erroneous.size == 0:
            continue
        known = np.setdiff1d(
            np.arange(layer.receptive_field_size), erroneous, assume_unique=True
        )
        rhs = matrix_b[:, filter_index] - matrix_a[:, known] @ kernel_matrix[known, filter_index]
        system = matrix_a[:, erroneous]
        if erroneous.size > positions:
            fully_determined = False
        solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        recovered[erroneous, filter_index] = solution
        updated += int(erroneous.size)
    new_kernel = recovered.reshape(kernel.shape).astype(FLOAT_DTYPE)
    notes = "" if fully_determined else "under-determined: least-squares fallback used"
    return SolveResult(
        parameters=new_kernel,
        parameters_updated=updated,
        fully_determined=fully_determined,
        notes=notes,
    )


def solve_layer_parameters(
    layer,
    layer_plan: LayerPlan,
    golden_input: np.ndarray,
    golden_output: np.ndarray,
    store: CheckpointStore,
    prng: SeededTensorGenerator,
    suspect_mask: np.ndarray | None = None,
) -> SolveResult:
    """Dispatch to the layer's protection handler for parameter solving."""
    # Imported lazily: the handler modules import this module's solver helpers.
    from repro.core.handlers import handler_for

    return handler_for(layer, layer_plan.index).solve(
        layer,
        layer_plan,
        golden_input,
        golden_output,
        store,
        prng,
        suspect_mask=suspect_mask,
    )
