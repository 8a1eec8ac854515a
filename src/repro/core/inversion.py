"""Layer inversion (backward pass) used by MILR recovery.

Given a layer's *output* tensor from the golden recovery pass, these routines
reconstruct its *input*, exploiting the layer algebra (paper Sec. IV):

* dense: solve ``X @ W = Y`` for ``X`` (needs ``P >= N`` or stored dummy
  parameter-column outputs),
* convolution: each output pixel gives ``Y`` equations over the ``F^2 Z``
  unknowns of its receptive field (needs ``Y >= F^2 Z`` or stored dummy-filter
  outputs); patch solutions are stitched back together,
* bias: subtract the parameters,
* flatten / zero-padding: exact shape restoration,
* activations / dropout: identity,
* pooling: not invertible -- recovery must instead start from the stored input
  checkpoint, so requesting an inversion is an error.
"""

from __future__ import annotations

import numpy as np

from repro.core.checkpoint import CheckpointStore
from repro.core.planner import InversionStrategy, LayerPlan
from repro.exceptions import NotInvertibleError, RecoveryError
from repro.nn.layers import Bias, Conv2D, Dense
from repro.nn.tensor_utils import col2im, pad_same_amounts
from repro.prng import SeededTensorGenerator
from repro.types import FLOAT_DTYPE

__all__ = ["invert_layer", "invert_dense", "invert_conv", "invert_bias"]


def invert_dense(
    layer: Dense,
    layer_plan: LayerPlan,
    outputs: np.ndarray,
    store: CheckpointStore,
    prng: SeededTensorGenerator,
) -> np.ndarray:
    """Recover the dense layer's input from its output: solve ``X @ W = Y``."""
    outputs = np.asarray(outputs, dtype=FLOAT_DTYPE)
    weights = layer.get_weights().astype(np.float64)
    rhs = outputs.astype(np.float64)
    if layer_plan.dummy_parameter_columns > 0:
        dummy_columns = prng.dummy_parameters(
            f"{layer.name}/invert-columns",
            (layer.features_in, layer_plan.dummy_parameter_columns),
        ).astype(np.float64)
        weights = np.concatenate([weights, dummy_columns], axis=1)
        dummy_outputs = store.dummy_column_outputs(layer_plan.index).astype(np.float64)
        if dummy_outputs.shape[0] != rhs.shape[0]:
            raise RecoveryError(
                f"dummy column outputs for layer {layer.name!r} were stored for a batch of "
                f"{dummy_outputs.shape[0]}, got outputs with batch {rhs.shape[0]}"
            )
        rhs = np.concatenate([rhs, dummy_outputs], axis=1)
    if weights.shape[1] < weights.shape[0]:
        raise NotInvertibleError(
            f"dense layer {layer.name!r} has P={weights.shape[1]} < N={weights.shape[0]} "
            "and no dummy parameter columns were planned"
        )
    # X @ W = Y  <=>  W^T X^T = Y^T.
    solution, *_ = np.linalg.lstsq(weights.T, rhs.T, rcond=None)
    return solution.T.astype(FLOAT_DTYPE)


def invert_conv(
    layer: Conv2D,
    layer_plan: LayerPlan,
    outputs: np.ndarray,
    store: CheckpointStore,
    prng: SeededTensorGenerator,
) -> np.ndarray:
    """Recover the convolution layer's input from its output.

    Each output position provides one equation per (real or dummy) filter over
    the receptive-field unknowns; the per-patch solutions are folded back into
    the (padded) input and the padding stripped.
    """
    outputs = np.asarray(outputs, dtype=FLOAT_DTYPE)
    batch, out_h, out_w, _ = outputs.shape
    kernel_matrix = layer.kernel_matrix().astype(np.float64)  # (F^2 Z, Y)
    rhs = outputs.reshape(batch * out_h * out_w, layer.filters).astype(np.float64)
    if layer_plan.dummy_filters > 0:
        f1, f2 = layer.kernel_size
        dummy_kernel = prng.dummy_parameters(
            f"{layer.name}/invert-filters",
            (f1, f2, layer.input_channels, layer_plan.dummy_filters),
        )
        dummy_matrix = dummy_kernel.reshape(-1, layer_plan.dummy_filters).astype(np.float64)
        kernel_matrix = np.concatenate([kernel_matrix, dummy_matrix], axis=1)
        dummy_outputs = store.dummy_filter_outputs(layer_plan.index)
        if dummy_outputs.shape[:3] != outputs.shape[:3]:
            raise RecoveryError(
                f"dummy filter outputs for layer {layer.name!r} have shape "
                f"{dummy_outputs.shape}, expected leading dims {outputs.shape[:3]}"
            )
        rhs = np.concatenate(
            [rhs, dummy_outputs.reshape(batch * out_h * out_w, -1).astype(np.float64)], axis=1
        )
    if kernel_matrix.shape[1] < kernel_matrix.shape[0]:
        raise NotInvertibleError(
            f"conv layer {layer.name!r} has Y={kernel_matrix.shape[1]} < "
            f"F^2Z={kernel_matrix.shape[0]} and no dummy filters were planned"
        )
    # patch @ K = out  <=>  K^T patch^T = out^T, solved for all patches at once.
    solution, *_ = np.linalg.lstsq(kernel_matrix.T, rhs.T, rcond=None)
    patches = solution.T.reshape(batch, out_h, out_w, layer.receptive_field_size)

    padded_shape = layer.padded_input_shape(batch)
    reconstructed = col2im(
        patches.astype(FLOAT_DTYPE),
        padded_shape,
        layer.kernel_size,
        layer.stride,
        reduce="mean",
    )
    if layer.padding == "same":
        height, width, _ = layer.input_shape
        pad_h = pad_same_amounts(height, layer.kernel_size[0], layer.stride[0])
        pad_w = pad_same_amounts(width, layer.kernel_size[1], layer.stride[1])
        padded_height = reconstructed.shape[1]
        padded_width = reconstructed.shape[2]
        reconstructed = reconstructed[
            :,
            pad_h[0] : padded_height - pad_h[1] if pad_h[1] else padded_height,
            pad_w[0] : padded_width - pad_w[1] if pad_w[1] else padded_width,
            :,
        ]
    return reconstructed.astype(FLOAT_DTYPE)


def invert_bias(layer: Bias, outputs: np.ndarray) -> np.ndarray:
    """Bias inversion: ``input = output - parameters``."""
    outputs = np.asarray(outputs, dtype=FLOAT_DTYPE)
    return (outputs - layer.get_weights()).astype(FLOAT_DTYPE)


def invert_layer(
    layer,
    layer_plan: LayerPlan,
    outputs: np.ndarray,
    store: CheckpointStore,
    prng: SeededTensorGenerator,
) -> np.ndarray:
    """Dispatch to the layer's protection handler for inversion.

    The two strategy-generic cases are handled here so every handler only
    implements its real algebra: identity layers pass the tensor through
    untouched, and checkpoint-strategy layers (pooling, depthwise
    convolutions, convolutions whose dummy filters would cost more than a
    checkpoint) refuse inversion outright.
    """
    strategy = layer_plan.inversion_strategy
    if strategy is InversionStrategy.IDENTITY:
        return np.asarray(outputs, dtype=FLOAT_DTYPE)
    if strategy is InversionStrategy.CHECKPOINT:
        raise NotInvertibleError(
            f"layer {layer.name!r} ({layer_plan.kind}) is not invertible; recovery must "
            "use its stored input checkpoint"
        )
    # Imported lazily: the handler modules import this module's invert_* helpers.
    from repro.core.handlers import handler_for

    return handler_for(layer, layer_plan.index).invert(layer, layer_plan, outputs, store, prng)
