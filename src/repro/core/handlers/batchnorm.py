"""Protection handler for :class:`~repro.nn.layers.batchnorm.BatchNorm`.

The folded batch-norm affine ``y = gamma * x + beta`` extends the paper's
taxonomy with a layer type of its own:

* **detection** stores the scale sum and the shift sum (two values, the
  bias-layer idea applied per parameter row),
* **localization and bit-exact repair** use 2-D CRC codes over the ``(2, C)``
  parameter matrix, viewed as a degenerate ``(1, 1, 2, C)`` kernel so the
  batched CRC pipeline applies unchanged,
* **recovery is self-contained**: a few stored PRNG dummy rows per channel
  determine ``(gamma_c, beta_c)`` by per-channel linear regression, without
  any golden pass through neighbouring (possibly corrupted) layers,
* **inversion** is the exact affine inverse ``x = (y - beta) / gamma``.

Registered purely as this module -- the core engines are untouched.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.handlers.base import (
    CRCViewProtectionMixin,
    DetectionInput,
    LayerProtectionHandler,
    register_handler,
)
from repro.core.planner import InversionStrategy, LayerPlan, RecoveryStrategy
from repro.core.solvers import SolveResult
from repro.exceptions import RecoveryError
from repro.nn.layers import BatchNorm
from repro.types import FLOAT_DTYPE

__all__ = ["BatchNormProtectionHandler"]

#: Per-channel regression rows stored at initialization.  Two rows determine
#: an affine exactly; the extra rows keep the normal equations well
#: conditioned for every PRNG draw.
_DUMMY_ROWS = 4

#: New strategy members for the affine algebra (open enum registration).
AFFINE_CHANNEL = RecoveryStrategy.register("AFFINE_CHANNEL", "affine_channel")
AFFINE = InversionStrategy.register("AFFINE", "affine")


@register_handler(BatchNorm)
class BatchNormProtectionHandler(CRCViewProtectionMixin, LayerProtectionHandler):
    """BatchNorm: sum + CRC protection, self-contained per-channel solve."""

    #: Fully self-contained (stored sums, CRC codes and dummy rows only).
    repair_rank = 0

    def crc_view_shape(self, weights: np.ndarray) -> tuple[int, int, int, int]:
        """The ``(2, C)`` parameter matrix viewed as a ``(1, 1, 2, C)`` kernel."""
        return (1, 1, 2, weights.shape[-1])

    def plan(self, layer: BatchNorm, index: int, config) -> LayerPlan:
        channels = layer.channels
        plan = LayerPlan(
            index=index,
            name=layer.name,
            kind="BatchNorm",
            parameter_count=layer.parameter_count,
            recovery_strategy=AFFINE_CHANNEL,
            inversion_strategy=AFFINE,
        )
        # Detection: the stored scale sum and shift sum (2 values).
        plan.partial_checkpoint_values = 2
        # Localization / bit-exact repair: CRC codes over the (2, C) matrix.
        plan.stores_crc_codes = True
        # Self-contained solving: stored dummy rows and their affine outputs.
        plan.dummy_input_rows = _DUMMY_ROWS
        plan.dummy_output_values = _DUMMY_ROWS * channels
        plan.notes.append(
            f"self-contained per-channel affine solve from {_DUMMY_ROWS} stored dummy rows"
        )
        return plan

    def probe(
        self, layer: BatchNorm, index: int, detection_input: DetectionInput, config
    ) -> np.ndarray:
        # Corrupted words can be inf/nan; the sums then mismatch, which is
        # exactly the detection signal -- no need for numpy to warn about it.
        with np.errstate(invalid="ignore", over="ignore"):
            weights = layer.get_weights().astype(np.float64)
            return np.asarray([weights[0].sum(), weights[1].sum()])

    def init_recovery_data(self, layer: BatchNorm, plan, golden_input, store, prng, config):
        weights = layer.get_weights()
        dummy_rows = prng.dummy_inputs(
            f"{layer.name}/solve-rows", (plan.dummy_input_rows, layer.channels)
        )
        outputs = (
            dummy_rows.astype(np.float64) * weights[0].astype(np.float64)
            + weights[1].astype(np.float64)
        ).astype(FLOAT_DTYPE)
        store.dense_dummy_row_outputs[plan.index] = outputs
        self.store_crc_codes(weights, plan, store, config)

    # ------------------------------------------------------------------ #
    def is_self_contained(self, layer: BatchNorm, plan) -> bool:
        return True

    def invert(self, layer: BatchNorm, plan, outputs, store, prng) -> np.ndarray:
        return layer.invert(outputs)

    def solve(
        self,
        layer: BatchNorm,
        plan,
        golden_input,
        golden_output,
        store,
        prng,
        suspect_mask: Optional[np.ndarray] = None,
    ) -> SolveResult:
        """Per-channel affine regression on the stored dummy system.

        For every channel ``c`` the stored rows give
        ``y_rc = gamma_c * x_rc + beta_c``; the 2x2 normal equations are
        solved for all channels at once.  The golden input/output pair is
        deliberately ignored (self-contained solve, like dense layers).
        """
        rows = prng.dummy_inputs(
            f"{layer.name}/solve-rows", (plan.dummy_input_rows, layer.channels)
        ).astype(np.float64)
        outputs = store.dummy_row_outputs(plan.index).astype(np.float64)
        if outputs.shape != rows.shape:
            raise RecoveryError(
                f"BatchNorm {layer.name!r} dummy outputs have shape {outputs.shape}, "
                f"expected {rows.shape}"
            )
        count = float(rows.shape[0])
        sum_x = rows.sum(axis=0)
        sum_xx = (rows * rows).sum(axis=0)
        sum_y = outputs.sum(axis=0)
        sum_xy = (rows * outputs).sum(axis=0)
        det = count * sum_xx - sum_x * sum_x
        fully_determined = bool(np.all(np.abs(det) > 1e-9))
        safe_det = np.where(det == 0.0, 1.0, det)
        gamma = (count * sum_xy - sum_x * sum_y) / safe_det
        beta = (sum_y - gamma * sum_x) / count
        solved = np.stack([gamma, beta]).astype(FLOAT_DTYPE)
        current = layer.get_weights()
        if suspect_mask is not None:
            suspect_mask = np.asarray(suspect_mask, dtype=bool)
            if suspect_mask.shape != current.shape:
                raise RecoveryError(
                    f"suspect mask shape {suspect_mask.shape} does not match "
                    f"parameter shape {current.shape}"
                )
            # CRC localization lets the clean words keep their stored bit
            # patterns verbatim; only flagged words take the solved values.
            parameters = np.where(suspect_mask, solved, current)
            updated = int(suspect_mask.sum())
        else:
            parameters = solved
            updated = int(solved.size)
        return SolveResult(
            parameters=parameters,
            parameters_updated=updated,
            fully_determined=fully_determined,
        )

    # The service repair chain's CRC-guided bit-exact repair comes from
    # CRCViewProtectionMixin.checkpoint_free_repair.
