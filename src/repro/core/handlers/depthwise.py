"""Protection handler for :class:`~repro.nn.layers.depthwise.DepthwiseConv2D`.

Depthwise convolutions extend the paper's taxonomy with per-channel kernels:

* **detection** probes the centre output position across all channels (the
  convolution probe, one stored value per channel),
* **localization and bit-exact repair** use 2-D CRC codes over the kernel
  viewed as a ``(1, 1, F1*F2, C)`` matrix -- row groups span a channel's taps,
  column groups span channels, so the batched CRC pipeline applies unchanged,
* **recovery is checkpoint-guided**: each channel solves its own
  ``A_c (G^2, F^2) @ w_c = B_c (G^2)`` patch system on the golden
  input/output pair; with a CRC suspect mask the solve restricts to the
  flagged taps and keeps every clean word's stored bits,
* **inversion is impossible** (one equation per channel per output pixel
  against ``F^2`` unknowns), so the layer stores a full input checkpoint,
  exactly like pooling.

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
    volume,
)
from repro.core.handlers.conv2d import conv_probe_position
from repro.core.planner import InversionStrategy, LayerPlan, RecoveryStrategy
from repro.core.solvers import SolveResult
from repro.exceptions import RecoveryError
from repro.nn.layers import DepthwiseConv2D
from repro.types import FLOAT_DTYPE

__all__ = ["DepthwiseConv2DProtectionHandler"]

#: New recovery strategy for the per-channel patch solve (open enum).
DEPTHWISE_CHANNEL = RecoveryStrategy.register("DEPTHWISE_CHANNEL", "depthwise_channel")


@register_handler(DepthwiseConv2D)
class DepthwiseConv2DProtectionHandler(CRCViewProtectionMixin, LayerProtectionHandler):
    """DepthwiseConv2D: 2-D CRC protection, checkpoint-guided per-channel solve."""

    repair_rank = 2

    def crc_view_shape(self, weights: np.ndarray) -> tuple[int, int, int, int]:
        """The ``(F1, F2, C)`` kernel viewed as a ``(1, 1, F1*F2, C)`` kernel."""
        f1, f2, channels = weights.shape
        return (1, 1, f1 * f2, channels)

    def plan(self, layer: DepthwiseConv2D, index: int, config) -> LayerPlan:
        taps = layer.taps_per_channel
        positions = layer.output_positions
        plan = LayerPlan(
            index=index,
            name=layer.name,
            kind="DepthwiseConv2D",
            parameter_count=layer.parameter_count,
            recovery_strategy=DEPTHWISE_CHANNEL,
            inversion_strategy=InversionStrategy.CHECKPOINT,
            needs_input_checkpoint=True,
            input_checkpoint_values=volume(layer.input_shape),
        )
        # Detection: one stored output value per channel (centre probe).
        plan.partial_checkpoint_values = layer.channels
        # Localization / bit-exact repair: CRC codes over the (F^2, C) matrix.
        plan.stores_crc_codes = True
        plan.notes.append(
            "depthwise is non-invertible (1 equation per channel per pixel): "
            "input checkpoint stored"
        )
        if positions < taps:
            plan.notes.append(
                f"per-channel solve under-determined (G^2={positions} < F^2={taps}); "
                "CRC-restricted solves required"
            )
        else:
            plan.notes.append(
                f"checkpoint-guided per-channel solve (G^2={positions} >= F^2={taps})"
            )
        return plan

    def probe(
        self,
        layer: DepthwiseConv2D,
        index: int,
        detection_input: DetectionInput,
        config,
    ) -> np.ndarray:
        det_in = detection_input(index, layer.input_shape)
        output = layer.forward(det_in)
        row, col = conv_probe_position(layer)
        return output[0, row, col, :].copy()

    def init_recovery_data(self, layer: DepthwiseConv2D, plan, golden_input, store, prng, config):
        self.store_crc_codes(layer.get_weights(), plan, store, config)

    # ------------------------------------------------------------------ #
    def _channel_system(
        self, layer: DepthwiseConv2D, golden_input, golden_output
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel matmul formulation ``A (P, F^2, C)`` / ``B (P, C)``."""
        patches = layer.channel_patches(golden_input)
        matrix_a = patches.reshape(-1, layer.taps_per_channel, layer.channels)
        matrix_b = np.asarray(golden_output, dtype=FLOAT_DTYPE).reshape(-1, layer.channels)
        return matrix_a.astype(np.float64), matrix_b.astype(np.float64)

    def solve(
        self,
        layer: DepthwiseConv2D,
        plan,
        golden_input,
        golden_output,
        store,
        prng,
        suspect_mask: Optional[np.ndarray] = None,
    ) -> SolveResult:
        if golden_input is None or golden_output is None:
            raise RecoveryError(
                f"depthwise layer {layer.name!r} needs a golden input/output pair "
                "(checkpoint-guided recovery)"
            )
        matrix_a, matrix_b = self._channel_system(layer, golden_input, golden_output)
        kernel = layer.get_weights()
        taps = layer.taps_per_channel
        positions = matrix_a.shape[0]
        kernel_matrix = kernel.reshape(taps, layer.channels).astype(np.float64)
        recovered = kernel_matrix.copy()
        fully_determined = True
        if suspect_mask is None:
            # Full per-channel solve: every tap of every channel recomputed.
            for channel in range(layer.channels):
                solution, *_ = np.linalg.lstsq(
                    matrix_a[:, :, channel], matrix_b[:, channel], rcond=None
                )
                recovered[:, channel] = solution
            if positions < taps:
                fully_determined = False
            updated = int(kernel.size)
        else:
            suspect_mask = np.asarray(suspect_mask, dtype=bool)
            if suspect_mask.shape != kernel.shape:
                raise RecoveryError(
                    f"suspect mask shape {suspect_mask.shape} does not match "
                    f"kernel shape {kernel.shape}"
                )
            # CRC-restricted solve: treat non-flagged taps as known, solve only
            # the flagged ones so clean words keep their stored bit patterns.
            mask_matrix = suspect_mask.reshape(taps, layer.channels)
            updated = 0
            for channel in np.flatnonzero(mask_matrix.any(axis=0)):
                erroneous = np.flatnonzero(mask_matrix[:, channel])
                known = np.setdiff1d(np.arange(taps), erroneous, assume_unique=True)
                rhs = matrix_b[:, channel] - matrix_a[:, known, channel] @ kernel_matrix[
                    known, channel
                ]
                system = matrix_a[:, erroneous, channel]
                if erroneous.size > positions:
                    fully_determined = False
                solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
                recovered[erroneous, channel] = solution
                updated += int(erroneous.size)
        notes = "" if fully_determined else "under-determined: least-squares fallback used"
        return SolveResult(
            parameters=recovered.reshape(kernel.shape).astype(FLOAT_DTYPE),
            parameters_updated=updated,
            fully_determined=fully_determined,
            notes=notes,
        )

    # ------------------------------------------------------------------ #
    # Bit-exact repair chain (the CRC-guided bit-exact repair comes from
    # CRCViewProtectionMixin.checkpoint_free_repair)
    # ------------------------------------------------------------------ #
    def residual_repair_estimate(
        self, layer: DepthwiseConv2D, plan, corrupted, engine
    ) -> Optional[np.ndarray]:
        """Per-channel residual-guided sparse repair (one OMP per channel)."""
        from repro.core.repair import sparse_kernel_repair

        golden_input = engine.golden_input_for(plan.index)
        golden_output = engine.golden_output_for(plan.index)
        matrix_a, matrix_b = self._channel_system(layer, golden_input, golden_output)
        taps = layer.taps_per_channel
        corrupted_matrix = corrupted.reshape(taps, layer.channels)
        estimate = corrupted_matrix.copy()
        for channel in range(layer.channels):
            channel_estimate, complete = sparse_kernel_repair(
                matrix_a[:, :, channel],
                matrix_b[:, channel : channel + 1],
                corrupted_matrix[:, channel : channel + 1],
            )
            if not complete:
                return None
            estimate[:, channel] = channel_estimate[:, 0]
        return estimate.reshape(corrupted.shape)
