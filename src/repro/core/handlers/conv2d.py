"""Protection handler for :class:`~repro.nn.layers.conv2d.Conv2D` layers.

Convolutions (paper Sec. IV-B) solve ``A @ W = B`` over im2col patches.  The
planner chooses between a full solve (``G^2 >= F^2 Z``), a full solve extended
with dummy input patches, or 2-D-CRC partial recoverability; inversion uses
dummy filters or, when cheaper, a stored input checkpoint.
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
from repro.core.inversion import invert_conv
from repro.core.planner import InversionStrategy, LayerPlan, RecoveryStrategy
from repro.core.solvers import solve_conv_parameters_full, solve_conv_parameters_partial
from repro.nn.layers import Conv2D
from repro.types import FLOAT_DTYPE

__all__ = ["Conv2DProtectionHandler", "conv_probe_position"]


def conv_probe_position(layer) -> tuple[int, int]:
    """Output position sampled for a convolution-style partial checkpoint.

    The centre position is used so that, with 'same' padding, the receptive
    field does not include padded zeros -- every weight of the filter
    contributes to the stored value and any weight change is observable.

    Shared by every handler that probes a spatial output (plain and depthwise
    convolutions); this is the single home of the probe-position logic.
    """
    out_h, out_w, _ = layer.output_shape
    return (out_h // 2, out_w // 2)


@register_handler(Conv2D)
class Conv2DProtectionHandler(CRCViewProtectionMixin, LayerProtectionHandler):
    """Conv2D: patch-system solve, 2-D CRC localization, dummy-filter inversion."""

    repair_rank = 2

    def crc_view_shape(self, weights: np.ndarray) -> tuple[int, int, int, int]:
        """Conv kernels are natively ``(F1, F2, Z, Y)`` -- the identity view."""
        return weights.shape

    def plan(self, layer: Conv2D, index: int, config) -> LayerPlan:
        """Plan a convolution layer (F, F, Z, Y) with G^2 output positions."""
        receptive = layer.receptive_field_size  # F^2 Z
        filters = layer.filters  # Y
        positions = layer.output_positions  # G^2
        plan = LayerPlan(
            index=index,
            name=layer.name,
            kind="Conv2D",
            parameter_count=layer.parameter_count,
            recovery_strategy=RecoveryStrategy.CONV_FULL,
            inversion_strategy=InversionStrategy.CONV,
        )
        # Detection: one stored output value per filter.
        plan.partial_checkpoint_values = filters

        # Parameter solving: G^2 >= F^2 Z allows a full solve with no extra data.
        if positions < receptive:
            if config.prefer_partial_conv_recovery:
                plan.recovery_strategy = RecoveryStrategy.CONV_PARTIAL
                plan.stores_crc_codes = True
                plan.notes.append(
                    f"partial recoverability (G^2={positions} < F^2Z={receptive}); "
                    "2-D CRC codes stored"
                )
            else:
                # Full recoverability through dummy input patches: each dummy
                # patch adds one equation per filter, so (F^2 Z - G^2) patches
                # are needed and their outputs stored.
                dummy_patches = receptive - positions
                plan.dummy_output_values += dummy_patches * filters
                plan.notes.append(
                    f"full recoverability with {dummy_patches} dummy input patches"
                )

        # Inversion: Y >= F^2 Z gives enough equations per receptive field.
        # If not, compare the cost of dummy filters (their outputs are G^2
        # values per dummy filter) against a full input checkpoint and keep
        # the cheaper.
        if filters < receptive:
            dummy_filters = receptive - filters
            dummy_filter_output_values = dummy_filters * positions
            input_checkpoint_values = volume(layer.input_shape)
            if dummy_filter_output_values <= input_checkpoint_values:
                plan.dummy_filters = dummy_filters
                plan.dummy_output_values += dummy_filter_output_values
                plan.notes.append(
                    f"inversion uses {dummy_filters} dummy filters "
                    f"({dummy_filter_output_values} stored outputs)"
                )
            else:
                plan.inversion_strategy = InversionStrategy.CHECKPOINT
                plan.needs_input_checkpoint = True
                plan.input_checkpoint_values = input_checkpoint_values
                plan.notes.append(
                    "inversion via input checkpoint (cheaper than dummy filters)"
                )
        return plan

    def probe(
        self, layer: Conv2D, index: int, detection_input: DetectionInput, config
    ) -> np.ndarray:
        det_in = detection_input(index, layer.input_shape)
        output = layer.forward(det_in)
        row, col = conv_probe_position(layer)
        return output[0, row, col, :].copy()

    def init_recovery_data(self, layer: Conv2D, plan, golden_input, store, prng, config):
        if plan.dummy_filters > 0:
            f1, f2 = layer.kernel_size
            dummy_kernel = prng.dummy_parameters(
                f"{layer.name}/invert-filters",
                (f1, f2, layer.input_channels, plan.dummy_filters),
            )
            patches = layer.extract_patches(golden_input)
            batch, out_h, out_w, _ = patches.shape
            flat = patches.reshape(batch * out_h * out_w, -1)
            dummy_matrix = dummy_kernel.reshape(-1, plan.dummy_filters)
            dummy_out = (flat.astype(np.float64) @ dummy_matrix.astype(np.float64)).astype(
                FLOAT_DTYPE
            )
            store.conv_dummy_filter_outputs[plan.index] = dummy_out.reshape(
                batch, out_h, out_w, plan.dummy_filters
            )
        if plan.stores_crc_codes or config.always_store_conv_crc:
            self.store_crc_codes(layer.get_weights(), plan, store, config)
        if (
            plan.recovery_strategy is RecoveryStrategy.CONV_FULL
            and layer.output_positions < layer.receptive_field_size
        ):
            # Full recoverability chosen despite G^2 < F^2 Z: store dummy
            # input patch outputs so the solve becomes well determined.
            dummy_patch_count = layer.receptive_field_size - layer.output_positions
            dummy_patches = prng.dummy_inputs(
                f"{layer.name}/solve-patches",
                (dummy_patch_count, layer.receptive_field_size),
            )
            dummy_out = (
                dummy_patches.astype(np.float64)
                @ layer.kernel_matrix().astype(np.float64)
            ).astype(FLOAT_DTYPE)
            store.dense_dummy_row_outputs[plan.index] = dummy_out

    def localizes_weights(self, layer: Conv2D, plan) -> bool:
        # Unlike the mixin default, plain convolutions only localize when the
        # *recovery strategy* is CRC-partial: a layer whose codes exist solely
        # for the service runtime (always_store_conv_crc) still recovers with
        # the full patch solve, which needs no suspect mask.
        return (
            plan.recovery_strategy is RecoveryStrategy.CONV_PARTIAL
            and plan.stores_crc_codes
        )

    def invert(self, layer: Conv2D, plan, outputs, store, prng) -> np.ndarray:
        return invert_conv(layer, plan, outputs, store, prng)

    def solve(
        self,
        layer: Conv2D,
        plan,
        golden_input,
        golden_output,
        store,
        prng,
        suspect_mask: Optional[np.ndarray] = None,
    ):
        if plan.recovery_strategy is RecoveryStrategy.CONV_PARTIAL:
            if suspect_mask is None:
                # Without localization information every weight is a suspect.
                suspect_mask = np.ones(layer.get_weights().shape, dtype=bool)
            return solve_conv_parameters_partial(
                layer, plan, golden_input, golden_output, suspect_mask
            )
        return solve_conv_parameters_full(layer, plan, golden_input, golden_output, store, prng)

    # ------------------------------------------------------------------ #
    # Bit-exact repair chain (the CRC-guided bit-exact repair comes from
    # CRCViewProtectionMixin.checkpoint_free_repair)
    # ------------------------------------------------------------------ #
    def residual_repair_estimate(
        self, layer: Conv2D, plan, corrupted, engine
    ) -> Optional[np.ndarray]:
        """Residual-guided sparse repair over the whole kernel matrix.

        Deep layers' full kernel solves can be under-determined (the golden
        input patches span a low-rank subspace), while the sparse path
        isolates the few corrupted coordinates exactly.
        """
        from repro.core.repair import sparse_kernel_repair

        golden_input = engine.golden_input_for(plan.index)
        golden_output = engine.golden_output_for(plan.index)
        patches = layer.extract_patches(golden_input)
        estimate, complete = sparse_kernel_repair(
            patches.reshape(-1, patches.shape[-1]),
            golden_output.reshape(-1, layer.filters),
            corrupted.reshape(-1, layer.filters),
        )
        if complete:
            return estimate.reshape(corrupted.shape)
        return None
