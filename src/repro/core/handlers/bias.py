"""Protection handler for :class:`~repro.nn.layers.bias.Bias` layers.

The paper (Sec. IV-E-c) treats the bias as its own layer with the relationship
``output = input + parameters``: detection stores the parameter sum (or a full
copy), recovery subtracts the golden input from the golden output, and the
service runtime repairs bit-exactly from the stored sum alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.handlers.base import (
    DetectionInput,
    LayerProtectionHandler,
    register_handler,
)
from repro.core.inversion import invert_bias
from repro.core.planner import InversionStrategy, LayerPlan, RecoveryStrategy
from repro.core.solvers import solve_bias_parameters
from repro.nn.layers import Bias

__all__ = ["BiasProtectionHandler"]


@register_handler(Bias)
class BiasProtectionHandler(LayerProtectionHandler):
    """Bias: sum-based detection, subtraction recovery, self-contained repair."""

    #: Bias repairs from its own stored checkpoint, independent of any
    #: neighbour -- heal it first so later golden passes travel clean layers.
    repair_rank = 0

    def plan(self, layer: Bias, index: int, config) -> LayerPlan:
        plan = LayerPlan(
            index=index,
            name=layer.name,
            kind="Bias",
            parameter_count=layer.parameter_count,
            recovery_strategy=RecoveryStrategy.BIAS_SUBTRACT,
            inversion_strategy=InversionStrategy.BIAS,
        )
        # Detection: the stored sum of all bias values (1 value) or a full copy.
        plan.partial_checkpoint_values = (
            1 if config.bias_detection_uses_sum else layer.channels
        )
        return plan

    def probe(
        self, layer: Bias, index: int, detection_input: DetectionInput, config
    ) -> np.ndarray:
        if config.bias_detection_uses_sum:
            return np.asarray([layer.get_weights().sum(dtype=np.float64)])
        return layer.get_weights().copy()

    def invert(self, layer: Bias, plan, outputs, store, prng) -> np.ndarray:
        return invert_bias(layer, outputs)

    def solve(
        self,
        layer: Bias,
        plan,
        golden_input,
        golden_output,
        store,
        prng,
        suspect_mask: Optional[np.ndarray] = None,
    ):
        return solve_bias_parameters(layer, golden_input, golden_output)

    # ------------------------------------------------------------------ #
    # Service repair chain
    # ------------------------------------------------------------------ #
    def checkpoint_free_repair(
        self, layer, plan, corrupted, golden_fingerprint, store, milr_config, service_config
    ) -> Optional[np.ndarray]:
        from repro.service.repair import sparse_bias_repair

        return sparse_bias_repair(
            corrupted,
            store.partial_checkpoint(plan.index),
            uses_sum=milr_config.bias_detection_uses_sum,
            golden_fingerprint=golden_fingerprint,
            rtol=service_config.repair_rtol,
            atol=service_config.repair_atol,
            max_flips=service_config.repair_max_flips,
        )
