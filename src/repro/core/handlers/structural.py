"""Protection handlers for the parameter-free layers (paper Sec. IV-E-d).

* Activations, dropout and input layers are treated as the identity during
  MILR's linearized recovery passes (Sec. IV-D), so they plan as identity.
* Flatten and zero padding only move data: a backward pass restores the
  original shape exactly.
* Pooling is the canonical non-invertible layer: MILR stores a full input
  checkpoint before it (Sec. IV-C).
"""

from __future__ import annotations

import numpy as np

from repro.core.handlers.base import (
    LayerProtectionHandler,
    PassthroughHandler,
    register_handler,
    volume,
)
from repro.core.planner import InversionStrategy, LayerPlan, RecoveryStrategy
from repro.nn.layers import Activation, Dropout, Flatten, InputLayer, ZeroPadding2D
from repro.nn.layers.pooling import _Pool2D
from repro.types import FLOAT_DTYPE

__all__ = [
    "LinearizedIdentityHandler",
    "ReshapeProtectionHandler",
    "CheckpointOnlyHandler",
]


@register_handler(Activation, Dropout, InputLayer)
class LinearizedIdentityHandler(PassthroughHandler):
    """Layers skipped entirely by the linearized recovery passes."""


@register_handler(Flatten, ZeroPadding2D)
class ReshapeProtectionHandler(LayerProtectionHandler):
    """Flatten / zero padding: exact shape restoration during inversion."""

    def plan(self, layer, index: int, config) -> LayerPlan:
        return LayerPlan(
            index=index,
            name=layer.name,
            kind=type(layer).__name__,
            parameter_count=0,
            recovery_strategy=RecoveryStrategy.NONE,
            inversion_strategy=InversionStrategy.RESHAPE,
        )

    def invert(self, layer, plan, outputs, store, prng) -> np.ndarray:
        return layer.invert(np.asarray(outputs, dtype=FLOAT_DTYPE))


@register_handler(_Pool2D)
class CheckpointOnlyHandler(LayerProtectionHandler):
    """Non-invertible layers: recovery restarts from a stored input checkpoint."""

    def plan(self, layer, index: int, config) -> LayerPlan:
        return LayerPlan(
            index=index,
            name=layer.name,
            kind=type(layer).__name__,
            parameter_count=0,
            recovery_strategy=RecoveryStrategy.NONE,
            inversion_strategy=InversionStrategy.CHECKPOINT,
            needs_input_checkpoint=True,
            input_checkpoint_values=volume(layer.input_shape),
            notes=["pooling is non-invertible: input checkpoint stored"],
        )
