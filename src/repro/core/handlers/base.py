"""Layer-capability protection registry.

A :class:`LayerProtectionHandler` owns, for one layer *type*, everything MILR
needs across the whole stack:

* **planning** -- :meth:`~LayerProtectionHandler.plan` produces the
  :class:`~repro.core.planner.LayerPlan` (recovery / inversion strategy,
  checkpoint and dummy-data costs),
* **protection-state initialization** -- :meth:`~LayerProtectionHandler.probe`
  computes the detection reference (partial checkpoint) and
  :meth:`~LayerProtectionHandler.init_recovery_data` stores dummy outputs and
  CRC codes,
* **detection probing and weight localization**,
* **inversion** for backward recovery passes,
* **parameter solving** (``R(x, y) = p``),
* **bit-exact repair hooks** -- the self-contained bit-exact repair the
  service scrubber tries before any golden pass, the residual-guided sparse
  estimate, and the repair ordering rank (strategies in
  :mod:`repro.core.repair`).

The engines (:func:`~repro.core.planner.plan_model`,
:func:`~repro.core.initialization.build_checkpoint_store`,
:class:`~repro.core.detection.DetectionEngine`,
:class:`~repro.core.recovery.RecoveryEngine`,
:class:`~repro.service.scrubber.Scrubber`) dispatch exclusively through
:func:`handler_for`; adding a new protected layer type is one new handler
module plus ``@register_handler(NewLayer)`` -- no engine edits.

Layers without a registered handler raise
:class:`~repro.exceptions.UnsupportedLayerError` at planning time, unless they
declare themselves pass-through (``is_passthrough = True`` and no
parameters), in which case they plan as identity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Type

import numpy as np

from repro.exceptions import (
    CheckpointError,
    LayerConfigurationError,
    NotInvertibleError,
    RecoveryError,
    UnsupportedLayerError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.checkpoint import CheckpointStore
    from repro.core.config import MILRConfig
    from repro.core.planner import LayerPlan
    from repro.core.recovery import RecoveryEngine
    from repro.core.solvers import SolveResult
    from repro.nn.layers.base import Layer
    from repro.prng import SeededTensorGenerator

__all__ = [
    "DetectionInput",
    "LayerProtectionHandler",
    "PassthroughHandler",
    "CRCViewProtectionMixin",
    "HandlerRegistry",
    "registry",
    "register_handler",
    "handler_for",
    "volume",
    "crc_guided_view_repair",
]


def volume(shape: tuple[int, ...]) -> int:
    """Number of values in a tensor of ``shape`` (checkpoint-size accounting)."""
    size = 1
    for dim in shape:
        size *= dim
    return size

#: Regenerates the PRNG detection input for ``(layer_index, input_shape)``.
#: Initialization passes the raw generator; the detection engine passes its
#: memoizing variant so repeated sweeps share tensors.
DetectionInput = Callable[[int, tuple], np.ndarray]


class LayerProtectionHandler:
    """Per-layer-type MILR capability bundle (see module docstring).

    Handlers are stateless singletons: every method receives the layer
    instance (and its :class:`~repro.core.planner.LayerPlan`) explicitly, so
    one handler serves every layer of its type in every model.
    """

    #: Scrubber repair ordering: lower ranks heal first.  Rank 0 is for
    #: layers whose repair is fully self-contained (stored protection data
    #: only), rank 1 for solves independent of neighbouring layers, rank 2
    #: for repairs that travel golden activations through neighbours.
    repair_rank: int = 2

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan(self, layer: "Layer", index: int, config: "MILRConfig") -> "LayerPlan":
        """Produce the layer's MILR initialization plan."""
        raise NotImplementedError(f"{type(self).__name__} does not implement plan()")

    # ------------------------------------------------------------------ #
    # Initialization / detection probing
    # ------------------------------------------------------------------ #
    def probe(
        self,
        layer: "Layer",
        index: int,
        detection_input: DetectionInput,
        config: "MILRConfig",
    ) -> np.ndarray:
        """Compute the layer's detection values on its *current* parameters.

        Stored as the partial checkpoint at initialization (clean weights) and
        recomputed during every detection pass (live weights); a mismatch
        flags the layer as erroneous.
        """
        raise CheckpointError(f"layer {layer.name!r} does not take a partial checkpoint")

    def init_recovery_data(
        self,
        layer: "Layer",
        plan: "LayerPlan",
        golden_input: np.ndarray,
        store: "CheckpointStore",
        prng: "SeededTensorGenerator",
        config: "MILRConfig",
    ) -> None:
        """Store dummy outputs / CRC codes for the layer (default: nothing)."""

    # ------------------------------------------------------------------ #
    # Weight localization
    # ------------------------------------------------------------------ #
    def localizes_weights(self, layer: "Layer", plan: "LayerPlan") -> bool:
        """Whether a flagged layer gets a per-weight suspect mask."""
        return False

    def localize_suspects(
        self,
        layer: "Layer",
        plan: "LayerPlan",
        weights: np.ndarray,
        store: "CheckpointStore",
        config: "MILRConfig",
    ) -> np.ndarray:
        """Per-weight boolean suspect mask (same shape as ``weights``)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement weight localization"
        )

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def is_self_contained(self, layer: "Layer", plan: "LayerPlan") -> bool:
        """Whether the solve uses only stored data (no golden passes)."""
        return False

    def invert(
        self,
        layer: "Layer",
        plan: "LayerPlan",
        outputs: np.ndarray,
        store: "CheckpointStore",
        prng: "SeededTensorGenerator",
    ) -> np.ndarray:
        """Reconstruct the layer's input from its output (backward pass)."""
        raise NotInvertibleError(
            f"layer {layer.name!r} ({plan.kind}) is not invertible; recovery must use "
            "its stored input checkpoint"
        )

    def solve(
        self,
        layer: "Layer",
        plan: "LayerPlan",
        golden_input: Optional[np.ndarray],
        golden_output: Optional[np.ndarray],
        store: "CheckpointStore",
        prng: "SeededTensorGenerator",
        suspect_mask: Optional[np.ndarray] = None,
    ) -> "SolveResult":
        """Solve ``R(x, y) = p`` for the layer parameters."""
        raise RecoveryError(
            f"layer {layer.name!r} has no parameter-solving strategy "
            f"({plan.recovery_strategy})"
        )

    # ------------------------------------------------------------------ #
    # Bit-exact repair chain hooks
    # ------------------------------------------------------------------ #
    def checkpoint_free_repair(
        self,
        layer: "Layer",
        plan: "LayerPlan",
        corrupted: np.ndarray,
        golden_fingerprint: bytes,
        store: "CheckpointStore",
        milr_config: "MILRConfig",
    ) -> Optional[np.ndarray]:
        """Bit-exact repair from the layer's own stored protection data.

        Runs before any golden pass, so it works even while neighbouring
        layers are corrupted.  Returns the *fingerprint-verified* golden
        array, or ``None`` when the stored data cannot explain the corruption.
        """
        return None

    def residual_repair_estimate(
        self,
        layer: "Layer",
        plan: "LayerPlan",
        corrupted: np.ndarray,
        engine: "RecoveryEngine",
    ) -> Optional[np.ndarray]:
        """Residual-guided sparse estimate from golden checkpoint passes.

        Returns a complete estimate (every suspect residual explained) for
        the snap refinement to upgrade to bit-exact, or ``None`` to fall
        through to the plain MILR solver path.
        """
        return None


def _crc_codec(config: "MILRConfig"):
    """The 2-D CRC codec configured by ``config`` (cheap to construct)."""
    from repro.crc.twod import TwoDimensionalCRC

    return TwoDimensionalCRC(group_size=config.crc_group_size, crc_bits=config.crc_bits)


def crc_guided_view_repair(
    plan: "LayerPlan",
    corrupted: np.ndarray,
    view_shape: tuple[int, int, int, int],
    golden_fingerprint: bytes,
    store: "CheckpointStore",
    milr_config: "MILRConfig",
) -> Optional[np.ndarray]:
    """Shared bit-exact repair from stored 2-D CRC codes on a 4-D weight view.

    Conv-style handlers store their codes over a ``(F1, F2, Z, Y)`` view of
    the parameters; this helper replays
    :func:`~repro.core.repair.crc_guided_kernel_repair` on that view and
    returns the repaired array (in the layer's own shape) only when the
    final localization is clean *and* the golden fingerprint confirms.
    """
    if plan.index not in store.crc_codes:
        return None
    from repro.core.checkpoint import weight_fingerprint
    from repro.core.repair import crc_guided_kernel_repair

    repaired_view, complete = crc_guided_kernel_repair(
        np.ascontiguousarray(corrupted).reshape(view_shape),
        store.crc_codes_for(plan.index),
        _crc_codec(milr_config),
    )
    repaired = repaired_view.reshape(corrupted.shape)
    if complete and weight_fingerprint(repaired) == golden_fingerprint:
        return repaired
    return None


class CRCViewProtectionMixin:
    """Shared CRC machinery for handlers storing codes on a 4-D weight view.

    Layer types whose parameters are not natively ``(F1, F2, Z, Y)`` kernels
    (batch-norm ``(2, C)`` matrices, depthwise ``(F1, F2, C)`` kernels) reuse
    the batched 2-D CRC pipeline by declaring a 4-D view of their weights via
    :meth:`crc_view_shape`; encoding, localization and the CRC-guided
    bit-exact repair then come for free from this mixin.
    """

    def crc_view_shape(self, weights: np.ndarray) -> tuple[int, int, int, int]:
        """The ``(F1, F2, Z, Y)`` view the CRC codes are computed over."""
        raise NotImplementedError

    def store_crc_codes(
        self,
        weights: np.ndarray,
        plan: "LayerPlan",
        store: "CheckpointStore",
        config: "MILRConfig",
    ) -> None:
        """Encode the view and store codes + the code-version fingerprint."""
        from repro.core.checkpoint import weight_fingerprint

        view = np.ascontiguousarray(weights).reshape(self.crc_view_shape(weights))
        store.crc_codes[plan.index] = _crc_codec(config).encode_kernel(view)
        store.crc_weight_fingerprints[plan.index] = weight_fingerprint(weights)

    def localizes_weights(self, layer: "Layer", plan: "LayerPlan") -> bool:
        return plan.stores_crc_codes

    def localize_suspects(
        self,
        layer: "Layer",
        plan: "LayerPlan",
        weights: np.ndarray,
        store: "CheckpointStore",
        config: "MILRConfig",
    ) -> np.ndarray:
        view = np.ascontiguousarray(weights).reshape(self.crc_view_shape(weights))
        mask = _crc_codec(config).localize_kernel(view, store.crc_codes_for(plan.index))
        return mask.reshape(weights.shape)

    def checkpoint_free_repair(
        self,
        layer: "Layer",
        plan: "LayerPlan",
        corrupted: np.ndarray,
        golden_fingerprint: bytes,
        store: "CheckpointStore",
        milr_config: "MILRConfig",
    ) -> Optional[np.ndarray]:
        return crc_guided_view_repair(
            plan,
            corrupted,
            self.crc_view_shape(corrupted),
            golden_fingerprint,
            store,
            milr_config,
        )


class PassthroughHandler(LayerProtectionHandler):
    """Identity plan for parameter-free layers MILR can skip entirely.

    Used for every layer that declares ``is_passthrough = True`` without a
    registered handler of its own, and as the base for the activation /
    dropout / input-layer handlers.
    """

    def plan(self, layer: "Layer", index: int, config: "MILRConfig") -> "LayerPlan":
        from repro.core.planner import InversionStrategy, LayerPlan, RecoveryStrategy

        return LayerPlan(
            index=index,
            name=layer.name,
            kind=type(layer).__name__,
            parameter_count=0,
            recovery_strategy=RecoveryStrategy.NONE,
            inversion_strategy=InversionStrategy.IDENTITY,
        )


class HandlerRegistry:
    """Maps layer types to their protection handlers (MRO-aware)."""

    def __init__(self):
        self._handlers: dict[type, LayerProtectionHandler] = {}
        self._passthrough = PassthroughHandler()

    def register(self, layer_type: Type, handler: LayerProtectionHandler) -> None:
        """Bind ``handler`` to ``layer_type`` (and, via MRO, its subclasses).

        A type can only be bound once: silently replacing another module's
        handler would drop that layer type's protection logic with nothing
        surfaced until recovery misbehaves.
        """
        existing = self._handlers.get(layer_type)
        if existing is not None and existing is not handler:
            raise LayerConfigurationError(
                f"layer type {layer_type.__name__} already has protection handler "
                f"{type(existing).__name__}; refusing to replace it with "
                f"{type(handler).__name__}"
            )
        self._handlers[layer_type] = handler

    def registered_types(self) -> list[type]:
        """The explicitly registered layer types (introspection / tests)."""
        return list(self._handlers)

    def handler_for(
        self, layer: "Layer", index: Optional[int] = None
    ) -> LayerProtectionHandler:
        """Resolve the handler for ``layer``.

        Walks the layer's MRO so subclasses inherit their base type's
        handler (e.g. ``MaxPool2D`` / ``AvgPool2D`` via ``_Pool2D``).
        Unregistered pass-through layers fall back to the identity plan;
        anything else is a hard error naming the layer.
        """
        for klass in type(layer).__mro__:
            handler = self._handlers.get(klass)
            if handler is not None:
                return handler
        passthrough = getattr(layer, "is_passthrough", False)
        parameterized = getattr(layer, "has_parameters", False)
        if passthrough and not parameterized:
            return self._passthrough
        where = "" if index is None else f" at layer index {index}"
        if passthrough:
            hint = (
                "the layer declares is_passthrough but owns parameters, which "
                "MILR cannot protect without a handler; register a "
                "LayerProtectionHandler for the type"
            )
        else:
            hint = (
                "register a LayerProtectionHandler for the type or declare the "
                "layer pass-through (is_passthrough = True and no parameters)"
            )
        raise UnsupportedLayerError(
            f"no protection handler registered for layer {layer.name!r} "
            f"(type {type(layer).__name__}){where}; {hint}"
        )


#: The process-wide registry every MILR engine dispatches through.
registry = HandlerRegistry()


def register_handler(*layer_types: Type):
    """Class decorator: instantiate the handler and register it for the types.

    ::

        @register_handler(Dense)
        class DenseProtectionHandler(LayerProtectionHandler):
            ...
    """

    def decorate(handler_class: Type[LayerProtectionHandler]):
        handler = handler_class()
        for layer_type in layer_types:
            registry.register(layer_type, handler)
        return handler_class

    return decorate


def handler_for(layer: "Layer", index: Optional[int] = None) -> LayerProtectionHandler:
    """Module-level convenience for :meth:`HandlerRegistry.handler_for`."""
    return registry.handler_for(layer, index=index)
