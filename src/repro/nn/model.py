"""Sequential model container."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.exceptions import NotBuiltError, ShapeError
from repro.nn.layers.base import Layer
from repro.nn.plan import (
    FusionCertificate,
    PlanLike,
    PlanStats,
    certify_fusion,
    compile_plan,
)
from repro.types import FLOAT_DTYPE, LayerSignature, Shape, ShapeLike, as_shape

__all__ = ["Sequential"]

#: Default maximum number of compiled forward plans cached per model (LRU).
#: Keys are ``(batch size, fused)``; offline evaluation touches the chunk
#: size plus one remainder, and the service's variable-occupancy batches
#: touch up to ``max_batch`` keys -- the registry raises the per-model
#: ``plan_cache_size`` accordingly when ``max_batch`` exceeds this default,
#: so the hot serving path never thrashes the cache.
PLAN_CACHE_SIZE = 8

#: Maximum retained fusion certificates per model, keyed by
#: ``(network weight fingerprint, batch size)``.  The memo lets a
#: fused plan recompiled after a bit-exact repair (or LRU eviction) reuse its
#: certification without re-running calibration: the weight fingerprint is the
#: same, so the certificate still applies.
FUSION_CERT_MEMO_SIZE = 64


class Sequential:
    """A linear stack of layers.

    Args:
        layers: Layers in execution order.
        name: Optional model name.

    The model must be built against a per-sample input shape before use, e.g.
    ``model.build((28, 28, 1))``.  Forward execution, training hooks, weight
    (de)serialization, per-layer intermediate capture (needed by MILR) and a
    Keras-style summary are provided.

    Inference runs through compiled forward plans (:mod:`repro.nn.plan`) by
    default: :meth:`predict` compiles one plan per ``(batch size, fused)``
    key, caches it, and transparently recompiles when any layer's weights
    change.  The planned forward is bit-identical to the layer-by-layer seed
    path (``use_plan=False``).
    """

    def __init__(self, layers: Optional[Iterable[Layer]] = None, name: str = "sequential"):
        self.name = name
        self.layers: list[Layer] = list(layers) if layers is not None else []
        self.built = False
        self._input_shape: Optional[Shape] = None
        #: Compiled forward plans keyed by ``(batch size, fused)``, LRU.
        self._plan_cache: "OrderedDict[tuple[int, bool], PlanLike]" = OrderedDict()
        #: Serializes plan compilation and scratch-buffer execution; plan
        #: buffers are shared state, so planned forwards on one model are
        #: mutually exclusive (the service already serializes per-model
        #: execution through the ManagedModel lock).
        self._plan_lock = threading.RLock()
        self._plan_stats = PlanStats()
        #: LRU capacity of the plan cache; raised by the service registry
        #: when ``ServiceConfig.max_batch`` exceeds the default.
        self.plan_cache_size = PLAN_CACHE_SIZE
        #: Names of layers that must not be folded into an adjacent matmul or
        #: consumed into a fused block -- maintained by the service registry
        #: (quarantined layers) under the model lock and re-checked live by
        #: the plan compiler at every consumption decision.
        self.fusion_blocklist: set[str] = set()
        #: Fusion certificates keyed by ``(weights digest, batch)``.
        self._fusion_cert_memo: "OrderedDict[tuple[bytes, int], FusionCertificate]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, layer: Layer) -> None:
        """Append ``layer`` to the stack (model must not be built yet)."""
        if self.built:
            raise NotBuiltError("cannot add layers to an already-built model")
        self.layers.append(layer)

    def build(self, input_shape: ShapeLike) -> "Sequential":
        """Build every layer against the per-sample ``input_shape``."""
        shape = as_shape(input_shape)
        self._input_shape = shape
        current = shape
        names: set[str] = set()
        for layer in self.layers:
            layer.build(current)
            current = layer.output_shape
            if layer.name in names:
                raise ShapeError(f"duplicate layer name {layer.name!r} in model {self.name!r}")
            names.add(layer.name)
        self.built = True
        return self

    @property
    def input_shape(self) -> Shape:
        if not self.built or self._input_shape is None:
            raise NotBuiltError(f"model {self.name!r} has not been built")
        return self._input_shape

    @property
    def output_shape(self) -> Shape:
        if not self.built or not self.layers:
            raise NotBuiltError(f"model {self.name!r} has not been built")
        return self.layers[-1].output_shape

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def predict(
        self,
        inputs: np.ndarray,
        training: bool = False,
        use_plan: bool = True,
        fused: bool = False,
    ) -> np.ndarray:
        """Run a full forward pass over a batch.

        Inference (``training=False``) executes through a cached compiled
        forward plan: precomputed im2col gather indices, preallocated scratch
        buffers, and no training bookkeeping.  The planned output is
        bit-identical to the layer-by-layer path, which remains reachable
        with ``use_plan=False`` (and is always used for ``training=True``).
        ``fused=True`` requests the certified-fused fast path: affine folds,
        im2col-free convs and chain fusion, served only when the network
        passes ULP certification at this batch size (see
        :meth:`predict_served`); uncertified networks silently fall back to
        the bit-exact plan.
        """
        outputs, _info = self.predict_served(
            inputs, training=training, use_plan=use_plan, fused=fused
        )
        return outputs

    def predict_served(
        self,
        inputs: np.ndarray,
        training: bool = False,
        use_plan: bool = True,
        fused: bool = False,
    ) -> tuple[np.ndarray, dict]:
        """:meth:`predict` plus serve attribution for the service runtime.

        Returns ``(outputs, info)`` where ``info`` carries:

        * ``mode`` -- ``"fused"`` (served through a ULP-certified fused
          plan), ``"exact"`` (bit-exact plan requested or used), ``"fallback"``
          (fused requested but the network is not certified at this batch
          size, so the bit-exact plan served), or ``"seed"`` (the
          layer-by-layer oracle path),
        * ``certificate`` -- the :class:`~repro.nn.plan.FusionCertificate`
          backing a fused serve (``None`` otherwise),
        * ``certified_now`` -- whether this call ran the calibration batch
          (certification cache miss), so callers can account its cost.

        A ``"fused"`` serve always carries a certificate that passed: the
        only way to a fused plan here is :meth:`_certified_fused_plan`.
        """
        if not self.built:
            raise NotBuiltError(f"model {self.name!r} has not been built")
        if training or not use_plan or not self.layers:
            outputs = np.asarray(inputs, dtype=FLOAT_DTYPE)
            for layer in self.layers:
                outputs = layer.forward(outputs, training=training)
            return outputs, {"mode": "seed", "certificate": None, "certified_now": False}
        inputs = np.ascontiguousarray(np.asarray(inputs, dtype=FLOAT_DTYPE))
        if inputs.shape[1:] != self.input_shape:
            raise ShapeError(
                f"model {self.name!r} expected per-sample shape "
                f"{self.input_shape}, got {inputs.shape[1:]}"
            )
        batch = inputs.shape[0]
        with self._plan_lock:
            mode = "exact"
            certificate: Optional[FusionCertificate] = None
            certified_now = False
            if fused:
                plan, certificate, certified_now = self._certified_fused_plan(batch)
                if plan is not None:
                    mode = "fused"
                else:
                    # Silent fallback: the network failed (or lost) its ULP
                    # certification at this batch size -- serve bit-exact.
                    mode = "fallback"
                    self._plan_stats.fallbacks += 1
                    plan = self._plan_for(batch, False)
            else:
                plan = self._plan_for(batch, False)
            if plan.scratch_guards:
                # Per-serve canary over pinned padding buffers: scratch faults
                # live outside the weights, so this is the only detector that
                # can see them (CheckpointStore cannot).  Healing is safe --
                # the interior is fully rewritten by the execute below.
                healed = plan.verify_scratch()
                if healed:
                    self._plan_stats.scratch_detections += healed
            outputs = plan.execute(inputs)
        return outputs, {
            "mode": mode,
            "certificate": certificate,
            "certified_now": certified_now,
        }

    def _certified_fused_plan(
        self, batch: int
    ) -> tuple[Optional[PlanLike], Optional[FusionCertificate], bool]:
        """Fused plan for ``batch`` if certified (caller holds the lock).

        Returns ``(plan, certificate, certified_now)``; ``plan`` is ``None``
        when the network is not certified at this batch size (caller falls
        back to the bit-exact plan).  Certification is lazy: the first fused
        request at a given ``(weight state, batch size)`` runs the seeded
        calibration batch through the fused and exact plans and caches the
        resulting certificate both on the plan and in the per-model memo, so
        bit-exact repairs and plan recompiles at an unchanged weight state
        never pay calibration again.
        """
        plan, was_hit = self._plan_lookup(batch, True)
        certificate = plan.certificate
        certified_now = False
        if certificate is None:
            memo_key = (plan.weights_digest, batch)
            certificate = self._fusion_cert_memo.get(memo_key)
            if certificate is None:
                exact_plan, _hit = self._plan_lookup(batch, False)
                certificate = certify_fusion(self, plan, exact_plan)
                self._plan_stats.certifications += 1
                certified_now = True
                self._fusion_cert_memo[memo_key] = certificate
                while len(self._fusion_cert_memo) > FUSION_CERT_MEMO_SIZE:
                    self._fusion_cert_memo.popitem(last=False)
            plan.certificate = certificate
        if not certificate.certified:
            return None, certificate, certified_now
        if was_hit:
            self._plan_stats.fused_hits += 1
        return plan, certificate, certified_now

    def __call__(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        return self.predict(inputs, training=training)

    # ------------------------------------------------------------------ #
    # Forward plans
    # ------------------------------------------------------------------ #
    @property
    def plan_stats(self) -> PlanStats:
        """Counters of the plan cache (compiles / fused and exact hits /
        fallbacks / invalidations / certifications)."""
        return self._plan_stats

    def _plan_lookup(self, batch_size: int, fused: bool) -> tuple[PlanLike, bool]:
        """Cached plan for ``(batch_size, fused)`` plus whether it was a cache
        hit (no counter side effects); caller holds the lock."""
        key = (batch_size, fused)
        plan = self._plan_cache.get(key)
        if plan is not None:
            if plan.epochs_current():
                self._plan_cache.move_to_end(key)
                return plan, True
            # Weights mutated since compile (injection, repair, training).
            self._plan_stats.invalidations += 1
        plan = compile_plan(self, batch_size, fused=fused)
        self._plan_stats.compiles += 1
        self._plan_cache[key] = plan
        self._plan_cache.move_to_end(key)
        while len(self._plan_cache) > self.plan_cache_size:
            self._plan_cache.popitem(last=False)
        return plan, False

    def _plan_for(self, batch_size: int, fused: bool) -> PlanLike:
        """Cached plan for ``(batch_size, fused)``, counting cache hits into
        the per-kind bucket; caller holds the lock."""
        plan, was_hit = self._plan_lookup(batch_size, fused)
        if was_hit:
            if fused:
                self._plan_stats.fused_hits += 1
            else:
                self._plan_stats.exact_hits += 1
        return plan

    def compile_plan(self, batch_size: int, fused: bool = False) -> PlanLike:
        """Compile (or fetch from cache) the plan for ``batch_size`` up front,
        so the first serving call does not pay the compile."""
        if not self.built:
            raise NotBuiltError(f"model {self.name!r} has not been built")
        with self._plan_lock:
            return self._plan_for(batch_size, bool(fused))

    def cached_plans(self) -> list[PlanLike]:
        """Snapshot of the currently cached compiled plans."""
        with self._plan_lock:
            return list(self._plan_cache.values())

    def invalidate_plans(self) -> int:
        """Drop every cached plan; returns how many were discarded."""
        with self._plan_lock:
            dropped = len(self._plan_cache)
            self._plan_cache.clear()
            self._plan_stats.invalidations += dropped
            return dropped

    def verify_cached_scratch(self) -> int:
        """Canary-check every cached plan's scratch borders; heal and count.

        The per-serve canary only covers the plan about to execute; with
        fused serving on, bit-exact plans (and fused plans for cold batch
        sizes) can sit in the cache carrying scratch dirt indefinitely.  The
        background scrubber sweeps them all through this method once per
        scrub cycle -- the border check is O(border) per buffer, so a full
        sweep costs well under a millisecond.
        """
        with self._plan_lock:
            healed = 0
            for plan in self._plan_cache.values():
                if plan.scratch_guards:
                    healed += plan.verify_scratch()
            if healed:
                self._plan_stats.scratch_detections += healed
            return healed

    def revalidate_plans(self) -> int:
        """Fingerprint-aware invalidation sweep.

        For every cached plan whose weight epochs went stale, compare the
        blake2b fingerprints captured at compile time against the live
        weights: byte-identical plans (weights restored exactly, e.g. by a
        bit-exact repair) are kept and re-armed, all others are dropped.
        Returns the number of plans invalidated.

        Fused plans kept by the sweep keep their attached
        :class:`~repro.nn.plan.FusionCertificate` -- the certificate is keyed
        to the compile-time weight fingerprint, which the sweep just proved
        unchanged -- so a bit-exact repair never forces re-certification.
        Dropped fused plans recompile lazily and reuse the per-model
        certificate memo when the weights return to a previously certified
        state.

        The sweep hashes each captured layer at most once, however many
        cached plans share it: one fingerprint memo serves every plan, and it
        lives only for this call, under the plan lock.
        """
        with self._plan_lock:
            dropped = 0
            fingerprints: dict = {}
            for key, plan in list(self._plan_cache.items()):
                if plan.epochs_current():
                    continue
                if plan.fingerprints_match(fingerprints):
                    plan.refresh_epochs()
                else:
                    del self._plan_cache[key]
                    dropped += 1
            self._plan_stats.invalidations += dropped
            return dropped

    def forward_collect(self, inputs: np.ndarray) -> list[np.ndarray]:
        """Run a forward pass and return every layer's output (in order).

        Element ``i`` of the returned list is the output of ``self.layers[i]``.
        MILR uses this to materialize golden inputs/outputs for each layer.
        """
        if not self.built:
            raise NotBuiltError(f"model {self.name!r} has not been built")
        outputs: list[np.ndarray] = []
        current = np.asarray(inputs, dtype=FLOAT_DTYPE)
        for layer in self.layers:
            current = layer.forward(current, training=False)
            outputs.append(current)
        return outputs

    def forward_from(self, inputs: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Run layers ``start`` (inclusive) through ``stop`` (exclusive)."""
        current = np.asarray(inputs, dtype=FLOAT_DTYPE)
        for layer in self.layers[start:stop]:
            current = layer.forward(current, training=False)
        return current

    def classify(self, inputs: np.ndarray) -> np.ndarray:
        """Return argmax class predictions for a batch."""
        return np.argmax(self.predict(inputs), axis=-1)

    def accuracy(self, inputs: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
        """Classification accuracy of the model on ``(inputs, labels)``."""
        labels = np.asarray(labels)
        correct = 0
        total = labels.shape[0]
        for start in range(0, total, batch_size):
            batch = inputs[start : start + batch_size]
            predictions = self.classify(batch)
            correct += int(np.sum(predictions == labels[start : start + batch_size]))
        return correct / max(total, 1)

    # ------------------------------------------------------------------ #
    # Weights
    # ------------------------------------------------------------------ #
    def get_weights(self) -> dict[str, np.ndarray]:
        """Return a name → parameter-array mapping for all parameterized layers."""
        return {
            layer.name: layer.get_weights() for layer in self.layers if layer.has_parameters
        }

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        """Load a mapping produced by :meth:`get_weights`."""
        for layer in self.layers:
            if layer.has_parameters and layer.name in weights:
                layer.set_weights(weights[layer.name])

    def parameter_count(self) -> int:
        """Total number of trainable parameters in the model."""
        return sum(layer.parameter_count for layer in self.layers)

    def parameter_bytes(self) -> int:
        """Total parameter size in bytes (float32 words)."""
        return self.parameter_count() * 4

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def layer_index(self, name: str) -> int:
        """Return the position of the layer called ``name``."""
        for index, layer in enumerate(self.layers):
            if layer.name == name:
                return index
        raise KeyError(f"no layer named {name!r} in model {self.name!r}")

    def get_layer(self, name: str) -> Layer:
        """Return the layer called ``name``."""
        return self.layers[self.layer_index(name)]

    def signatures(self) -> list[LayerSignature]:
        """Return static signatures of all layers (model must be built)."""
        return [layer.signature() for layer in self.layers]

    def summary(self) -> str:
        """Return a human readable architecture table (like Tables I-III)."""
        if not self.built:
            raise NotBuiltError(f"model {self.name!r} has not been built")
        lines = [f"Model: {self.name}", f"{'Layer':<28}{'Output Shape':<20}{'Trainable':>12}"]
        lines.append("-" * 60)
        for layer in self.layers:
            shape = str(layer.output_shape)
            lines.append(f"{layer.name:<28}{shape:<20}{layer.parameter_count:>12,}")
        lines.append("-" * 60)
        lines.append(f"Total trainable parameters: {self.parameter_count():,}")
        return "\n".join(lines)
