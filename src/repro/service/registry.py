"""Model registry: protected models plus their live serving state.

A :class:`ManagedModel` bundles everything the runtime needs to serve one
model under fault pressure: the model itself, its initialized
:class:`~repro.core.protector.MILRProtector`, a lock that serializes
weight-coherent operations (batch execution, detection slices, recovery,
fault injection), the quarantine set of layers with detected-but-unrecovered
errors, and an :class:`~repro.service.sla.SLATracker`.

Quarantine is the serving contract: while any layer of a model is
quarantined, inference workers for that model wait on the health condition
instead of executing batches, so no request is ever answered by a forward
pass through a layer known to be corrupted.  Models are independent -- a
quarantined model never blocks the others in the registry.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import Iterable, Iterator, Optional

from repro.core.config import MILRConfig
from repro.core.protector import MILRProtector
from repro.exceptions import ExperimentError
from repro.nn.model import Sequential
from repro.obs.telemetry import Telemetry
from repro.service.config import ServiceConfig
from repro.service.sla import SLATracker

__all__ = ["RequestStats", "ManagedModel", "ModelRegistry"]


@dataclass
class RequestStats:
    """Aggregate per-model request accounting (guarded by the model lock)."""

    requests_completed: int = 0
    requests_failed: int = 0
    batches_executed: int = 0
    total_latency_seconds: float = 0.0
    max_latency_seconds: float = 0.0
    #: Samples computed by batch execution (= requests in the batch; batches
    #: run at their actual occupancy, never padded).
    samples_served: int = 0
    #: Cached forward plans invalidated by the fingerprint revalidation sweep
    #: that runs when quarantine is lifted (weights changed under the plan and
    #: were not restored byte-identically at compile-time values).
    plan_invalidations: int = 0
    #: Requests that executed while the quarantine set was non-empty.  The
    #: runtime's invariant is that this stays zero; it is counted (rather than
    #: asserted) so violations are observable in production.
    served_during_quarantine: int = 0
    #: Requests answered through a ULP-certified fused plan.
    fused_served: int = 0
    #: Requests that asked for the fused plan but were served bit-exact
    #: because the network is not certified at that batch size.
    fused_fallbacks: int = 0
    #: Fusion calibration runs paid by the serve path (certification cache
    #: misses; each one ran the seeded calibration batch through both plans).
    fusion_certifications: int = 0
    #: Requests rejected at admission because the bounded queue was full.
    shed_queue_full: int = 0
    #: Requests rejected at admission by an open circuit breaker.
    shed_breaker: int = 0
    #: Admitted requests dropped before compute because their deadline had
    #: already passed when their batch was cut.
    shed_deadline: int = 0
    #: Requests that completed while the model carried degraded layers
    #: (best-effort weights released after exhausted recovery attempts).
    served_degraded: int = 0
    #: High-water mark of the request queue depth observed at admission.
    #: With ``ServiceConfig.max_queue_depth`` set this never exceeds the
    #: bound -- the chaos harness's bounded-memory check.
    queue_depth_highwater: int = 0

    @property
    def requests_shed(self) -> int:
        """Total load-shedding actions (queue-full + breaker + deadline)."""
        return self.shed_queue_full + self.shed_breaker + self.shed_deadline

    @property
    def mean_latency_seconds(self) -> float:
        if self.requests_completed == 0:
            return 0.0
        return self.total_latency_seconds / self.requests_completed


class ManagedModel:
    """One protected model registered with the service runtime."""

    def __init__(
        self,
        name: str,
        model: Sequential,
        protector: MILRProtector,
        tracker: Optional[SLATracker] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if not protector.initialized:
            raise ExperimentError(
                f"model {name!r} must have an initialized MILRProtector"
            )
        self.name = name
        self.model = model
        self.protector = protector
        self.tracker = tracker or SLATracker(name, model.parameter_bytes())
        #: Shared telemetry facade (owned by the registry); ``None`` keeps
        #: every hook in this class a no-op.
        self.telemetry = telemetry
        #: Serializes weight-coherent operations on this model.
        self.lock = threading.RLock()
        self._healthy = threading.Condition(self.lock)
        self._quarantined: set[int] = set()
        #: Every layer index that was ever quarantined (detection ground truth
        #: for soak harnesses; never cleared).
        self.ever_quarantined: set[int] = set()
        #: Quarantined layers with a recovery job already dispatched.
        self.dispatched: set[int] = set()
        #: Consecutive failed recovery attempts per quarantined layer.
        self.recovery_attempts: dict[int, int] = {}
        #: Layers released in degraded state (best-effort weights that still
        #: fail detection), keyed to the weight fingerprint that was accepted;
        #: a later fault changes the fingerprint and re-opens recovery.
        self.degraded: dict[int, bytes] = {}
        #: The stored (corrupted) bits a degraded layer had before its failed
        #: recovery -- preserved so a later re-opened repair can still reach
        #: the golden words by bit-flip search.
        self.degraded_originals: dict[int, "object"] = {}
        self.stats = RequestStats()
        #: Per-model circuit breaker (armed by ``ServiceConfig.breaker_enabled``
        #: at registration; ``None`` keeps admission breaker-free).
        self.breaker: Optional["object"] = None
        #: Bit-exact repairs per layer index (bumped by the scrubber).
        self.repair_counts: dict[int, int] = {}
        #: Per-layer repeat-offender tally: how many bit-exact repairs have
        #: corrected each specific memory cell ``(word index, bit position)``.
        self.offender_counts: dict[int, dict[tuple[int, int], int]] = {}
        #: Cells promoted to stuck-at hardware: layer index -> flat word
        #: index -> golden uint32 word, rewritten by the scrubber's remap pass.
        self.blacklisted_cells: dict[int, dict[int, int]] = {}
        #: Repairs performed by the remap pass (golden-word rewrites of
        #: blacklisted cells, without a full detection cycle).
        self.remap_repairs: int = 0
        assert protector.plan is not None
        self.parameterized_indices: list[int] = [
            plan.index for plan in protector.plan.parameterized_layers()
        ]

    @property
    def blacklisted_cell_count(self) -> int:
        """Total number of memory words blacklisted as stuck-at hardware."""
        with self.lock:
            return sum(len(cells) for cells in self.blacklisted_cells.values())

    # ------------------------------------------------------------------ #
    # Quarantine management
    # ------------------------------------------------------------------ #
    @property
    def quarantined(self) -> set[int]:
        """Snapshot of the quarantined layer indices."""
        with self.lock:
            return set(self._quarantined)

    @property
    def quarantine_depth(self) -> int:
        """Number of quarantined layers, read without taking :attr:`lock`.

        The count may be momentarily stale; admission shedding uses it so a
        submit never waits behind a batch forward or a recovery job.
        """
        return len(self._quarantined)

    def quarantine(self, layer_indices: Iterable[int]) -> None:
        """Mark layers as known-corrupted; serving pauses until they heal."""
        indices = set(layer_indices)
        if not indices:
            return
        with self.lock:
            if not self._quarantined:
                self.tracker.mark_unavailable()
            fresh = indices - self._quarantined
            self._quarantined.update(indices)
            self.ever_quarantined.update(indices)
            # Mirror the quarantine set onto the model's fusion blocklist:
            # the plan compiler re-reads it at every consumption decision, so
            # a layer quarantined mid-compile is never folded into a matmul
            # kernel or consumed into a fused block.
            self.model.fusion_blocklist.update(
                self.model.layers[index].name
                for index in indices
                if 0 <= index < len(self.model.layers)
            )
            telemetry = self.telemetry
            if telemetry is not None and telemetry.enabled and fresh:
                now = time.perf_counter()
                for index in sorted(fresh):
                    telemetry.quarantine_opened(self.name, index, now)
                telemetry.metrics.gauge(
                    "repro_quarantined_layers", model=self.name
                ).set(len(self._quarantined))

    def clear_quarantine(self, layer_indices: Iterable[int]) -> None:
        """Lift quarantine from recovered layers; wakes waiting workers.

        Lifting quarantine is the single chokepoint every weight-mutating
        maintenance path (repair, degraded release, re-opened repair) goes
        through, so it also runs the fingerprint-aware plan revalidation:
        cached forward plans whose compile-time blake2b weight fingerprints
        still match the live weights (bit-exact repair restored the golden
        bytes) are kept, all others are dropped and recompiled by the worker
        under this same per-model lock on the next batch.
        """
        indices = set(layer_indices)
        with self.lock:
            lifted = indices & self._quarantined
            self._quarantined.difference_update(indices)
            self.model.fusion_blocklist.difference_update(
                self.model.layers[index].name
                for index in indices
                if 0 <= index < len(self.model.layers)
            )
            if indices:
                self.stats.plan_invalidations += self.model.revalidate_plans()
            telemetry = self.telemetry
            if telemetry is not None and telemetry.enabled and lifted:
                now = time.perf_counter()
                for index in sorted(lifted):
                    telemetry.quarantine_closed(self.name, index, now)
                telemetry.metrics.gauge(
                    "repro_quarantined_layers", model=self.name
                ).set(len(self._quarantined))
            if not self._quarantined:
                self.tracker.mark_available()
                self._healthy.notify_all()

    def is_healthy(self) -> bool:
        with self.lock:
            return not self._quarantined

    def wait_healthy(self, timeout: Optional[float] = None) -> bool:
        """Block until the quarantine set is empty (or the timeout expires).

        Must be called while holding :attr:`lock`; waiting releases the lock
        so the scrubber's recovery job can heal the model.
        """
        return self._healthy.wait_for(lambda: not self._quarantined, timeout=timeout)


class ModelRegistry:
    """Name-keyed collection of managed models."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        #: One telemetry facade per registry, shared by every managed model
        #: and by the engine/scrubber/driver built on top of this registry.
        self.telemetry = Telemetry(self.config.telemetry)
        self._lock = threading.Lock()
        self._models: dict[str, ManagedModel] = {}

    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        model: Sequential,
        milr_config: Optional[MILRConfig] = None,
        protector: Optional[MILRProtector] = None,
    ) -> ManagedModel:
        """Wrap a built model (initializing MILR protection if needed).

        When the registry initializes the protector itself, it upgrades the
        MILR config so every convolution layer stores 2-D CRC codes
        (``MILRConfig.always_store_conv_crc``): the codes make conv repair
        self-contained, so a corrupted conv/bias pair cannot deadlock each
        other's recovery.  An already-initialized ``protector`` is taken
        as-is.
        """
        if protector is None:
            milr_config = dataclass_replace(
                milr_config or MILRConfig(), always_store_conv_crc=True
            )
            protector = MILRProtector(model, milr_config)
        if not protector.initialized:
            protector.initialize()
        # Variable-occupancy serving compiles two forward plans per batch
        # size (fused + the bit-exact certification reference) for sizes
        # 1..max_batch plus evaluation chunk sizes: make sure the model's plan
        # LRU can hold them all so the hot path never thrashes.
        plans_needed = 2 * (self.config.max_batch + 2)
        model.plan_cache_size = max(model.plan_cache_size, plans_needed)
        entry = ManagedModel(name, model, protector, telemetry=self.telemetry)
        if self.config.breaker_enabled:
            from repro.service.breaker import CircuitBreaker

            # Seeded per model name so a scenario's breaker jitter sequence
            # is reproducible regardless of registration order.
            entry.breaker = CircuitBreaker(
                name,
                self.config,
                seed=zlib.crc32(name.encode("utf-8")),
                telemetry=self.telemetry,
            )
        with self._lock:
            if name in self._models:
                raise ExperimentError(f"model {name!r} is already registered")
            self._models[name] = entry
        return entry

    def load(
        self,
        network_name: str,
        name: Optional[str] = None,
        trained: bool = False,
        milr_config: Optional[MILRConfig] = None,
        **train_kwargs,
    ) -> ManagedModel:
        """Build (or load from the weight cache) a zoo network and register it.

        With ``trained=True`` the weights come from
        :func:`~repro.experiments.model_provider.get_trained_network` (training
        on a cache miss); otherwise the freshly initialized network is used,
        which is sufficient for protection/soak mechanics.
        """
        from repro.zoo import network_table

        specs = network_table()
        if network_name not in specs:
            raise ExperimentError(
                f"unknown network {network_name!r}; available: {sorted(specs)}"
            )
        if trained:
            from repro.experiments.model_provider import get_trained_network

            model = get_trained_network(network_name, **train_kwargs).model
        else:
            model = specs[network_name].builder()
        return self.register(name or network_name, model, milr_config=milr_config)

    # ------------------------------------------------------------------ #
    def get(self, name: str) -> ManagedModel:
        with self._lock:
            try:
                return self._models[name]
            except KeyError as exc:
                raise ExperimentError(f"no model registered as {name!r}") from exc

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def unregister(self, name: str) -> None:
        with self._lock:
            self._models.pop(name, None)

    def __iter__(self) -> Iterator[ManagedModel]:
        with self._lock:
            entries = list(self._models.values())
        return iter(entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models
