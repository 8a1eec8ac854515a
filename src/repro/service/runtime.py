"""Self-healing inference service facade and the soak harness.

:class:`SelfHealingService` wires the registry, the batching inference
engine and the background scrubber together behind a small lifecycle API::

    service = SelfHealingService()
    service.load_model("mnist_reduced")
    service.start()
    request = service.submit("mnist_reduced", sample)
    # Pick the timeout your deployment needs (the serve CLI exposes it as
    # --request-timeout); there is no magic per-request default.
    probabilities = request.result(timeout=30.0)
    ...
    service.stop()

:func:`run_soak` is the headless fault-pressure scenario shared by the
``repro soak`` CLI command, the end-to-end tests and the example script: it
serves continuous synthetic traffic while a Poisson driver flips bits in the
live weights, then drains, verifies bit-exact restoration against a golden
snapshot, and reports the live availability figures (the paper's Fig. 12
counterpart measured instead of assumed).  Passing a
:class:`~repro.service.traffic.TrafficShape` replaces the legacy
fixed-interval loop with deterministic trace replay (bursts, diurnal curves,
multi-model mixes, stragglers); :func:`run_chaos_scenario` wraps that in the
named production-shape scenarios of
:data:`~repro.service.traffic.CHAOS_SCENARIOS` and judges the outcome
against an SLO.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.core.config import MILRConfig
from repro.exceptions import ExperimentError, ServiceOverloadError
from repro.nn.model import Sequential
from repro.service.config import ServiceConfig
from repro.service.engine import InferenceEngine, InferenceRequest
from repro.service.pressure import FaultEvent, FaultPressureDriver
from repro.service.registry import ManagedModel, ModelRegistry
from repro.service.scrubber import Scrubber
from repro.service.sla import SLAReport, SLOReport
from repro.service.traffic import CHAOS_SCENARIOS, TrafficShape
from repro.types import FLOAT_DTYPE

__all__ = [
    "SelfHealingService",
    "SoakResult",
    "ChaosRunResult",
    "run_soak",
    "run_chaos_scenario",
    "calibrate_capacity",
    "latency_percentile",
]


class SelfHealingService:
    """Protected models + batching inference + background scrubbing."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.registry = ModelRegistry(self.config)
        self.engine = InferenceEngine(self.registry, self.config)
        self.scrubber = Scrubber(self.registry, self.config)
        self._started = False

    @property
    def telemetry(self):
        """The registry-owned :class:`~repro.obs.telemetry.Telemetry` facade."""
        return self.registry.telemetry

    # ------------------------------------------------------------------ #
    # Model management
    # ------------------------------------------------------------------ #
    def add_model(
        self,
        name: str,
        model: Sequential,
        milr_config: Optional[MILRConfig] = None,
    ) -> ManagedModel:
        """Register (and protect) an already-built model."""
        entry = self.registry.register(name, model, milr_config=milr_config)
        if self._started:
            self.engine.add_worker(entry)
        return entry

    def load_model(
        self,
        network_name: str,
        name: Optional[str] = None,
        trained: bool = False,
        milr_config: Optional[MILRConfig] = None,
        **train_kwargs,
    ) -> ManagedModel:
        """Load a zoo network (optionally trained) into the registry."""
        entry = self.registry.load(
            network_name,
            name=name,
            trained=trained,
            milr_config=milr_config,
            **train_kwargs,
        )
        if self._started:
            self.engine.add_worker(entry)
        return entry

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        return self._started

    def start(self, scrub: bool = True) -> None:
        """Start serving (and, unless disabled, background scrubbing)."""
        if self._started:
            return
        self.engine.start()
        if scrub:
            self.scrubber.start()
        self._started = True

    def stop(self) -> None:
        if not self._started:
            return
        self.scrubber.stop()
        self.engine.stop()
        self._started = False

    def __enter__(self) -> "SelfHealingService":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def submit(
        self,
        model_name: str,
        sample: np.ndarray,
        deadline_seconds: Optional[float] = None,
    ) -> InferenceRequest:
        """Queue one sample for prediction (optionally with a deadline)."""
        return self.engine.submit(model_name, sample, deadline_seconds)

    def predict(
        self, model_name: str, samples: np.ndarray, timeout: float = 30.0
    ) -> np.ndarray:
        """Synchronous convenience: submit every row and gather the results."""
        requests = [self.submit(model_name, sample) for sample in samples]
        return np.stack([request.result(timeout=timeout) for request in requests])

    # ------------------------------------------------------------------ #
    # Maintenance and reporting
    # ------------------------------------------------------------------ #
    def scrub_now(self, model_name: Optional[str] = None) -> None:
        """Run one synchronous detection sweep (all models by default)."""
        if model_name is None:
            self.scrubber.scrub_all()
        else:
            self.scrubber.scrub_model(self.registry.get(model_name))

    def sla_report(
        self,
        model_name: str,
        scrub_period_seconds: Optional[float] = None,
        error_interval_seconds: Optional[float] = None,
    ) -> SLAReport:
        entry = self.registry.get(model_name)
        return entry.tracker.report(
            scrub_period_seconds or self.config.scrub_period_seconds,
            error_interval_seconds=error_interval_seconds,
        )

    def sla_reports(self) -> list[SLAReport]:
        return [self.sla_report(name) for name in self.registry.names()]


# ---------------------------------------------------------------------- #
# Soak harness
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SoakResult:
    """Outcome of one :func:`run_soak` scenario."""

    network: str
    duration_seconds: float
    fault_events: tuple[FaultEvent, ...]
    #: Layers the driver actually corrupted (ground truth).
    injected_layers: frozenset[int]
    #: Layers the scrubber ever quarantined (detection coverage).
    detected_layers: frozenset[int]
    requests_completed: int
    requests_failed: int
    served_during_quarantine: int
    #: Forward plans invalidated while serving (stale-epoch recompiles after
    #: injections/repairs plus fingerprint-sweep drops at quarantine lift).
    plan_invalidations: int
    throughput_rps: float
    mean_latency_seconds: float
    p50_latency_seconds: float
    p99_latency_seconds: float
    #: Whether every parameterized layer ended bit-identical to its golden
    #: pre-soak weights.
    bit_exact: bool
    #: Whether the post-soak drain reached two consecutive clean detections.
    converged: bool
    #: Dirty plan scratch buffers caught (and healed) by the per-serve canary
    #: -- the only detector that sees activation/scratch corruption.
    scratch_detections: int
    #: Samples served through a ULP-certified fused plan.
    fused_served: int
    #: Fused batches that fell back to the bit-exact plan (certification
    #: failed or lapsed at that batch size).
    fused_fallbacks: int
    #: Blacklisted stuck-at cells healed by the scrubber's remap pass.
    remap_repairs: int
    #: Memory cells blacklisted as repeat offenders during the soak.
    blacklisted_cells: int
    sla: SLAReport
    #: Exceptions raised by the background traffic thread, as
    #: ``"TypeName: message"`` strings.  Empty on a clean run -- a submission
    #: crash used to die silently inside the daemon thread and read as a
    #: mysteriously idle soak.
    errors: tuple = ()
    #: Correlated fault-lifecycle chain summaries
    #: (:class:`~repro.obs.lifecycle.FaultChainSummary`) exported by the
    #: telemetry layer; empty when telemetry is disabled.
    fault_chains: tuple = ()
    #: Requests shed by overload protection, by reason.
    shed_queue_full: int = 0
    shed_breaker: int = 0
    shed_deadline: int = 0
    #: Requests answered while the model carried degraded (inexact) layers.
    served_degraded: int = 0
    #: Deepest the bounded queue ever got (memory-bound witness).
    queue_depth_highwater: int = 0
    #: Circuit-breaker trips (0 with the breaker disabled).
    breaker_opens: int = 0
    #: Request-level SLO snapshot of the primary model (None on legacy runs
    #: predating the chaos harness fields).
    slo: Optional[SLOReport] = None

    @property
    def requests_shed(self) -> int:
        return self.shed_queue_full + self.shed_breaker + self.shed_deadline

    @property
    def all_errors_detected(self) -> bool:
        """Every corrupted layer was eventually flagged by the scrubber."""
        return self.injected_layers <= self.detected_layers

    def as_row(self) -> dict[str, object]:
        return {
            "network": self.network,
            "duration_s": self.duration_seconds,
            "faults": len(self.fault_events),
            "detected": self.all_errors_detected,
            "bit_exact": self.bit_exact,
            "requests": self.requests_completed,
            "rps": self.throughput_rps,
            "plan_invalidations": self.plan_invalidations,
            "p99_ms": self.p99_latency_seconds * 1e3,
            "scratch_detections": self.scratch_detections,
            "fused_served": self.fused_served,
            "remap_repairs": self.remap_repairs,
            "blacklisted_cells": self.blacklisted_cells,
            "availability": self.sla.availability,
            "min_accuracy": self.sla.minimum_accuracy,
            "observed_avail": self.sla.observed_availability,
            "shed": self.requests_shed,
            "served_degraded": self.served_degraded,
        }


def latency_percentile(latencies: "list[float]", q: float) -> float:
    """Percentile ``q`` (0-100) of a latency sample list.

    Edge cases are explicit rather than delegated: an empty sample has no
    percentiles and returns 0.0 (so reports of an idle service read as zero
    latency, not NaN), and a single sample is every percentile of itself.
    Larger samples use numpy's default linear interpolation between the two
    nearest order statistics -- e.g. the p50 of ``[1.0, 2.0]`` is 1.5, not
    either endpoint.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not latencies:
        return 0.0
    if len(latencies) == 1:
        return float(latencies[0])
    return float(np.percentile(np.asarray(latencies), q))


def run_soak(
    network: str = "mnist_reduced",
    duration_seconds: float = 3.0,
    mean_fault_interval_seconds: float = 0.15,
    max_fault_events: Optional[int] = None,
    scrub_period_seconds: float = 0.1,
    request_interval_seconds: float = 0.002,
    trained: bool = False,
    seed: int = 0,
    service_config: Optional[ServiceConfig] = None,
    drain_timeout_seconds: float = 60.0,
    milr_config: Optional[MILRConfig] = None,
    fault_layer_indices: Optional[Sequence[int]] = None,
    fault_models: Optional[object] = None,
    reassert_interval_seconds: float = 0.2,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    traffic: Optional[TrafficShape] = None,
) -> SoakResult:
    """Serve continuous traffic under Poisson bit-flip pressure, then drain.

    The scenario: one protected model serves synthetic single-sample traffic
    through the batching engine while a :class:`FaultPressureDriver` corrupts
    live weights and the scrubber detects/quarantines/recovers in the
    background.  After ``duration_seconds`` (or ``max_fault_events``) the
    driver stops, the service drains until two consecutive full detection
    passes come back clean, and the final weights are compared bit-for-bit
    against a golden pre-soak snapshot.

    ``fault_models`` switches the driver to mixed-model zoo pressure: a
    mapping of fault-model name to arrival weight (or a plain sequence of
    names for equal weights); persistent models re-assert their standing
    faults every ``reassert_interval_seconds`` while the driver runs.

    ``trace_out`` writes the retained telemetry spans (fault-lifecycle
    chains, serve batches, scrub slices) to a JSONL file when the soak ends;
    ``metrics_out`` appends one metrics snapshot line roughly every second
    while the soak runs (so ``repro telemetry`` can watch it live) plus a
    final snapshot.  Both are no-ops with telemetry disabled.

    ``traffic`` replaces the legacy fixed-interval request loop with
    deterministic trace replay of a :class:`TrafficShape`: the shape expands
    once (seeded) into arrival offsets, per-arrival model routing and
    slow-client result delays, and the replay thread submits each arrival at
    its offset -- falling behind shifts later arrivals rather than dropping
    them.  Requests shed by overload protection are counted, not errors.
    """
    if duration_seconds <= 0:
        raise ExperimentError("duration_seconds must be positive")
    config = service_config or ServiceConfig()
    config = replace(config, scrub_period_seconds=scrub_period_seconds)
    service = SelfHealingService(config)
    entry = service.load_model(network, trained=trained, milr_config=milr_config)

    golden = {
        index: entry.model.layers[index].get_weights()
        for index in entry.parameterized_indices
    }

    # Synthetic request traffic: a small pool of PRNG samples reused
    # round-robin.
    rng = np.random.default_rng(seed)
    pool = rng.random((32,) + entry.model.input_shape).astype(FLOAT_DTYPE)
    requests: list[InferenceRequest] = []
    traffic_stop = threading.Event()
    traffic_errors: list[str] = []
    # Slow clients: (ready_at, request) pairs a collector thread calls
    # ``result()`` on after the client-side delay.
    stragglers: list = []
    straggler_lock = threading.Lock()
    replay_done = threading.Event()

    def _traffic() -> None:
        cursor = 0
        try:
            while not traffic_stop.is_set():
                try:
                    requests.append(
                        service.submit(entry.name, pool[cursor % len(pool)])
                    )
                except ExperimentError:
                    # Engine stopped under us (normal shutdown race): not an error.
                    return
                except BaseException as error:  # noqa: BLE001 - surfaced in result
                    traffic_errors.append(f"{type(error).__name__}: {error}")
                    return
                cursor += 1
                traffic_stop.wait(request_interval_seconds)
        finally:
            replay_done.set()

    def _replay() -> None:
        # Single-submitter trace replay: arrivals fire at their recorded
        # offsets; when the submitter falls behind (a burst outrunning this
        # thread) later arrivals shift instead of being skipped.
        assert traffic is not None
        cursor = 0
        epoch = time.perf_counter()
        try:
            trace = traffic.arrivals(duration_seconds)
            for arrival in trace:
                if traffic_stop.is_set():
                    return
                wait = (epoch + arrival.offset) - time.perf_counter()
                if wait > 0 and traffic_stop.wait(wait):
                    return
                target = arrival.model or entry.name
                if target != entry.name:
                    traffic_errors.append(
                        f"ExperimentError: trace routed to unknown model {target!r}"
                    )
                    return
                try:
                    request = service.submit(target, pool[cursor % len(pool)])
                except ServiceOverloadError:
                    # Shed at admission: accounted by the engine's counters.
                    cursor += 1
                    continue
                except ExperimentError:
                    return
                except BaseException as error:  # noqa: BLE001 - surfaced in result
                    traffic_errors.append(f"{type(error).__name__}: {error}")
                    return
                cursor += 1
                requests.append(request)
                if arrival.result_delay_seconds > 0:
                    with straggler_lock:
                        stragglers.append(
                            (
                                time.perf_counter() + arrival.result_delay_seconds,
                                request,
                            )
                        )
        except BaseException as error:  # noqa: BLE001 - surfaced in result
            traffic_errors.append(f"{type(error).__name__}: {error}")
        finally:
            replay_done.set()

    def _collect_stragglers() -> None:
        # Exercises the late-result path: a slow client only calls result()
        # after its delay, long after the engine completed the request.
        while True:
            item = None
            with straggler_lock:
                if stragglers and stragglers[0][0] <= time.perf_counter():
                    item = stragglers.pop(0)
                remaining = len(stragglers)
            if item is not None:
                try:
                    item[1].result(timeout=5.0)
                except BaseException:  # noqa: BLE001 - outcome read at drain
                    pass
                continue
            if replay_done.is_set() and remaining == 0:
                return
            if traffic_stop.is_set():
                return
            time.sleep(0.005)

    driver = FaultPressureDriver(
        entry,
        mean_interval_seconds=mean_fault_interval_seconds,
        seed=seed,
        max_events=max_fault_events,
        layer_indices=fault_layer_indices,
        fault_models=fault_models,
        reassert_interval_seconds=reassert_interval_seconds,
        telemetry=service.telemetry,
    )

    started = time.perf_counter()
    service.start()
    traffic_thread = threading.Thread(
        target=_replay if traffic is not None else _traffic,
        name="soak-traffic",
        daemon=True,
    )
    traffic_thread.start()
    collector_thread: Optional[threading.Thread] = None
    if traffic is not None:
        collector_thread = threading.Thread(
            target=_collect_stragglers, name="soak-stragglers", daemon=True
        )
        collector_thread.start()
    driver.start()

    deadline = started + duration_seconds
    next_snapshot = started + 1.0
    while time.perf_counter() < deadline:
        if max_fault_events is not None and driver.exhausted:
            break
        if metrics_out is not None and time.perf_counter() >= next_snapshot:
            service.telemetry.export_metrics(metrics_out, registry=service.registry)
            next_snapshot = time.perf_counter() + 1.0
        time.sleep(min(0.05, duration_seconds))
    driver.stop()

    # Drain: keep scrubbing until two consecutive full passes are clean (all
    # injected corruption detected, recovered and verified).
    converged = False
    clean_passes = 0
    reopens_left = 3
    drain_deadline = time.perf_counter() + drain_timeout_seconds
    while time.perf_counter() < drain_deadline:
        # Repairs that failed mid-storm (recovery passes travelling through a
        # then-corrupted neighbour) can succeed now; give them a bounded
        # number of fresh attempts.
        if entry.degraded and entry.is_healthy() and reopens_left > 0:
            reopens_left -= 1
            service.scrubber.reopen_degraded(entry)
        elif entry.degraded and entry.is_healthy():
            # Out of re-open budget: accept the degraded state and stop.
            break
        service.scrub_now(entry.name)
        if entry.is_healthy():
            with entry.lock:
                report = entry.protector.detect()
            if not report.any_errors:
                clean_passes += 1
                if clean_passes >= 2:
                    converged = True
                    break
                continue
        clean_passes = 0
        time.sleep(min(0.02, scrub_period_seconds))

    traffic_stop.set()
    traffic_thread.join(timeout=10.0)
    if collector_thread is not None:
        collector_thread.join(timeout=10.0)
    elapsed = time.perf_counter() - started
    service.stop()

    if trace_out is not None:
        service.telemetry.export_trace(trace_out)
    if metrics_out is not None:
        service.telemetry.export_metrics(metrics_out, registry=service.registry)

    completed = 0
    failed = 0
    latencies: list[float] = []
    for request in requests:
        if not request.done():
            failed += 1
            continue
        if request.failed:
            failed += 1
        else:
            completed += 1
            latencies.append(request.latency_seconds or 0.0)

    bit_exact = all(
        np.array_equal(
            entry.model.layers[index].get_weights().view(np.uint32),
            golden[index].view(np.uint32),
        )
        for index in entry.parameterized_indices
    )

    sla = entry.tracker.report(config.scrub_period_seconds)
    slo = entry.tracker.slo_report(config.scrub_period_seconds)
    stats = entry.stats
    return SoakResult(
        network=network,
        duration_seconds=elapsed,
        fault_events=tuple(driver.events),
        injected_layers=frozenset(driver.injected_layers(entry.name)),
        detected_layers=frozenset(entry.ever_quarantined),
        requests_completed=completed,
        requests_failed=failed,
        served_during_quarantine=stats.served_during_quarantine,
        plan_invalidations=entry.model.plan_stats.invalidations,
        throughput_rps=completed / elapsed if elapsed > 0 else 0.0,
        mean_latency_seconds=float(np.mean(latencies)) if latencies else 0.0,
        p50_latency_seconds=latency_percentile(latencies, 50),
        p99_latency_seconds=latency_percentile(latencies, 99),
        bit_exact=bit_exact,
        converged=converged,
        scratch_detections=entry.model.plan_stats.scratch_detections,
        fused_served=stats.fused_served,
        fused_fallbacks=stats.fused_fallbacks,
        remap_repairs=entry.remap_repairs,
        blacklisted_cells=entry.blacklisted_cell_count,
        sla=sla,
        errors=tuple(traffic_errors),
        fault_chains=tuple(service.telemetry.fault_chains()),
        shed_queue_full=stats.shed_queue_full,
        shed_breaker=stats.shed_breaker,
        shed_deadline=stats.shed_deadline,
        served_degraded=stats.served_degraded,
        queue_depth_highwater=stats.queue_depth_highwater,
        breaker_opens=entry.breaker.opens if entry.breaker is not None else 0,
        slo=slo,
    )


# ---------------------------------------------------------------------- #
# Chaos scenarios
# ---------------------------------------------------------------------- #
def calibrate_capacity(
    network: str = "mnist_reduced",
    samples: int = 512,
    seed: int = 0,
    trained: bool = False,
    milr_config: Optional[MILRConfig] = None,
    service_config: Optional[ServiceConfig] = None,
) -> float:
    """Measure this machine's sustained serve capacity (requests/second).

    Submits ``samples`` single-sample requests full tilt through a fresh,
    fault-free, scrub-free service and divides by the wall-clock to complete
    them all.  Chaos scenarios scale their traffic to this figure so "3x
    overload" stresses every machine by the same ratio instead of a fixed
    rate that one box shrugs off and another melts under.
    """
    if samples < 1:
        raise ExperimentError("samples must be at least 1")
    config = service_config or ServiceConfig()
    service = SelfHealingService(config)
    entry = service.load_model(network, trained=trained, milr_config=milr_config)
    rng = np.random.default_rng(seed)
    pool = rng.random((32,) + entry.model.input_shape).astype(FLOAT_DTYPE)
    service.start(scrub=False)
    try:
        # Warm-up: plan compiles/certifications must not count as capacity.
        warmup = [service.submit(entry.name, pool[i % len(pool)]) for i in range(32)]
        for request in warmup:
            request.result(timeout=30.0)
        began = time.perf_counter()
        pending = [
            service.submit(entry.name, pool[i % len(pool)]) for i in range(samples)
        ]
        for request in pending:
            request.result(timeout=30.0)
        elapsed = time.perf_counter() - began
    finally:
        service.stop()
    if elapsed <= 0:  # pragma: no cover - sub-resolution clock
        raise ExperimentError("capacity calibration elapsed no measurable time")
    return samples / elapsed


@dataclass(frozen=True)
class ChaosRunResult:
    """Outcome of one named chaos scenario, judged against its SLO."""

    scenario: str
    capacity_rps: float
    soak: SoakResult
    #: Human-readable SLO/invariant violations; empty means the run passed.
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, object]:
        """Machine-readable summary (the ``repro chaos --json`` payload)."""
        slo = self.soak.slo
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "violations": list(self.violations),
            "capacity_rps": self.capacity_rps,
            "requests_completed": self.soak.requests_completed,
            "requests_failed": self.soak.requests_failed,
            "requests_shed": self.soak.requests_shed,
            "shed_queue_full": self.soak.shed_queue_full,
            "shed_breaker": self.soak.shed_breaker,
            "shed_deadline": self.soak.shed_deadline,
            "served_degraded": self.soak.served_degraded,
            "queue_depth_highwater": self.soak.queue_depth_highwater,
            "breaker_opens": self.soak.breaker_opens,
            "converged": self.soak.converged,
            "bit_exact": self.soak.bit_exact,
            "fault_events": len(self.soak.fault_events),
            "slo": slo.as_dict() if slo is not None else None,
        }


def run_chaos_scenario(
    name: str,
    duration_seconds: float = 4.0,
    seed: int = 0,
    network: str = "mnist_reduced",
    capacity_rps: Optional[float] = None,
    trained: bool = False,
    scrub_period_seconds: float = 0.1,
    service_config: Optional[ServiceConfig] = None,
    milr_config: Optional[MILRConfig] = None,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> ChaosRunResult:
    """Run one :data:`CHAOS_SCENARIOS` entry and judge it against its SLO.

    The scenario's traffic factory is scaled to ``capacity_rps`` (measured by
    :func:`calibrate_capacity` when not given), its overload-protection
    fields override the service config, and the resulting soak is checked
    for: admitted-request availability >= its target, drain convergence,
    bounded queue memory and a clean traffic thread.  Violations come back
    as strings so the CLI can print them and exit nonzero.
    """
    scenario = CHAOS_SCENARIOS.get(name)
    if scenario is None:
        raise ExperimentError(
            f"unknown chaos scenario {name!r}; choose from "
            f"{sorted(CHAOS_SCENARIOS)}"
        )
    if capacity_rps is None:
        capacity_rps = calibrate_capacity(
            network, seed=seed, trained=trained, milr_config=milr_config
        )
    traffic = scenario.traffic_factory(capacity_rps, seed)
    config = replace(
        service_config or ServiceConfig(),
        max_queue_depth=scenario.max_queue_depth,
        breaker_enabled=scenario.breaker_enabled,
        breaker_p99_threshold_seconds=scenario.breaker_p99_threshold_seconds,
    )
    soak = run_soak(
        network=network,
        duration_seconds=duration_seconds,
        mean_fault_interval_seconds=scenario.mean_fault_interval_seconds,
        scrub_period_seconds=scrub_period_seconds,
        trained=trained,
        seed=seed,
        service_config=config,
        milr_config=milr_config,
        fault_models=dict(scenario.fault_models) or None,
        reassert_interval_seconds=scenario.reassert_interval_seconds,
        trace_out=trace_out,
        metrics_out=metrics_out,
        traffic=traffic,
    )
    violations: list[str] = []
    slo = soak.slo
    if slo is not None and not slo.meets_target:
        violations.append(
            f"admitted availability {slo.admitted_availability:.4f} below "
            f"target {slo.availability_target:.4f}"
        )
    if not soak.converged:
        violations.append("drain did not reach two consecutive clean detections")
    if config.max_queue_depth > 0 and (
        soak.queue_depth_highwater > config.max_queue_depth
    ):
        violations.append(
            f"queue depth highwater {soak.queue_depth_highwater} exceeded "
            f"bound {config.max_queue_depth}"
        )
    if soak.errors:
        violations.append(f"traffic thread errors: {'; '.join(soak.errors)}")
    return ChaosRunResult(
        scenario=name,
        capacity_rps=capacity_rps,
        soak=soak,
        violations=tuple(violations),
    )
