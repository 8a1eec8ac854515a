"""Serve workloads: traffic from one client against the live service.

``serve_steady`` serves ``mnist_reduced`` fault-free under the default
:class:`~repro.service.ServiceConfig`: phase A is open-loop Poisson traffic
at a fixed rate, phase B a closed loop keeping a fixed window in flight.
``serve_faults`` serves open-loop traffic while the main thread injects
detectable single-bit weight faults on a fixed schedule, then drains until
every layer is healed.

The generator runs on the main thread; a second benchmark thread only polls
the served layers against the golden twin to time each heal.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ServiceOverloadError
from repro.service import FaultPressureDriver, SelfHealingService, ServiceConfig
from repro.types import FLOAT_DTYPE
from repro.zoo import network_table

from milrbench import layers
from milrbench.metrics import REPAIR_STRATEGIES, Outcome
from milrbench.oracle import GoldenTwin
from milrbench.spans import Patches, SpanRecorder
from milrbench.stats import fixed_schedule, percentile, poisson_schedule

__all__ = ["run_steady", "run_faults"]

NETWORK = "mnist_reduced"
#: Distinct inputs per run, drawn from the seed and reused round-robin.
POOL_SIZE = 256
#: Phase A rate: about a quarter of the closed-loop capacity of a 2-core host.
STEADY_RATE = 2500.0
#: The steady run alternates phase A and phase B this many times and reports
#: medians over rounds: the shared host's speed swings for seconds at a time,
#: and a median over rounds set apart in time discounts one slow stretch.
STEADY_ROUNDS = 5
#: Share of each round spent in phase A (the rest is phase B).
OPEN_SHARE = 0.5
#: Requests phase B keeps in flight.
CLOSED_WINDOW = 64
FAULTS_RATE = 1000.0
#: Faults injected per second of the serve_faults window (fixed times).
FAULTS_PER_SECOND = 2.2
SLO_SECONDS = 0.050
#: Tail percentile of each serve workload's ``latency_tail_ms``.  Fault-free,
#: p99 and even p95 swing by a quarter between runs as the shared host's
#: speed changes (queueing at a fixed offered rate amplifies it), while p90
#: still shows queueing and batching; under faults p99 is the quarantine
#: stalls the workload exists to measure.
STEADY_TAIL_Q = 90.0
FAULTS_TAIL_Q = 99.0
#: Service set-ups per run; ``setup_s`` is their median.  The first few in a
#: fresh process run 2-5x slower while process-wide caches fill, so the
#: median needs enough repeats to land among the settled ones.
SETUP_REPEATS = 9
RESULT_TIMEOUT = 60.0
DRAIN_TIMEOUT = 30.0
POLL_SECONDS = 0.002

PENDING, OK, FAILED, SHED = 0, 1, 2, 3


class PhaseLog:
    """Per-request record of one traffic phase, as growable arrays."""

    def __init__(self, capacity: int, out_dim: int):
        capacity = max(capacity, 16)
        self.count = 0
        self.due = np.zeros(capacity)
        self.sent = np.zeros(capacity)
        self.submitted = np.zeros(capacity)
        self.completed = np.full(capacity, np.nan)
        self.status = np.zeros(capacity, dtype=np.int8)
        self.pool_index = np.zeros(capacity, dtype=np.int64)
        self.outputs = np.zeros((capacity, out_dim), dtype=FLOAT_DTYPE)

    def _grow(self) -> None:
        for name in ("due", "sent", "submitted", "completed", "status", "pool_index", "outputs"):
            old = getattr(self, name)
            new = np.zeros((2 * len(old),) + old.shape[1:], dtype=old.dtype)
            if name == "completed":
                new[:] = np.nan
            new[: len(old)] = old
            setattr(self, name, new)

    def add(self, due: float, sent: float, submitted: float, pool_index: int, status=PENDING) -> int:
        if self.count == len(self.due):
            self._grow()
        i = self.count
        self.due[i], self.sent[i], self.submitted[i] = due, sent, submitted
        self.pool_index[i] = pool_index
        self.status[i] = status
        self.count += 1
        return i

    def finish(self, i: int, request) -> None:
        """Record a request's outcome once it is done (or timed out)."""
        try:
            output = request.result(timeout=RESULT_TIMEOUT)
        except Exception:  # noqa: BLE001 - failure is recorded, not raised
            self.status[i] = FAILED
            self.completed[i] = request.completed_at if request.done() else np.nan
            return
        self.status[i] = OK
        self.completed[i] = request.completed_at
        self.outputs[i] = output

    def view(self, name: str) -> np.ndarray:
        return getattr(self, name)[: self.count]


def _sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


# --------------------------------------------------------------------------- #
# Set-up


@dataclass
class Served:
    service: SelfHealingService
    entry: object
    twin: GoldenTwin
    pool: np.ndarray
    #: Every set-up's duration, in order; ``setup_s`` is their median.
    setups: list

    @property
    def setup_s(self) -> float:
        return float(np.median(self.setups))


def _start_service(pool: np.ndarray) -> tuple[SelfHealingService, object, float]:
    """Build, protect, start and warm one service; time to its first answer."""
    began = time.perf_counter()
    service = SelfHealingService(ServiceConfig())
    entry = service.load_model(NETWORK)
    service.start()
    # The worker warms and certifies every batch-size plan before it takes
    # a request, so the first answer marks the end of set-up.
    service.submit(NETWORK, pool[0]).result(timeout=RESULT_TIMEOUT)
    return service, entry, time.perf_counter() - began


def _setup(pool_seed: np.random.SeedSequence) -> Served:
    shape = network_table()[NETWORK].input_shape
    pool = np.random.default_rng(pool_seed).random((POOL_SIZE,) + shape).astype(FLOAT_DTYPE)
    twin = GoldenTwin(NETWORK, pool)
    durations = []
    for attempt in range(SETUP_REPEATS):
        service, entry, seconds = _start_service(pool)
        durations.append(seconds)
        if attempt < SETUP_REPEATS - 1:
            service.stop()
    for index in entry.parameterized_indices:
        if not twin.matches(entry.model.layers[index], index):
            service.stop()
            raise RuntimeError(f"served layer {index} does not start from the golden weights")
    return Served(service, entry, twin, pool, durations)


# --------------------------------------------------------------------------- #
# Faults and healing


@dataclass
class Fault:
    layer: int
    injected_at: float
    healed_at: Optional[float] = None


class HealObserver:
    """Times each injected fault until its layer is bit-identical to golden.

    Polls from its own thread without taking the model lock: layers swap
    whole weight arrays on ``set_weights``, so a read sees one state or the
    other.
    """

    def __init__(self, served: Served):
        self._model = served.entry.model
        self._twin = served.twin
        self.faults: list[Fault] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="milrbench-heal-observer")

    def add(self, layer: int, injected_at: float) -> None:
        with self._lock:
            self.faults.append(Fault(layer, injected_at))

    def all_healed(self) -> bool:
        with self._lock:
            return all(fault.healed_at is not None for fault in self.faults)

    def __enter__(self) -> "HealObserver":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(POLL_SECONDS):
            with self._lock:
                open_faults = [fault for fault in self.faults if fault.healed_at is None]
            if not open_faults:
                continue
            now = time.perf_counter()
            healed = {
                layer
                for layer in {fault.layer for fault in open_faults}
                if self._twin.matches(self._model.layers[layer], layer)
            }
            for fault in open_faults:
                if fault.layer in healed:
                    fault.healed_at = now


class FaultSchedule:
    """Detectable single-bit faults injected at fixed offsets of the window.

    Faults visit the parameterized layers in a fixed rotation; the seed picks
    only the weight and bit within each layer.  Repair cost differs by layer
    type by two orders of magnitude, so a seeded layer draw would make the
    run's heal and tail figures depend mostly on which layers it happened to
    hit.
    """

    def __init__(self, served: Served, seed: int, offsets: np.ndarray, observer: HealObserver,
                 recorder: Optional[SpanRecorder] = None):
        entry = served.entry
        layers_ = entry.parameterized_indices
        seeds = np.random.SeedSequence(seed).generate_state(len(layers_))
        self.drivers = [
            FaultPressureDriver(
                entry, seed=int(layer_seed), layer_indices=[layer],
                telemetry=served.service.telemetry,
            )
            for layer, layer_seed in zip(layers_, seeds)
        ]
        self.offsets = offsets
        self.observer = observer
        self.missed = 0
        self._count = 0
        self._recorder = recorder

    def inject(self) -> None:
        inject = self.drivers[self._count % len(self.drivers)].inject_once
        self._count += 1
        if self._recorder is not None:
            inject = self._recorder.wrap("fault.inject", inject)
        event = inject()
        if event is None:
            self.missed += 1
        else:
            self.observer.add(event.layer_index, event.timestamp)


def fault_count(layer_count: int, seconds: float) -> int:
    """Faults per window: whole rotations over the layers, about
    :data:`FAULTS_PER_SECOND` per second."""
    return layer_count * max(1, round(FAULTS_PER_SECOND * seconds / layer_count))


def _drain(served: Served, observer: HealObserver) -> bool:
    """Wait until every fault healed; re-open degraded layers like ``run_soak``."""
    entry = served.entry
    deadline = time.perf_counter() + DRAIN_TIMEOUT
    reopens = 3
    while time.perf_counter() < deadline:
        if observer.all_healed():
            return True
        if entry.degraded and not entry.dispatched and entry.is_healthy() and reopens:
            reopens -= 1
            served.service.scrubber.reopen_degraded(entry)
        time.sleep(0.01)
    return observer.all_healed()


# --------------------------------------------------------------------------- #
# Traffic


def _open_loop(served: Served, offsets: np.ndarray, faults: Optional[FaultSchedule] = None):
    """One request per due offset, sent on time whatever the service does."""
    service, pool = served.service, served.pool
    log = PhaseLog(len(offsets), served.twin.answers.shape[1])
    pending: collections.deque = collections.deque()
    fault_offsets = faults.offsets if faults is not None else np.zeros(0)
    next_fault = 0
    epoch = time.perf_counter() + 0.005
    for i, offset in enumerate(offsets):
        due = epoch + offset
        while next_fault < len(fault_offsets) and epoch + fault_offsets[next_fault] <= due:
            _sleep_until(epoch + fault_offsets[next_fault])
            faults.inject()
            next_fault += 1
        _sleep_until(due)
        sent = time.perf_counter()
        try:
            request = service.submit(NETWORK, pool[i % POOL_SIZE])
        except ServiceOverloadError:
            log.add(due, sent, sent, i % POOL_SIZE, SHED)
            continue
        pending.append((log.add(due, sent, time.perf_counter(), i % POOL_SIZE), request))
        while pending and pending[0][1].done():
            log.finish(*pending.popleft())
    while next_fault < len(fault_offsets):
        _sleep_until(epoch + fault_offsets[next_fault])
        faults.inject()
        next_fault += 1
    for item in pending:
        log.finish(*item)
    return log, epoch


def _closed_loop(served: Served, duration: float):
    """One client keeping :data:`CLOSED_WINDOW` requests in flight."""
    service, pool = served.service, served.pool
    log = PhaseLog(int(duration * 20000), served.twin.answers.shape[1])
    inflight: collections.deque = collections.deque()
    began = time.perf_counter()
    end = began + duration
    i = 0
    while time.perf_counter() < end:
        while len(inflight) < CLOSED_WINDOW and time.perf_counter() < end:
            sent = time.perf_counter()
            try:
                request = service.submit(NETWORK, pool[i % POOL_SIZE])
            except ServiceOverloadError:
                log.add(sent, sent, sent, i % POOL_SIZE, SHED)
            else:
                inflight.append((log.add(sent, sent, time.perf_counter(), i % POOL_SIZE), request))
            i += 1
        if inflight:
            log.finish(*inflight.popleft())
    for item in inflight:
        log.finish(*item)
    completed = log.view("completed")[log.view("status") == OK]
    if not completed.size:
        return log, 0.0
    return log, completed.size / (float(completed.max()) - began)


@dataclass
class PhaseStats:
    sent: int
    ok: int
    failed: int
    shed: int
    wrong: int
    #: Latency (seconds, from the due time) of every answered request.
    latency: np.ndarray
    slo_met: int

    @property
    def counts(self) -> dict[str, int]:
        return {"sent": self.sent, "ok": self.ok, "failed": self.failed, "shed": self.shed}


def _phase_stats(log: PhaseLog, twin: GoldenTwin) -> PhaseStats:
    status = log.view("status")
    ok = status == OK
    wrong = np.zeros(log.count, dtype=bool)
    if ok.any():
        wrong[ok] = twin.mismatches(log.view("outputs")[ok], log.view("pool_index")[ok])
    latency = log.view("completed") - log.view("due")
    met = ok & ~wrong & (latency <= SLO_SECONDS)
    return PhaseStats(
        sent=log.count,
        ok=int(ok.sum()),
        failed=int((status == FAILED).sum()),
        shed=int((status == SHED).sum()),
        wrong=int(wrong.sum()),
        latency=latency[ok],
        slo_met=int(met.sum()),
    )


# --------------------------------------------------------------------------- #
# Traced-run analysis


def _stage_metrics(logs: list, recorder: SpanRecorder) -> dict:
    """Split each answered request's latency into lag, submit, wait, forward, hand-off.

    The worker serves its queue in order and stamps one completion time per
    batch, so a request's batch is the last forward pass that ended at or
    before its completion.
    """
    forwards = sorted(recorder.named("nn.forward"), key=lambda s: s.end)
    column = {
        name: np.concatenate([log.view(name) for log in logs])
        for name in ("status", "due", "sent", "submitted", "completed")
    }
    ok = column["status"] == OK
    if not forwards or not ok.any():
        return {}
    ends = np.array([s.end for s in forwards])
    starts = np.array([s.start for s in forwards])
    batch = np.searchsorted(ends, column["completed"][ok], side="right") - 1
    mapped = batch >= 0
    batch = batch[mapped]
    due, sent, submitted, completed = (
        column[name][ok][mapped] for name in ("due", "sent", "submitted", "completed")
    )
    stages = {
        "lag": sent - due,
        "submit": submitted - sent,
        "wait": starts[batch] - submitted,
        "forward": ends[batch] - starts[batch],
        "handoff": completed - ends[batch],
    }
    latency_p50 = percentile(completed - due, 50)
    stage_sum = sum(percentile(values, 50) for values in stages.values())
    return {
        "engine.submit_us": percentile(stages["submit"], 50) * 1e6,
        "engine.wait_p50_ms": percentile(stages["wait"], 50) * 1e3,
        "engine.wait_p99_ms": percentile(stages["wait"], 99) * 1e3,
        "engine.handoff_us": percentile(stages["handoff"], 50) * 1e6,
        "generator.lag_p99_ms": percentile(stages["lag"], 99) * 1e3,
        "obs.stage_sum_error_frac": abs(stage_sum / latency_p50 - 1.0),
    }


def _forward_metrics(recorder: SpanRecorder, window: float) -> dict:
    forwards = [s for s in recorder.named("nn.forward") if s.parent is None]
    if not forwards:
        return {}
    samples = sum(int(s.key) for s in forwards)
    busy = sum(s.duration for s in forwards)
    return {
        "nn.forward_us_per_sample": busy / samples * 1e6,
        "nn.forward_busy_frac": busy / window,
        "engine.batch_occupancy_mean": samples / len(forwards),
    }


_PLAN_FIELDS = ("compiles", "invalidations", "fused_hits", "exact_hits", "fallbacks")


def _plan_counts(served: Served) -> dict[str, int]:
    stats = served.entry.model.plan_stats
    return {name: int(getattr(stats, name)) for name in _PLAN_FIELDS}


def _plan_metrics(before: dict, after: dict) -> dict:
    delta = {name: after[name] - before[name] for name in _PLAN_FIELDS}
    served = delta["fused_hits"] + delta["exact_hits"] + delta["fallbacks"]
    return {
        "nn.plan_compiles": delta["compiles"],
        "nn.plan_invalidations": delta["invalidations"],
        "nn.fused_share": delta["fused_hits"] / served if served else 0.0,
    }


def _repair_counts(served: Served) -> dict[str, float]:
    metrics = served.service.telemetry.metrics
    counts = {}
    for strategy in REPAIR_STRATEGIES:
        counts[f"repair.{strategy}.attempts"] = metrics.counter(
            "repro_repair_strategy_attempts_total", strategy=strategy
        ).value
        counts[f"repair.{strategy}.successes"] = metrics.counter(
            "repro_repair_strategy_success_total", strategy=strategy
        ).value
    return counts


def _quarantine_metrics(recorder: SpanRecorder, faults: list[Fault]) -> dict:
    """Injection -> quarantine and quarantine -> clear, per fault."""
    opens = [(s.start, set(s.key)) for s in recorder.named("quarantine.open")]
    closes = [(s.start, set(s.key)) for s in recorder.named("quarantine.close")]
    delays, held = [], []
    for fault in faults:
        opened = min((t for t, layers_ in opens if fault.layer in layers_ and t >= fault.injected_at),
                     default=None)
        if opened is None:
            continue
        delays.append((opened - fault.injected_at) * 1e3)
        closed = min((t for t, layers_ in closes if fault.layer in layers_ and t >= opened),
                     default=None)
        if closed is not None:
            held.append((closed - opened) * 1e3)
    return {
        "scrubber.detect_delay_ms": layers.median_or_zero(delays),
        "scrubber.quarantine_ms": layers.median_or_zero(held),
    }


def _heal_metrics(faults: list[Fault]) -> dict:
    heals = [(f.healed_at - f.injected_at) * 1e3 for f in faults if f.healed_at is not None]
    return {
        "faults.injected": len(faults),
        "faults.heal_p50_ms": percentile(heals, 50) if heals else 0.0,
        "faults.heal_p90_ms": float(np.percentile(heals, 90)) if heals else 0.0,
        "faults.heal_exact_frac": len(heals) / len(faults) if faults else 0.0,
    }


def _rounds_per_heal(chains) -> float:
    closed = [chain for chain in chains if chain.closed]
    if not closed:
        return 0.0
    return sum(chain.stages.count("repair") for chain in closed) / len(closed)


# --------------------------------------------------------------------------- #
# Workloads


def _streams(seed: int) -> list[np.random.SeedSequence]:
    """Independent seed streams: input pool, arrivals, faults."""
    return np.random.SeedSequence(seed).spawn(3)


@dataclass
class SteadyPass:
    """One phase-A and one phase-B log per round."""

    open_logs: list
    open_stats: list
    closed_logs: list
    closed_stats: list
    throughputs: list
    began: float
    ended: float

    @property
    def latency_p50(self) -> float:
        """Median over rounds of each round's phase-A latency p50."""
        return float(np.median([percentile(a.latency, 50) for a in self.open_stats]))

    @property
    def throughput(self) -> float:
        """Median over rounds of each round's phase-B throughput."""
        return float(np.median(self.throughputs))


def _steady_pass(served: Served, schedules: list, closed_seconds: float) -> SteadyPass:
    result = SteadyPass([], [], [], [], [], time.perf_counter(), 0.0)
    for offsets in schedules:
        open_log, _epoch = _open_loop(served, offsets)
        closed_log, throughput = _closed_loop(served, closed_seconds)
        result.open_logs.append(open_log)
        result.open_stats.append(_phase_stats(open_log, served.twin))
        result.closed_logs.append(closed_log)
        result.closed_stats.append(_phase_stats(closed_log, served.twin))
        result.throughputs.append(throughput)
    result.ended = time.perf_counter()
    return result


def _total(stats: list) -> PhaseStats:
    return PhaseStats(
        sent=sum(s.sent for s in stats),
        ok=sum(s.ok for s in stats),
        failed=sum(s.failed for s in stats),
        shed=sum(s.shed for s in stats),
        wrong=sum(s.wrong for s in stats),
        latency=np.concatenate([s.latency for s in stats]),
        slo_met=sum(s.slo_met for s in stats),
    )


def run_steady(seed: int, seconds: float, trace: bool) -> Outcome:
    pool_seed, arrival_seed, _ = _streams(seed)
    served = _setup(pool_seed)
    arrivals = np.random.default_rng(arrival_seed)
    round_seconds = seconds / STEADY_ROUNDS
    schedules = [
        poisson_schedule(STEADY_RATE, OPEN_SHARE * round_seconds, arrivals)
        for _ in range(STEADY_ROUNDS)
    ]
    closed_seconds = (1.0 - OPEN_SHARE) * round_seconds
    recorder = SpanRecorder() if trace else None
    try:
        base = _steady_pass(served, schedules, closed_seconds)
        measured = base
        metrics: dict[str, float] = {}
        if trace:
            plans_before = _plan_counts(served)
            with Patches() as patches:
                layers.install(patches, recorder)
                measured = _steady_pass(served, schedules, closed_seconds)
            window = measured.ended - measured.began
            metrics.update(layers.layer_metrics(recorder, window))
            metrics.update(_forward_metrics(recorder, window))
            metrics.update(_plan_metrics(plans_before, _plan_counts(served)))
            metrics.update(_stage_metrics(measured.open_logs, recorder))
            for log in measured.open_logs:
                _record_submits(recorder, log)
            metrics["obs.trace_overhead_frac.latency_p50"] = (
                measured.latency_p50 / base.latency_p50 - 1.0
            )
            metrics["obs.trace_overhead_frac.throughput"] = 1.0 - measured.throughput / base.throughput
    finally:
        served.service.stop()
    a, b = _total(measured.open_stats), _total(measured.closed_stats)
    for phase, stats in (("open", a), ("closed", b)):
        for name, value in stats.counts.items():
            metrics[f"engine.{phase}.{name}"] = value
    answered = a.ok + b.ok
    metrics["serve.wrong_output_frac"] = (a.wrong + b.wrong) / answered if answered else 0.0
    tails = [percentile(stats.latency, STEADY_TAIL_Q) * 1e3 for stats in measured.open_stats]
    metrics.update(
        setup_s=served.setup_s,
        latency_p50_ms=measured.latency_p50 * 1e3,
        latency_tail_ms=float(np.median(tails)),
        throughput_per_s=measured.throughput,
        slo_met_frac=a.slo_met / a.sent,
    )
    wrong = a.wrong + b.wrong
    failed = a.failed + a.shed + b.failed + b.shed + wrong
    notes = [
        f"serve_steady {STEADY_ROUNDS} rounds of phase A then phase B; latency and "
        "throughput figures are medians over rounds",
        f"serve_steady phase A: open-loop Poisson {STEADY_RATE:g} rps, "
        f"{a.sent} sent, {a.ok} ok, {a.failed} failed, {a.shed} shed, {a.wrong} wrong",
        f"serve_steady phase B: closed loop, window {CLOSED_WINDOW}, "
        f"{b.sent} sent, {b.ok} ok, {b.failed} failed, {b.shed} shed, {b.wrong} wrong",
        f"serve_steady throughput_rps = {measured.throughput:.6g} req/s "
        f"(rounds: {', '.join(f'{t:.0f}' for t in measured.throughputs)})",
        f"serve_steady latency_p99_ms = {percentile(a.latency, 99) * 1e3:.6g} ms "
        f"(all {len(a.latency)} phase-A answers; latency_tail_ms is the median round "
        f"p{STEADY_TAIL_Q:g}: {', '.join(f'{t:.3f}' for t in tails)})",
        f"serve_steady setup_s samples = {', '.join(f'{s:.4f}' for s in served.setups)} s",
        f"serve_steady wrong_output_frac = {metrics['serve.wrong_output_frac']:.6g} ratio",
    ]
    if wrong:
        notes.append(f"serve_steady FAILED: {wrong} answers disagree with the golden twin")
    return Outcome(
        correct=failed == 0,
        attempted=a.sent + b.sent,
        failed=failed,
        metrics=metrics,
        notes=notes,
        recorder=recorder,
    )


def _record_submits(recorder: SpanRecorder, log: PhaseLog) -> None:
    """Submit spans, timed by the generator around each ``submit`` call."""
    sent, submitted = log.view("sent"), log.view("submitted")
    for i in range(log.count):
        recorder.record("engine.submit", float(sent[i]), float(submitted[i]), key=i)


@dataclass
class FaultsPass:
    log: PhaseLog
    stats: PhaseStats
    faults: list
    missed: int
    drained: bool
    epoch: float
    began: float
    ended: float
    undetected: int

    @property
    def throughput(self) -> float:
        completed = self.log.view("completed")[self.log.view("status") == OK]
        return self.stats.ok / (float(completed.max()) - self.epoch) if completed.size else 0.0


def _faults_pass(served: Served, offsets: np.ndarray, fault_seed: int, seconds: float,
                 recorder: Optional[SpanRecorder] = None) -> FaultsPass:
    count = fault_count(len(served.entry.parameterized_indices), seconds)
    began = time.perf_counter()
    with HealObserver(served) as observer:
        schedule = FaultSchedule(
            served, fault_seed, fixed_schedule(count, seconds), observer, recorder
        )
        log, epoch = _open_loop(served, offsets, schedule)
        drained = _drain(served, observer)
    injected = {fault.layer for fault in observer.faults}
    return FaultsPass(
        log=log,
        stats=_phase_stats(log, served.twin),
        faults=list(observer.faults),
        missed=schedule.missed,
        drained=drained,
        epoch=epoch,
        began=began,
        ended=time.perf_counter(),
        undetected=len(injected - served.entry.ever_quarantined),
    )


def run_faults(seed: int, seconds: float, trace: bool) -> Outcome:
    pool_seed, arrival_seed, fault_stream = _streams(seed)
    fault_seed = int(fault_stream.generate_state(1)[0])
    served = _setup(pool_seed)
    offsets = poisson_schedule(FAULTS_RATE, seconds, np.random.default_rng(arrival_seed))
    recorder = SpanRecorder() if trace else None
    try:
        base = _faults_pass(served, offsets, fault_seed, seconds)
        measured = base
        metrics: dict[str, float] = {}
        if trace:
            plans_before = _plan_counts(served)
            repairs_before = _repair_counts(served)
            chains_before = len(served.service.telemetry.fault_chains())
            with Patches() as patches:
                layers.install(patches, recorder)
                measured = _faults_pass(served, offsets, fault_seed, seconds, recorder)
            window = measured.ended - measured.began
            metrics.update(layers.layer_metrics(recorder, window))
            metrics.update(_forward_metrics(recorder, window))
            metrics.update(_plan_metrics(plans_before, _plan_counts(served)))
            metrics.update(_stage_metrics([measured.log], recorder))
            _record_submits(recorder, measured.log)
            metrics.update(_quarantine_metrics(recorder, measured.faults))
            repairs_after = _repair_counts(served)
            metrics.update({k: repairs_after[k] - repairs_before[k] for k in repairs_after})
            chains = served.service.telemetry.fault_chains()[chains_before:]
            metrics["repair.rounds_per_heal"] = _rounds_per_heal(chains)
            metrics["obs.trace_overhead_frac.latency_p50"] = (
                percentile(measured.stats.latency, 50) / percentile(base.stats.latency, 50) - 1.0
            )
            metrics["obs.trace_overhead_frac.throughput"] = 1.0 - measured.throughput / base.throughput
        not_exact = [
            index
            for index in served.entry.parameterized_indices
            if not served.twin.matches(served.entry.model.layers[index], index)
        ]
    finally:
        served.service.stop()
    stats = measured.stats
    for name, value in stats.counts.items():
        metrics[f"engine.open.{name}"] = value
    metrics["serve.wrong_output_frac"] = stats.wrong / stats.ok if stats.ok else 0.0
    metrics.update(_heal_metrics(measured.faults))
    metrics.update(
        setup_s=served.setup_s,
        latency_p50_ms=percentile(stats.latency, 50) * 1e3,
        latency_tail_ms=percentile(stats.latency, FAULTS_TAIL_Q) * 1e3,
        throughput_per_s=measured.throughput,
        slo_met_frac=stats.slo_met / stats.sent,
    )
    failed = stats.failed + stats.shed
    problems = []
    if failed:
        problems.append(f"{failed} requests failed or were shed")
    if measured.undetected:
        problems.append(f"{measured.undetected} faulted layers were never quarantined")
    if not measured.drained or not_exact:
        problems.append(f"layers {not_exact} not bit-identical to golden after the drain")
    notes = [
        f"serve_faults open-loop Poisson {FAULTS_RATE:g} rps: {stats.sent} sent, {stats.ok} ok, "
        f"{stats.failed} failed, {stats.shed} shed, {stats.wrong} wrong",
        f"serve_faults faults: {len(measured.faults)} injected at fixed times, "
        f"{measured.missed} draws found nothing detectable",
        f"serve_faults latency_p99_ms = {metrics['latency_tail_ms']:.6g} ms "
        f"(p{FAULTS_TAIL_Q:g} of {len(stats.latency)} answers)",
        f"serve_faults setup_s samples = {', '.join(f'{s:.4f}' for s in served.setups)} s",
        f"serve_faults wrong_output_frac = {metrics['serve.wrong_output_frac']:.6g} ratio",
        f"serve_faults heal_p50_ms = {metrics['faults.heal_p50_ms']:.6g} ms",
        f"serve_faults heal_p90_ms = {metrics['faults.heal_p90_ms']:.6g} ms",
        f"serve_faults heal_exact_frac = {metrics['faults.heal_exact_frac']:.6g} ratio",
    ]
    notes += [f"serve_faults FAILED: {problem}" for problem in problems]
    return Outcome(
        correct=not problems,
        attempted=stats.sent,
        failed=failed,
        metrics=metrics,
        notes=notes,
        recorder=recorder,
    )
