"""Trace-driven traffic shapes for the chaos/soak harness.

Production request streams are not fixed-interval: they burst, follow
diurnal curves, mix models and include slow clients.  This module generates
such streams as *traces* -- every shape expands, seeded and deterministic,
into a :class:`Trace` of arrival offsets (plus optional per-arrival model
names and client-side result delays) that :func:`~repro.service.runtime.
run_soak` replays against the live service.  Same seed, same shape, same
duration => byte-identical trace, which is what makes chaos scenarios
reproducible and admission decisions replayable.

Shapes compose: ``base + BurstTraffic(...)`` superposes two streams, and
:class:`ReplayTrace` turns a recorded offset array back into a shape.
:func:`simulate_admission` is the deterministic single-worker counterpart of
the engine's admission controller -- a pure discrete-event simulation used
to pin down (and test) which requests of a trace are admitted, shed at the
queue, or dropped at their deadline, independent of wall-clock jitter.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ExperimentError

__all__ = [
    "Arrival",
    "Trace",
    "TrafficShape",
    "ConstantTraffic",
    "PoissonTraffic",
    "DiurnalTraffic",
    "BurstTraffic",
    "RampTraffic",
    "ReplayTrace",
    "SuperposedTraffic",
    "AdmissionSimulation",
    "simulate_admission",
    "ChaosScenario",
    "CHAOS_SCENARIOS",
]


@dataclass(frozen=True)
class Arrival:
    """One request of a trace.

    ``offset`` is seconds from trace start; ``model`` optionally routes the
    request to a named model (``None`` = the scenario's primary model);
    ``result_delay_seconds`` is the slow-client delay between submit and the
    client calling ``result()`` (0 for a prompt client).
    """

    offset: float
    model: Optional[str] = None
    result_delay_seconds: float = 0.0


@dataclass(frozen=True)
class Trace:
    """A materialized request trace: sorted arrival offsets plus metadata."""

    offsets: np.ndarray
    models: Optional[tuple] = None
    result_delays: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=np.float64)
        if offsets.ndim != 1:
            raise ExperimentError("trace offsets must be one-dimensional")
        if offsets.size and np.any(np.diff(offsets) < 0):
            raise ExperimentError("trace offsets must be sorted")
        object.__setattr__(self, "offsets", offsets)
        if self.models is not None and len(self.models) != offsets.size:
            raise ExperimentError("trace models must match offsets length")
        if self.result_delays is not None:
            delays = np.asarray(self.result_delays, dtype=np.float64)
            if delays.shape != offsets.shape:
                raise ExperimentError("trace result_delays must match offsets shape")
            object.__setattr__(self, "result_delays", delays)

    def __len__(self) -> int:
        return int(self.offsets.size)

    def arrival(self, index: int) -> Arrival:
        return Arrival(
            offset=float(self.offsets[index]),
            model=self.models[index] if self.models is not None else None,
            result_delay_seconds=(
                float(self.result_delays[index])
                if self.result_delays is not None
                else 0.0
            ),
        )

    def __iter__(self) -> Iterator[Arrival]:
        for index in range(len(self)):
            yield self.arrival(index)

    def merge(self, other: "Trace") -> "Trace":
        """Superpose two traces (stable merge by offset)."""
        offsets = np.concatenate([self.offsets, other.offsets])
        order = np.argsort(offsets, kind="stable")
        models: Optional[tuple] = None
        if self.models is not None or other.models is not None:
            mine = self.models or (None,) * len(self)
            theirs = other.models or (None,) * len(other)
            combined = tuple(mine) + tuple(theirs)
            models = tuple(combined[i] for i in order)
        delays: Optional[np.ndarray] = None
        if self.result_delays is not None or other.result_delays is not None:
            mine_d = (
                self.result_delays
                if self.result_delays is not None
                else np.zeros(len(self))
            )
            theirs_d = (
                other.result_delays
                if other.result_delays is not None
                else np.zeros(len(other))
            )
            delays = np.concatenate([mine_d, theirs_d])[order]
        return Trace(offsets=offsets[order], models=models, result_delays=delays)


class TrafficShape:
    """Base class of the composable, seeded load generators.

    Subclasses define the instantaneous request rate :meth:`rate` (requests
    per second at elapsed time ``t``) and its :attr:`peak_rate`; arrival
    offsets are drawn by Lewis thinning of a homogeneous Poisson process at
    the peak rate, so any integrable rate curve becomes a valid arrival
    process.  Shapes with a closed-form arrival pattern (constant spacing,
    replayed traces) override :meth:`_offsets` directly.

    Common decoration, applied to every shape:

    * ``model_mix`` -- mapping of model name to weight; each arrival draws
      its target model from the normalized mix (``None`` keeps every arrival
      on the scenario's primary model).
    * ``straggler_fraction`` / ``straggler_delay_seconds`` -- that fraction
      of arrivals are slow clients which wait a uniform draw from the delay
      range between submit and ``result()``.
    """

    def __init__(
        self,
        seed: int = 0,
        model_mix: Optional[Mapping[str, float]] = None,
        straggler_fraction: float = 0.0,
        straggler_delay_seconds: tuple = (0.1, 0.5),
    ):
        self.seed = int(seed)
        if model_mix is not None:
            weights = {str(k): float(v) for k, v in dict(model_mix).items()}
            if not weights or any(w < 0 for w in weights.values()):
                raise ExperimentError("model_mix weights must be non-negative")
            total = sum(weights.values())
            if total <= 0:
                raise ExperimentError("model_mix weights must not all be zero")
            model_mix = {k: w / total for k, w in sorted(weights.items())}
        self.model_mix = model_mix
        if not 0.0 <= straggler_fraction <= 1.0:
            raise ExperimentError("straggler_fraction must be in [0, 1]")
        self.straggler_fraction = float(straggler_fraction)
        lo, hi = (float(straggler_delay_seconds[0]), float(straggler_delay_seconds[1]))
        if lo < 0 or hi < lo:
            raise ExperimentError("straggler_delay_seconds must be a (lo, hi) range")
        self.straggler_delay_seconds = (lo, hi)

    # ------------------------------------------------------------------ #
    def rate(self, t: float) -> float:
        """Instantaneous request rate (req/s) at elapsed time ``t``."""
        raise NotImplementedError

    @property
    def peak_rate(self) -> float:
        """Upper bound of :meth:`rate` over the trace (thinning envelope)."""
        raise NotImplementedError

    def _offsets(self, duration_seconds: float, rng: np.random.Generator) -> np.ndarray:
        """Arrival offsets by Lewis thinning at :attr:`peak_rate`."""
        peak = float(self.peak_rate)
        if peak <= 0:
            return np.empty(0, dtype=np.float64)
        expected = peak * duration_seconds
        # Draw candidate inter-arrivals in chunks until past the horizon.
        gaps: list[np.ndarray] = []
        total = 0.0
        while total < duration_seconds:
            chunk = rng.exponential(1.0 / peak, size=max(int(expected) + 64, 64))
            gaps.append(chunk)
            total += float(chunk.sum())
        candidates = np.cumsum(np.concatenate(gaps))
        candidates = candidates[candidates < duration_seconds]
        accept = rng.random(candidates.size)
        rates = np.array([self.rate(float(t)) for t in candidates], dtype=np.float64)
        return candidates[accept * peak < rates]

    # ------------------------------------------------------------------ #
    def arrivals(self, duration_seconds: float) -> Trace:
        """Expand the shape into a deterministic trace of ``duration`` seconds."""
        if duration_seconds <= 0:
            raise ExperimentError("duration_seconds must be positive")
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        offsets = np.sort(
            np.asarray(self._offsets(float(duration_seconds), rng), dtype=np.float64)
        )
        offsets = offsets[(offsets >= 0.0) & (offsets < duration_seconds)]
        models: Optional[tuple] = None
        if self.model_mix is not None:
            names = tuple(self.model_mix)
            weights = np.array([self.model_mix[name] for name in names])
            draws = rng.choice(len(names), size=offsets.size, p=weights)
            models = tuple(names[i] for i in draws)
        delays: Optional[np.ndarray] = None
        if self.straggler_fraction > 0.0:
            slow = rng.random(offsets.size) < self.straggler_fraction
            lo, hi = self.straggler_delay_seconds
            delays = np.where(
                slow, rng.uniform(lo, hi, size=offsets.size), 0.0
            ).astype(np.float64)
        return Trace(offsets=offsets, models=models, result_delays=delays)

    def __add__(self, other: "TrafficShape") -> "SuperposedTraffic":
        return SuperposedTraffic([self, other])


class ConstantTraffic(TrafficShape):
    """Evenly spaced arrivals at a fixed rate (the legacy soak pattern)."""

    def __init__(self, rate_rps: float, **kwargs):
        super().__init__(**kwargs)
        if rate_rps < 0:
            raise ExperimentError("rate_rps must be non-negative")
        self.rate_rps = float(rate_rps)

    def rate(self, t: float) -> float:
        return self.rate_rps

    @property
    def peak_rate(self) -> float:
        return self.rate_rps

    def _offsets(self, duration_seconds: float, rng: np.random.Generator) -> np.ndarray:
        if self.rate_rps <= 0:
            return np.empty(0, dtype=np.float64)
        return np.arange(0.0, duration_seconds, 1.0 / self.rate_rps, dtype=np.float64)


class PoissonTraffic(TrafficShape):
    """Homogeneous Poisson arrivals at a fixed mean rate."""

    def __init__(self, rate_rps: float, **kwargs):
        super().__init__(**kwargs)
        if rate_rps < 0:
            raise ExperimentError("rate_rps must be non-negative")
        self.rate_rps = float(rate_rps)

    def rate(self, t: float) -> float:
        return self.rate_rps

    @property
    def peak_rate(self) -> float:
        return self.rate_rps

    def _offsets(self, duration_seconds: float, rng: np.random.Generator) -> np.ndarray:
        if self.rate_rps <= 0:
            return np.empty(0, dtype=np.float64)
        expected = self.rate_rps * duration_seconds
        gaps: list[np.ndarray] = []
        total = 0.0
        while total < duration_seconds:
            chunk = rng.exponential(
                1.0 / self.rate_rps, size=max(int(expected) + 64, 64)
            )
            gaps.append(chunk)
            total += float(chunk.sum())
        offsets = np.cumsum(np.concatenate(gaps))
        return offsets[offsets < duration_seconds]


class DiurnalTraffic(TrafficShape):
    """Sinusoidal day/night curve: ``base * (1 + amplitude * sin(...))``."""

    def __init__(
        self,
        base_rate_rps: float,
        amplitude: float = 0.5,
        period_seconds: float = 60.0,
        phase: float = 0.0,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if base_rate_rps < 0:
            raise ExperimentError("base_rate_rps must be non-negative")
        if not 0.0 <= amplitude <= 1.0:
            raise ExperimentError("amplitude must be in [0, 1]")
        if period_seconds <= 0:
            raise ExperimentError("period_seconds must be positive")
        self.base_rate_rps = float(base_rate_rps)
        self.amplitude = float(amplitude)
        self.period_seconds = float(period_seconds)
        self.phase = float(phase)

    def rate(self, t: float) -> float:
        cycle = np.sin(2.0 * np.pi * t / self.period_seconds + self.phase)
        return max(0.0, self.base_rate_rps * (1.0 + self.amplitude * float(cycle)))

    @property
    def peak_rate(self) -> float:
        return self.base_rate_rps * (1.0 + self.amplitude)


class BurstTraffic(TrafficShape):
    """Square-wave bursts: ``burst_rate`` for ``duty`` of every period."""

    def __init__(
        self,
        base_rate_rps: float,
        burst_rate_rps: float,
        period_seconds: float = 1.0,
        duty: float = 0.25,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if base_rate_rps < 0 or burst_rate_rps < 0:
            raise ExperimentError("rates must be non-negative")
        if period_seconds <= 0:
            raise ExperimentError("period_seconds must be positive")
        if not 0.0 < duty < 1.0:
            raise ExperimentError("duty must be in (0, 1)")
        self.base_rate_rps = float(base_rate_rps)
        self.burst_rate_rps = float(burst_rate_rps)
        self.period_seconds = float(period_seconds)
        self.duty = float(duty)

    def rate(self, t: float) -> float:
        in_burst = (t % self.period_seconds) < self.duty * self.period_seconds
        return self.burst_rate_rps if in_burst else self.base_rate_rps

    @property
    def peak_rate(self) -> float:
        return max(self.base_rate_rps, self.burst_rate_rps)


class RampTraffic(TrafficShape):
    """Linear ramp from ``start_rate`` to ``end_rate`` over ``ramp_seconds``."""

    def __init__(
        self,
        start_rate_rps: float,
        end_rate_rps: float,
        ramp_seconds: float,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if start_rate_rps < 0 or end_rate_rps < 0:
            raise ExperimentError("rates must be non-negative")
        if ramp_seconds <= 0:
            raise ExperimentError("ramp_seconds must be positive")
        self.start_rate_rps = float(start_rate_rps)
        self.end_rate_rps = float(end_rate_rps)
        self.ramp_seconds = float(ramp_seconds)

    def rate(self, t: float) -> float:
        frac = min(1.0, max(0.0, t / self.ramp_seconds))
        return self.start_rate_rps + frac * (self.end_rate_rps - self.start_rate_rps)

    @property
    def peak_rate(self) -> float:
        return max(self.start_rate_rps, self.end_rate_rps)


class ReplayTrace(TrafficShape):
    """Replay a recorded trace: explicit offsets (and optional metadata).

    Arrivals beyond the requested duration are clipped; the recorded
    per-arrival models/result delays (when given) override the base-class
    mix/straggler decoration, which keeps a replayed trace byte-faithful.
    """

    def __init__(
        self,
        offsets: Sequence[float],
        models: Optional[Sequence[Optional[str]]] = None,
        result_delays: Optional[Sequence[float]] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self._trace = Trace(
            offsets=np.asarray(list(offsets), dtype=np.float64),
            models=tuple(models) if models is not None else None,
            result_delays=(
                np.asarray(list(result_delays), dtype=np.float64)
                if result_delays is not None
                else None
            ),
        )

    def rate(self, t: float) -> float:
        # Mean rate of the recorded window (informational only).
        if len(self._trace) < 2:
            return float(len(self._trace))
        span = float(self._trace.offsets[-1] - self._trace.offsets[0]) or 1.0
        return len(self._trace) / span

    @property
    def peak_rate(self) -> float:
        return self.rate(0.0)

    def arrivals(self, duration_seconds: float) -> Trace:
        if duration_seconds <= 0:
            raise ExperimentError("duration_seconds must be positive")
        keep = self._trace.offsets < duration_seconds
        return Trace(
            offsets=self._trace.offsets[keep],
            models=(
                tuple(
                    m for m, k in zip(self._trace.models, keep) if k
                )
                if self._trace.models is not None
                else None
            ),
            result_delays=(
                self._trace.result_delays[keep]
                if self._trace.result_delays is not None
                else None
            ),
        )


class SuperposedTraffic(TrafficShape):
    """Superposition of component shapes (``shape_a + shape_b``)."""

    def __init__(self, shapes: Sequence[TrafficShape], **kwargs):
        super().__init__(**kwargs)
        if not shapes:
            raise ExperimentError("SuperposedTraffic needs at least one shape")
        self.shapes = list(shapes)

    def rate(self, t: float) -> float:
        return sum(shape.rate(t) for shape in self.shapes)

    @property
    def peak_rate(self) -> float:
        # Conservative envelope: the sum of component peaks.
        return sum(shape.peak_rate for shape in self.shapes)

    def arrivals(self, duration_seconds: float) -> Trace:
        trace = self.shapes[0].arrivals(duration_seconds)
        for shape in self.shapes[1:]:
            trace = trace.merge(shape.arrivals(duration_seconds))
        return trace

    def __add__(self, other: TrafficShape) -> "SuperposedTraffic":
        return SuperposedTraffic([*self.shapes, other])


# ---------------------------------------------------------------------- #
# Deterministic single-worker admission simulation
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AdmissionSimulation:
    """Outcome of :func:`simulate_admission` over one trace."""

    #: Per-arrival decision, trace order: ``served`` / ``shed_queue`` /
    #: ``shed_deadline``.
    decisions: tuple
    served: int
    shed_queue: int
    shed_deadline: int

    @property
    def admitted(self) -> int:
        return self.served + self.shed_deadline

    @property
    def shed_total(self) -> int:
        return self.shed_queue + self.shed_deadline


def simulate_admission(
    trace: Trace,
    service_seconds_per_request: float,
    max_queue_depth: int = 0,
    deadline_seconds: Optional[float] = None,
) -> AdmissionSimulation:
    """Replay a trace through a deterministic single-worker queue model.

    This is the pure-function counterpart of the engine's admission
    controller: one FIFO worker with constant per-request service time, a
    bounded in-system request count that sheds arrivals finding it full, and
    drop-before-compute deadlines.  The same trace always yields the same
    admission decisions -- the property the chaos harness's determinism
    tests pin down.
    """
    if service_seconds_per_request <= 0:
        raise ExperimentError("service_seconds_per_request must be positive")
    if max_queue_depth < 0:
        raise ExperimentError("max_queue_depth must be non-negative")
    service = float(service_seconds_per_request)
    decisions: list[str] = []
    #: Completion times (service end, or drop time for deadline sheds) of
    #: admitted requests, non-decreasing by FIFO construction.
    finish: list[float] = []
    server_free = 0.0
    served = shed_queue = shed_deadline = 0
    for offset in trace.offsets:
        t = float(offset)
        if max_queue_depth > 0:
            in_system = len(finish) - bisect_right(finish, t)
            if in_system >= max_queue_depth:
                decisions.append("shed_queue")
                shed_queue += 1
                continue
        start = max(t, server_free)
        if deadline_seconds is not None and start > t + deadline_seconds:
            # The worker pops the expired request at `start` and drops it
            # before compute.
            decisions.append("shed_deadline")
            shed_deadline += 1
            finish.append(start)
            continue
        decisions.append("served")
        served += 1
        server_free = start + service
        finish.append(server_free)
    return AdmissionSimulation(
        decisions=tuple(decisions),
        served=served,
        shed_queue=shed_queue,
        shed_deadline=shed_deadline,
    )


# ---------------------------------------------------------------------- #
# Named chaos scenarios
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChaosScenario:
    """A named production-shape chaos workload.

    ``traffic_factory(capacity_rps, seed)`` builds the scenario's traffic
    shape scaled to the service's measured sustained capacity, so "3x
    overload" means the same thing on every machine.  The remaining fields
    parameterize the soak (fault mix, overload protection); every scenario
    is judged against the default availability target (0.99) of
    :meth:`~repro.service.sla.SLATracker.slo_report`.
    """

    name: str
    description: str
    traffic_factory: Callable[[float, int], TrafficShape]
    fault_models: tuple = ()
    mean_fault_interval_seconds: float = 0.25
    reassert_interval_seconds: float = 0.2
    max_queue_depth: int = 256
    breaker_enabled: bool = False
    breaker_p99_threshold_seconds: float = 0.25


def _burst_storm_traffic(capacity_rps: float, seed: int) -> TrafficShape:
    return BurstTraffic(
        base_rate_rps=0.5 * capacity_rps,
        burst_rate_rps=3.0 * capacity_rps,
        period_seconds=1.0,
        duty=0.35,
        seed=seed,
    )


def _diurnal_traffic(capacity_rps: float, seed: int) -> TrafficShape:
    return DiurnalTraffic(
        base_rate_rps=0.8 * capacity_rps,
        amplitude=0.9,
        period_seconds=4.0,
        seed=seed,
    )


def _straggler_flood_traffic(capacity_rps: float, seed: int) -> TrafficShape:
    return PoissonTraffic(
        rate_rps=1.5 * capacity_rps,
        straggler_fraction=0.3,
        straggler_delay_seconds=(0.2, 0.8),
        seed=seed,
    )


#: The named scenarios ``repro.cli chaos`` runs.  Each pairs a traffic shape
#: (scaled to measured capacity) with a fault mix and an overload-protection
#: configuration; :func:`~repro.service.runtime.run_chaos_scenario` executes
#: one and judges it against its SLO.
CHAOS_SCENARIOS: dict[str, ChaosScenario] = {
    "burst-storm": ChaosScenario(
        name="burst-storm",
        description=(
            "square-wave bursts to 3x sustained capacity under mixed "
            "stuck-at / row-hammer / activation fault pressure"
        ),
        traffic_factory=_burst_storm_traffic,
        fault_models=(("stuck_at", 1.0), ("row_hammer", 1.0), ("activation", 1.0)),
        mean_fault_interval_seconds=0.3,
        max_queue_depth=256,
        breaker_enabled=True,
        breaker_p99_threshold_seconds=0.5,
    ),
    "diurnal-with-stuck-at": ChaosScenario(
        name="diurnal-with-stuck-at",
        description=(
            "diurnal sine between 0.1x and 1.7x capacity with persistent "
            "stuck-at faults reasserting against repairs"
        ),
        traffic_factory=_diurnal_traffic,
        fault_models=(("stuck_at", 1.0),),
        mean_fault_interval_seconds=0.4,
        reassert_interval_seconds=0.15,
        max_queue_depth=512,
    ),
    "straggler-flood": ChaosScenario(
        name="straggler-flood",
        description=(
            "sustained 1.5x-capacity Poisson flood where 30% of clients "
            "are stragglers that delay collecting their results"
        ),
        traffic_factory=_straggler_flood_traffic,
        fault_models=(("row_hammer", 1.0), ("activation", 1.0)),
        mean_fault_interval_seconds=0.35,
        max_queue_depth=128,
        breaker_enabled=True,
        breaker_p99_threshold_seconds=0.5,
    ),
}
