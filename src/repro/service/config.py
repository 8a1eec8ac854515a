"""Configuration of the self-healing inference service runtime."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.telemetry import TelemetryConfig

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the service runtime (batching, scrubbing, overload).

    Not configurable: workers warm every batch occupancy and serve only
    certified-fused plans (falling back to the bit-exact plan where
    certification fails), a full bounded queue always sheds, deadlines
    always cut the batch gather, every conv layer stores 2-D CRC codes, the
    scrubber's chunking, attempt budget and repeat-offender threshold are
    constants in :mod:`repro.service.scrubber`, and repair tolerances are
    the defaults of :mod:`repro.core.repair`.

    Attributes:
        max_batch: Inference requests are queued individually and executed as
            batches of up to this many samples.  Batches execute at their
            actual occupancy through a per-batch-size compiled forward plan,
            never padded.  The default of 16 sits where the fused per-sample
            forward cost has saturated on the zoo networks while the queue
            depth (and hence worst-case batching latency) stays small.
        batch_timeout_seconds: How long a worker waits for additional requests
            to fill a batch before executing a partial one.
        scrub_period_seconds: Period of the background detection scrubber.
            The default follows the availability model: detection on the
            reduced networks costs ~1 ms, so a 0.25 s period keeps the
            detection duty cycle (and hence the availability loss) below 1%.
        quarantine_wait_seconds: How long an inference worker waits for a
            quarantined model to become healthy before failing its requests.
        recovery_async: Run recovery jobs on a dedicated worker thread so the
            scrubber keeps checking other models/layers while one heals.
        max_queue_depth: Bound of each model's request queue.  ``0`` (the
            default) keeps the legacy unbounded queue; with a bound set, a
            submit against a full queue is shed with
            :class:`~repro.exceptions.ServiceOverloadError` instead of letting
            backlog (and memory) grow without limit under overload.
        default_deadline_seconds: Deadline attached to every request that
            does not pass one explicitly (``None`` = no deadline).  Requests
            whose deadline has already passed when their batch is cut are
            dropped before compute and counted as shed, and a batch is cut
            early once its oldest request has spent half its budget.
        breaker_enabled: Arm a per-model :class:`~repro.service.breaker.
            CircuitBreaker` that sheds load at admission when the model's
            rolling p99 latency or quarantine depth crosses its threshold,
            then probes recovery half-open after a seeded-jitter exponential
            backoff.  Off by default (chaos/overload deployments opt in).
        breaker_p99_threshold_seconds: Rolling-window p99 latency above which
            the breaker opens.
        breaker_quarantine_depth: Quarantined-layer count at or above which
            the breaker opens (early shed while recovery is in flight).
        breaker_window: Completed-request latencies retained in the rolling
            window the p99 is computed over.
        breaker_min_samples: Latency samples required before the p99 trip
            condition is evaluated (prevents opening on the first slow
            request after start).
        breaker_backoff_seconds: Initial open-state backoff before the first
            half-open probe round; doubles on every failed probe round.
        breaker_backoff_max_seconds: Cap of the exponential backoff.
        breaker_half_open_probes: Requests admitted per half-open probe
            round; the round must complete them all under the p99 threshold
            to close the breaker.
        breaker_jitter: Fraction of the backoff added as seeded uniform
            jitter to each reopen delay (decorrelates probe storms across
            models).
        telemetry: Configuration of the unified telemetry layer
            (:mod:`repro.obs`): span tracing, fault-lifecycle chains and the
            metrics registry.  ``TelemetryConfig(enabled=False)`` removes the
            whole layer -- the runtime then follows exactly the
            pre-instrumentation code paths.
    """

    max_batch: int = 16
    batch_timeout_seconds: float = 0.002
    scrub_period_seconds: float = 0.25
    quarantine_wait_seconds: float = 30.0
    recovery_async: bool = True
    max_queue_depth: int = 0
    default_deadline_seconds: Optional[float] = None
    breaker_enabled: bool = False
    breaker_p99_threshold_seconds: float = 0.25
    breaker_quarantine_depth: int = 4
    breaker_window: int = 256
    breaker_min_samples: int = 32
    breaker_backoff_seconds: float = 0.1
    breaker_backoff_max_seconds: float = 2.0
    breaker_half_open_probes: int = 8
    breaker_jitter: float = 0.2
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.batch_timeout_seconds < 0:
            raise ValueError("batch_timeout_seconds must be non-negative")
        if self.scrub_period_seconds <= 0:
            raise ValueError("scrub_period_seconds must be positive")
        if self.quarantine_wait_seconds <= 0:
            raise ValueError("quarantine_wait_seconds must be positive")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative (0 = unbounded)")
        if self.default_deadline_seconds is not None and self.default_deadline_seconds <= 0:
            raise ValueError("default_deadline_seconds must be positive (or None)")
        if self.breaker_p99_threshold_seconds <= 0:
            raise ValueError("breaker_p99_threshold_seconds must be positive")
        if self.breaker_quarantine_depth < 1:
            raise ValueError("breaker_quarantine_depth must be at least 1")
        if self.breaker_window < 1:
            raise ValueError("breaker_window must be at least 1")
        if self.breaker_min_samples < 1:
            raise ValueError("breaker_min_samples must be at least 1")
        if self.breaker_backoff_seconds <= 0:
            raise ValueError("breaker_backoff_seconds must be positive")
        if self.breaker_backoff_max_seconds < self.breaker_backoff_seconds:
            raise ValueError(
                "breaker_backoff_max_seconds must be at least breaker_backoff_seconds"
            )
        if self.breaker_half_open_probes < 1:
            raise ValueError("breaker_half_open_probes must be at least 1")
        if not 0.0 <= self.breaker_jitter <= 1.0:
            raise ValueError("breaker_jitter must be in [0, 1]")
