"""Telemetry facade: one object owning the tracer, metrics and fault log.

The service runtime talks to observability through this single class so the
whole layer stays removable: :class:`TelemetryConfig` (carried on
``ServiceConfig``) builds either a live instance or a disabled one whose
every hook is an early return -- with telemetry disabled the service runs
today's exact code paths (verified by a bit-exactness test), and telemetry
never consumes service RNG streams in either mode.

Hook map (who calls what):

* ``FaultPressureDriver``   -> :meth:`fault_injected`
* ``Scrubber.scrub_model``  -> :meth:`fault_detected` + detection spans
* ``ManagedModel``          -> :meth:`quarantine_opened` / :meth:`quarantine_closed`
* ``Scrubber._recover``     -> :meth:`repair_attempt`, :meth:`fault_verified`,
  :meth:`fault_degraded` + recovery spans
* ``InferenceEngine``       -> serve spans + latency histograms
* :meth:`collect`           -> mirrors ``RequestStats`` / ``PlanStats`` /
  ``DetectionStats`` / SLA into gauges at snapshot time (nn/ and core/ stay
  free of any obs dependency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.lifecycle import FaultChainSummary, FaultLifecycleLog
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["TelemetryConfig", "Telemetry"]


@dataclass(frozen=True)
class TelemetryConfig:
    """Tunables of the telemetry layer (carried on ``ServiceConfig``).

    Attributes:
        enabled: Master switch.  Disabled telemetry records nothing, exports
            nothing and adds nothing but a cheap flag check to the hot paths.
        trace_buffer_size: Ring-buffer capacity of the span tracer; a long
            soak drops the oldest spans rather than growing without bound.
        latency_buckets: Finite histogram bucket bounds (seconds) shared by
            the serve/scrub/repair latency histograms.
    """

    enabled: bool = True
    trace_buffer_size: int = 65536
    latency_buckets: tuple = DEFAULT_LATENCY_BUCKETS

    def __post_init__(self) -> None:
        if self.trace_buffer_size < 1:
            raise ValueError("trace_buffer_size must be at least 1")
        bounds = tuple(float(b) for b in self.latency_buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("latency_buckets must be non-empty and increasing")


class Telemetry:
    """Tracer + metrics registry + fault-lifecycle log behind one switch."""

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config or TelemetryConfig()
        self.enabled = self.config.enabled
        self.tracer = Tracer(
            enabled=self.enabled, capacity=self.config.trace_buffer_size
        )
        self.metrics = MetricsRegistry(enabled=self.enabled)
        self.lifecycle = FaultLifecycleLog(self.tracer, enabled=self.enabled)

    # ------------------------------------------------------------------ #
    # Fault-lifecycle hooks
    # ------------------------------------------------------------------ #
    def fault_injected(
        self,
        model_name: str,
        layer_index: int,
        fault_model: str,
        reasserted: bool,
        timestamp: float,
        flipped_bits: int = 0,
    ) -> Optional[str]:
        """An injection landed; opens (or re-opens) its lifecycle chain.

        Scratch-buffer events (``layer_index < 0``) corrupt plan scratch, not
        layer weights -- they are counted but get no chain (weight-checkpoint
        detection cannot close one).
        """
        if not self.enabled:
            return None
        kind = "reassert" if reasserted else "fresh"
        self.metrics.counter(
            "repro_faults_injected_total", model=model_name, fault_model=fault_model,
            kind=kind,
        ).inc()
        if layer_index < 0:
            return None
        return self.lifecycle.on_inject(
            model_name,
            layer_index,
            fault_model,
            reasserted,
            timestamp,
            attrs={"flipped_bits": flipped_bits},
        )

    def fault_detected(
        self, model_name: str, layer_index: int, start: float, end: float
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter(
            "repro_faults_detected_total", model=model_name
        ).inc()
        self.lifecycle.on_detect(model_name, layer_index, start, end)

    def quarantine_opened(
        self, model_name: str, layer_index: int, timestamp: float
    ) -> None:
        if not self.enabled:
            return
        self.lifecycle.on_quarantine_open(model_name, layer_index, timestamp)

    def quarantine_closed(
        self, model_name: str, layer_index: int, timestamp: float
    ) -> None:
        if not self.enabled:
            return
        self.lifecycle.on_quarantine_close(model_name, layer_index, timestamp)

    def strategy_attempted(self, strategy: str, success: bool) -> None:
        """One stage of the repair chain ran (strategy granularity).

        A single layer repair can walk several strategies (checkpoint-free ->
        residual estimate -> solver+snap -> estimate-guided), so these
        counters are bumped per *stage tried*, not per repair call -- the
        attempts/success ratio says how often the cheap strategies fall
        through to the expensive ones.
        """
        if not self.enabled:
            return
        self.metrics.counter(
            "repro_repair_strategy_attempts_total", strategy=strategy or "none"
        ).inc()
        if success:
            self.metrics.counter(
                "repro_repair_strategy_success_total", strategy=strategy or "none"
            ).inc()

    def repair_attempt(
        self,
        model_name: str,
        layer_index: int,
        start: float,
        end: float,
        strategy: str,
        round_number: int,
        bit_exact: bool,
    ) -> None:
        """One :meth:`Scrubber._repair_layer` call finished on one layer.

        The duration is labelled by the strategy that produced the outcome
        and the layer index, so the slowest layer to repair is one lookup.
        """
        if not self.enabled:
            return
        self.metrics.histogram(
            "repro_repair_seconds", buckets=self.config.latency_buckets,
            model=model_name, strategy=strategy or "none", layer=str(layer_index),
        ).observe(max(0.0, end - start))
        self.lifecycle.on_repair(
            model_name, layer_index, start, end, strategy, round_number, bit_exact
        )

    def fault_verified(
        self,
        model_name: str,
        layer_index: int,
        start: float,
        end: float,
        bit_exact: bool,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter(
            "repro_faults_verified_total", model=model_name
        ).inc()
        self.lifecycle.on_verify(model_name, layer_index, start, end, bit_exact)

    def fault_degraded(
        self, model_name: str, layer_index: int, timestamp: float
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter(
            "repro_faults_degraded_total", model=model_name
        ).inc()
        self.lifecycle.on_degrade(model_name, layer_index, timestamp)

    # ------------------------------------------------------------------ #
    # Overload-protection hooks
    # ------------------------------------------------------------------ #
    def request_shed(self, model_name: str, reason: str) -> None:
        """One request was shed at admission or dropped at its deadline."""
        if not self.enabled:
            return
        self.metrics.counter(
            "repro_requests_shed_total", model=model_name, reason=reason
        ).inc()

    def breaker_transition(
        self, model_name: str, from_state: str, to_state: str, timestamp: float,
        reason: str = "",
    ) -> None:
        """A model's circuit breaker changed state (point span + counter)."""
        if not self.enabled:
            return
        self.metrics.counter(
            "repro_breaker_transitions_total", model=model_name, to=to_state
        ).inc()
        self.tracer.record(
            "breaker.transition",
            start=timestamp,
            end=timestamp,
            attrs={
                "model": model_name,
                "from": from_state,
                "to": to_state,
                "reason": reason,
            },
        )

    # ------------------------------------------------------------------ #
    # Snapshot / export
    # ------------------------------------------------------------------ #
    def collect(self, registry) -> None:
        """Mirror per-model runtime counters into gauges.

        ``registry`` is any iterable of managed models (duck-typed so obs/
        never imports service/).  Called right before a snapshot or
        exposition, so the nn- and core-layer stats objects stay plain
        dataclasses with no telemetry dependency.
        """
        if not self.enabled:
            return
        for entry in registry:
            name = entry.name

            def gauge(metric: str, value: float, _name: str = name) -> None:
                self.metrics.gauge(metric, model=_name).set(value)

            stats = entry.stats
            gauge("repro_serve_requests_completed", stats.requests_completed)
            gauge("repro_serve_requests_failed", stats.requests_failed)
            gauge("repro_serve_batches_executed", stats.batches_executed)
            gauge(
                "repro_serve_during_quarantine", stats.served_during_quarantine
            )
            plan = entry.model.plan_stats
            gauge("repro_plan_compiles", plan.compiles)
            gauge("repro_plan_hits", plan.hits)
            gauge("repro_plan_invalidations", plan.invalidations)
            gauge("repro_plan_scratch_detections", plan.scratch_detections)
            engine = entry.protector.detection_engine
            if engine is not None:
                det = engine.stats
                gauge("repro_detect_passes", det.passes)
                gauge("repro_detect_layers_scanned", det.layers_scanned)
                gauge("repro_detect_input_cache_hits", det.input_cache_hits)
                gauge("repro_detect_input_cache_misses", det.input_cache_misses)
                gauge("repro_detect_localize_cache_hits", det.localize_cache_hits)
                gauge(
                    "repro_detect_localize_cache_misses", det.localize_cache_misses
                )
                gauge("repro_detect_localize_clean_skips", det.localize_clean_skips)
            gauge("repro_serve_requests_shed", stats.requests_shed)
            gauge("repro_serve_served_degraded", stats.served_degraded)
            gauge("repro_queue_depth_highwater", stats.queue_depth_highwater)
            breaker = getattr(entry, "breaker", None)
            if breaker is not None:
                gauge("repro_breaker_open", 1.0 if breaker.state == "open" else 0.0)
                gauge("repro_breaker_opens", breaker.opens)
                gauge("repro_breaker_shed", breaker.shed)
            gauge("repro_quarantined_layers", len(entry.quarantined))
            gauge("repro_degraded_layers", len(entry.degraded))
            gauge("repro_blacklisted_cells", entry.blacklisted_cell_count)
            gauge("repro_remap_repairs", entry.remap_repairs)
            sla = entry.tracker
            gauge("repro_sla_observed_availability", sla.observed_availability())
            gauge("repro_sla_elapsed_seconds", sla.elapsed_seconds())
        gauge_open = self.metrics.gauge("repro_fault_chains_open")
        gauge_open.set(self.lifecycle.open_count())
        self.metrics.gauge("repro_fault_chains_total").set(len(self.lifecycle))
        self.metrics.gauge("repro_trace_spans_retained").set(len(self.tracer))
        self.metrics.gauge("repro_trace_spans_dropped").set(self.tracer.dropped)

    def fault_chains(self) -> "list[FaultChainSummary]":
        return self.lifecycle.summaries()

    def snapshot(self, registry=None) -> dict:
        """Metrics snapshot dict (gauges refreshed from ``registry`` first)."""
        if registry is not None:
            self.collect(registry)
        return self.metrics.snapshot()

    def export_trace(self, path) -> int:
        """Write the retained spans to ``path`` as JSONL; returns the count."""
        return self.tracer.export_jsonl(path)

    def export_metrics(self, path, registry=None) -> dict:
        """Append one metrics snapshot line to ``path``; returns the snapshot."""
        return self.metrics.export_jsonl(path, snapshot=self.snapshot(registry))
