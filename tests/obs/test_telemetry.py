"""Unit tests for the telemetry facade (repro.obs.telemetry)."""

from __future__ import annotations

import json

import pytest

from repro.obs import Telemetry, TelemetryConfig


class TestTelemetryConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.enabled
        assert config.trace_buffer_size == 65536

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(trace_buffer_size=0)
        with pytest.raises(ValueError):
            TelemetryConfig(latency_buckets=())
        with pytest.raises(ValueError):
            TelemetryConfig(latency_buckets=(2.0, 1.0))


class TestTelemetryHooks:
    def test_fresh_injection_opens_chain_and_counts(self):
        telemetry = Telemetry()
        fault_id = telemetry.fault_injected("m", 3, "bit_flip", False, 1.0, flipped_bits=2)
        assert fault_id is not None
        counter = telemetry.metrics.counter(
            "repro_faults_injected_total", model="m", fault_model="bit_flip", kind="fresh"
        )
        assert counter.value == 1
        assert telemetry.lifecycle.open_count() == 1

    def test_scratch_injection_counted_but_no_chain(self):
        telemetry = Telemetry()
        assert telemetry.fault_injected("m", -1, "scratch_noise", False, 1.0) is None
        counter = telemetry.metrics.counter(
            "repro_faults_injected_total",
            model="m", fault_model="scratch_noise", kind="fresh",
        )
        assert counter.value == 1
        assert telemetry.lifecycle.open_count() == 0

    def test_strategy_counters_count_stages_tried(self):
        telemetry = Telemetry()
        telemetry.strategy_attempted("checkpoint_free", False)
        telemetry.strategy_attempted("solver_snap", True)
        attempts = telemetry.metrics.counter(
            "repro_repair_strategy_attempts_total", strategy="checkpoint_free"
        )
        success = telemetry.metrics.counter(
            "repro_repair_strategy_success_total", strategy="solver_snap"
        )
        assert attempts.value == 1
        assert success.value == 1

    def test_full_lifecycle_through_facade(self):
        telemetry = Telemetry()
        telemetry.fault_injected("m", 3, "bit_flip", False, 1.0)
        telemetry.fault_detected("m", 3, 2.0, 2.5)
        telemetry.quarantine_opened("m", 3, 2.5)
        telemetry.repair_attempt("m", 3, 3.0, 4.0, "solver_snap", 1, True)
        telemetry.quarantine_closed("m", 3, 4.5)
        telemetry.fault_verified("m", 3, 4.0, 4.5, True)
        (chain,) = telemetry.fault_chains()
        assert chain.complete
        hist = telemetry.metrics.histogram(
            "repro_repair_seconds",
            buckets=telemetry.config.latency_buckets,
            model="m",
            strategy="solver_snap",
            layer="3",
        )
        assert hist.count == 1

    def test_repair_seconds_exposed_per_strategy_and_layer(self):
        telemetry = Telemetry()
        telemetry.repair_attempt("m", 3, 1.0, 1.5, "checkpoint_free", 1, True)
        telemetry.repair_attempt("m", 7, 2.0, 2.25, "residual_estimate", 1, True)
        telemetry.repair_attempt("m", 7, 3.0, 3.5, "residual_estimate", 2, True)
        text = telemetry.metrics.exposition()
        assert (
            'repro_repair_seconds_count{layer="3",model="m",strategy="checkpoint_free"} 1'
            in text
        )
        assert (
            'repro_repair_seconds_count{layer="7",model="m",strategy="residual_estimate"} 2'
            in text
        )
        assert (
            'repro_repair_seconds_sum{layer="7",model="m",strategy="residual_estimate"} 0.75'
            in text
        )
        assert text.count("# TYPE repro_repair_seconds histogram") == 1

    def test_degraded_counted_and_chain_left_open(self):
        telemetry = Telemetry()
        telemetry.fault_injected("m", 3, "bit_flip", False, 1.0)
        telemetry.fault_degraded("m", 3, 2.0)
        (chain,) = telemetry.fault_chains()
        assert not chain.closed
        counter = telemetry.metrics.counter("repro_faults_degraded_total", model="m")
        assert counter.value == 1

    def test_exports(self, tmp_path):
        telemetry = Telemetry()
        telemetry.fault_injected("m", 3, "bit_flip", False, 1.0)
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        assert telemetry.export_trace(trace_path) == 1
        snapshot = telemetry.export_metrics(metrics_path)
        assert json.loads(metrics_path.read_text())["counters"] == snapshot["counters"]

    def test_snapshot_without_registry(self):
        telemetry = Telemetry()
        snapshot = telemetry.snapshot()
        assert set(snapshot) >= {"time", "counters", "gauges", "histograms"}


class TestTelemetryDisabled:
    def test_every_hook_is_a_no_op(self):
        telemetry = Telemetry(TelemetryConfig(enabled=False))
        assert telemetry.fault_injected("m", 3, "bit_flip", False, 1.0) is None
        telemetry.fault_detected("m", 3, 1.0, 2.0)
        telemetry.quarantine_opened("m", 3, 2.0)
        telemetry.strategy_attempted("solver_snap", True)
        telemetry.repair_attempt("m", 3, 2.0, 3.0, "solver_snap", 1, True)
        telemetry.quarantine_closed("m", 3, 3.0)
        telemetry.fault_verified("m", 3, 3.0, 3.5, True)
        telemetry.fault_degraded("m", 3, 4.0)
        telemetry.collect([])
        assert telemetry.fault_chains() == []
        assert len(telemetry.tracer) == 0
        assert telemetry.snapshot()["counters"] == {}

    def test_disabled_tracer_spans_still_time(self):
        telemetry = Telemetry(TelemetryConfig(enabled=False))
        with telemetry.tracer.span("op") as span:
            pass
        assert span.end >= span.start
        assert len(telemetry.tracer) == 0
