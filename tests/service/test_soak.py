"""End-to-end soak test: the ISSUE's acceptance scenario.

A reduced MNIST model serves continuous single-sample traffic through the
batching engine while a Poisson driver injects >= 20 staggered bit flips into
the live weights and the background scrubber detects, quarantines and heals.
Every injected corruption must be detected, every layer restored bit-exactly,
no request may ever execute through a quarantined layer, and the SLA tracker
must report availability >= 0.99 at the default scrub period.
"""

from __future__ import annotations

import pytest

from repro.service import ServiceConfig, run_soak


@pytest.fixture(scope="module")
def soak_result():
    return run_soak(
        network="mnist_reduced",
        duration_seconds=6.0,
        mean_fault_interval_seconds=0.04,
        max_fault_events=20,
        scrub_period_seconds=ServiceConfig().scrub_period_seconds,
        request_interval_seconds=0.002,
        seed=4,
    )


class TestEndToEndSoak:
    def test_at_least_twenty_staggered_bit_flips(self, soak_result):
        assert len(soak_result.fault_events) >= 20
        # Staggered: the arrivals span the soak window, not one burst.
        stamps = [event.timestamp for event in soak_result.fault_events]
        assert max(stamps) - min(stamps) > 0.2

    def test_every_corruption_detected(self, soak_result):
        assert soak_result.injected_layers
        assert soak_result.all_errors_detected
        assert soak_result.sla.error_events_detected >= 1

    def test_recovered_bit_exact(self, soak_result):
        assert soak_result.converged
        assert soak_result.bit_exact
        assert soak_result.sla.layers_degraded == 0

    def test_no_request_saw_a_quarantined_layer(self, soak_result):
        assert soak_result.requests_completed > 0
        assert soak_result.served_during_quarantine == 0
        assert soak_result.requests_failed == 0

    def test_availability_sla(self, soak_result):
        assert soak_result.sla.scrub_period_seconds == pytest.approx(
            ServiceConfig().scrub_period_seconds
        )
        assert soak_result.sla.availability >= 0.99
        assert soak_result.sla.minimum_accuracy >= 0.999

    def test_latency_accounting_present(self, soak_result):
        assert soak_result.throughput_rps > 0
        assert 0 < soak_result.p50_latency_seconds <= soak_result.p99_latency_seconds

    def test_serving_ran_on_the_plan_fast_path(self, soak_result):
        # Every completed request was answered by a compiled plan at its
        # batch's real occupancy: fused where certified, else the bit-exact
        # fallback.
        assert soak_result.fused_served > 0
        assert (
            soak_result.fused_served + soak_result.fused_fallbacks
            == soak_result.requests_completed
        )

    def test_plan_invalidation_observed_after_repairs(self, soak_result):
        # Every fault/repair cycle mutates weights under the cached plans;
        # serving through the corruption (and again after the repair) must
        # have invalidated and recompiled them at least once.
        assert soak_result.fault_events
        assert soak_result.plan_invalidations >= 1
