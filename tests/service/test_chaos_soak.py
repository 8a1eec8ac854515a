"""Acceptance tests for the chaos harness: overload soaks and SLO gating.

The tentpole criterion: a chaos soak at 3x the measured sustained capacity
under mixed fault pressure keeps admitted-request availability >= 0.99 with
bounded queue memory, drains without hangs, and emits a machine-readable
:class:`SLOReport`.  Capacity is measured on this machine (via
:func:`calibrate_capacity`), so the overload factor means the same thing
everywhere.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ExperimentError
from repro.service import (
    BurstTraffic,
    ConstantTraffic,
    ServiceConfig,
    calibrate_capacity,
    run_chaos_scenario,
    run_soak,
)


@pytest.fixture(scope="module")
def capacity_rps():
    return calibrate_capacity(samples=192, seed=0)


class TestCalibration:
    def test_capacity_is_a_sane_rate(self, capacity_rps):
        # Even a slow CI box clears hundreds of single-sample requests/s on
        # the tiny reduced network.
        assert capacity_rps > 50.0


class TestSoakWithTraffic:
    def test_overloaded_soak_drains_clean(self, capacity_rps):
        """Drain-after-overload: every request resolves, nothing hangs."""
        result = run_soak(
            duration_seconds=1.5,
            traffic=ConstantTraffic(rate_rps=3.0 * capacity_rps),
            mean_fault_interval_seconds=0.4,
            scrub_period_seconds=0.1,
            seed=2,
            service_config=ServiceConfig(max_queue_depth=64),
        )
        assert result.errors == ()
        assert result.converged
        assert result.requests_completed > 0
        assert result.requests_shed > 0  # 3x overload must shed
        assert result.queue_depth_highwater <= 64
        assert result.slo is not None
        # Shed requests never count against admitted availability.
        assert result.slo.shed_total == result.requests_shed

    def test_slo_accounting_balances(self, capacity_rps):
        result = run_soak(
            duration_seconds=1.0,
            traffic=ConstantTraffic(rate_rps=0.5 * capacity_rps),
            mean_fault_interval_seconds=0.5,
            scrub_period_seconds=0.1,
            seed=3,
            service_config=ServiceConfig(max_queue_depth=128),
        )
        slo = result.slo
        assert slo.admitted == slo.served + slo.failed + slo.shed_deadline + slo.pending
        assert slo.served == slo.served_healthy + slo.served_degraded
        assert 0.0 <= slo.admitted_availability <= 1.0


class TestChaosAcceptance:
    def test_three_x_overload_meets_the_slo(self, capacity_rps, record_fused_serves):
        """The headline acceptance run: 3x capacity, mixed faults, SLO >= 0.99."""
        with record_fused_serves() as certificates:
            result = run_chaos_scenario(
                "burst-storm",
                duration_seconds=2.0,
                seed=0,
                capacity_rps=capacity_rps,
            )
        soak = result.soak
        assert result.passed, result.violations
        assert soak.slo.admitted_availability >= 0.99
        assert soak.converged
        # Every fused serve of the overloaded, fault-pressured run carried a
        # passing certificate.
        assert certificates
        assert all(c is not None and c.certified for c in certificates)
        assert soak.queue_depth_highwater <= 256  # the scenario's bound
        assert soak.errors == ()
        # Overload actually happened: the bursts run at 3x capacity.
        assert soak.requests_shed > 0

    def test_result_is_machine_readable(self, capacity_rps):
        result = run_chaos_scenario(
            "straggler-flood",
            duration_seconds=1.0,
            seed=1,
            capacity_rps=capacity_rps,
        )
        payload = result.as_dict()
        encoded = json.loads(json.dumps(payload))
        assert encoded["scenario"] == "straggler-flood"
        assert "slo" in encoded
        assert encoded["slo"]["admitted_availability"] == pytest.approx(
            result.soak.slo.admitted_availability
        )
        assert isinstance(encoded["violations"], list)

    def test_unknown_scenario_raises_with_the_valid_names(self):
        with pytest.raises(ExperimentError, match="burst-storm"):
            run_chaos_scenario("not-a-scenario", capacity_rps=100.0)

    def test_violations_flag_a_failing_run(self, capacity_rps):
        """An availability miss turns into a reported violation, not a crash."""
        result = run_chaos_scenario(
            "diurnal-with-stuck-at",
            duration_seconds=1.5,
            seed=4,
            capacity_rps=capacity_rps,
            service_config=ServiceConfig(
                # A quarantine wait too short to ride out recovery: batches
                # that land during a quarantine fail, and the judge reports
                # the availability miss instead of crashing.
                quarantine_wait_seconds=0.001,
            ),
        )
        assert isinstance(result.violations, tuple)
        if result.soak.slo.admitted_availability < 0.99:
            assert not result.passed
            assert any("availability" in v for v in result.violations)


class TestTrafficDeterminism:
    def test_same_seed_same_trace_same_admission_sim(self, capacity_rps):
        shape_a = BurstTraffic(
            base_rate_rps=0.5 * capacity_rps,
            burst_rate_rps=3.0 * capacity_rps,
            duty=0.35,
            seed=7,
        )
        shape_b = BurstTraffic(
            base_rate_rps=0.5 * capacity_rps,
            burst_rate_rps=3.0 * capacity_rps,
            duty=0.35,
            seed=7,
        )
        assert (
            shape_a.arrivals(2.0).offsets.tobytes()
            == shape_b.arrivals(2.0).offsets.tobytes()
        )
