"""Tests for the trace-driven traffic shapes and the admission simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.service import (
    CHAOS_SCENARIOS,
    BurstTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    PoissonTraffic,
    RampTraffic,
    ReplayTrace,
    SuperposedTraffic,
    Trace,
    TrafficShape,
    simulate_admission,
)


class TestTrace:
    def test_offsets_must_be_sorted(self):
        with pytest.raises(ExperimentError):
            Trace(offsets=np.array([0.2, 0.1]))

    def test_offsets_must_be_one_dimensional(self):
        with pytest.raises(ExperimentError):
            Trace(offsets=np.zeros((2, 2)))

    def test_metadata_lengths_must_match(self):
        with pytest.raises(ExperimentError):
            Trace(offsets=np.array([0.1, 0.2]), models=("a",))
        with pytest.raises(ExperimentError):
            Trace(offsets=np.array([0.1, 0.2]), result_delays=np.array([0.0]))

    def test_merge_is_a_stable_sorted_superposition(self):
        a = Trace(offsets=np.array([0.0, 0.5]), models=("x", "x"))
        b = Trace(
            offsets=np.array([0.25, 0.5]),
            models=("y", "y"),
            result_delays=np.array([0.1, 0.2]),
        )
        merged = a.merge(b)
        assert list(merged.offsets) == [0.0, 0.25, 0.5, 0.5]
        # Stable: a's 0.5 arrival sorts before b's.
        assert merged.models == ("x", "y", "x", "y")
        # a had no delays: they default to zero in the merge.
        np.testing.assert_allclose(merged.result_delays, [0.0, 0.1, 0.0, 0.2])

    def test_iteration_yields_arrivals(self):
        trace = Trace(offsets=np.array([0.1]), models=("m",))
        (arrival,) = list(trace)
        assert arrival.offset == pytest.approx(0.1)
        assert arrival.model == "m"
        assert arrival.result_delay_seconds == 0.0


class TestDeterminism:
    @pytest.mark.parametrize(
        "shape",
        [
            ConstantTraffic(rate_rps=100.0),
            PoissonTraffic(rate_rps=200.0, seed=3),
            DiurnalTraffic(base_rate_rps=150.0, amplitude=0.8, period_seconds=1.0, seed=4),
            BurstTraffic(base_rate_rps=50.0, burst_rate_rps=400.0, duty=0.3, seed=5),
            RampTraffic(start_rate_rps=10.0, end_rate_rps=300.0, ramp_seconds=2.0, seed=6),
            PoissonTraffic(
                rate_rps=150.0,
                seed=7,
                model_mix={"a": 1.0, "b": 3.0},
                straggler_fraction=0.25,
            ),
        ],
        ids=["constant", "poisson", "diurnal", "burst", "ramp", "decorated"],
    )
    def test_same_shape_expands_byte_identically(self, shape):
        first = shape.arrivals(2.0)
        second = shape.arrivals(2.0)
        assert first.offsets.tobytes() == second.offsets.tobytes()
        assert first.models == second.models
        if first.result_delays is None:
            assert second.result_delays is None
        else:
            assert first.result_delays.tobytes() == second.result_delays.tobytes()

    def test_different_seeds_differ(self):
        a = PoissonTraffic(rate_rps=200.0, seed=1).arrivals(2.0)
        b = PoissonTraffic(rate_rps=200.0, seed=2).arrivals(2.0)
        assert a.offsets.tobytes() != b.offsets.tobytes()


class TestShapes:
    def test_constant_traffic_is_evenly_spaced(self):
        trace = ConstantTraffic(rate_rps=100.0).arrivals(1.0)
        assert len(trace) == 100
        np.testing.assert_allclose(np.diff(trace.offsets), 0.01)

    def test_zero_rate_yields_empty_trace(self):
        assert len(ConstantTraffic(rate_rps=0.0).arrivals(1.0)) == 0
        assert len(PoissonTraffic(rate_rps=0.0).arrivals(1.0)) == 0

    def test_poisson_count_near_expectation(self):
        trace = PoissonTraffic(rate_rps=500.0, seed=0).arrivals(4.0)
        # 2000 expected; 5 sigma ~ 224.
        assert 1700 < len(trace) < 2300
        assert float(trace.offsets[-1]) < 4.0

    def test_diurnal_rate_curve_and_peak(self):
        shape = DiurnalTraffic(base_rate_rps=100.0, amplitude=0.5, period_seconds=4.0)
        assert shape.rate(0.0) == pytest.approx(100.0)
        assert shape.rate(1.0) == pytest.approx(150.0)  # sin peak at t = period/4
        assert shape.rate(3.0) == pytest.approx(50.0)
        assert shape.peak_rate == pytest.approx(150.0)

    def test_burst_rate_follows_the_duty_cycle(self):
        shape = BurstTraffic(
            base_rate_rps=10.0, burst_rate_rps=100.0, period_seconds=1.0, duty=0.25
        )
        assert shape.rate(0.1) == pytest.approx(100.0)
        assert shape.rate(0.5) == pytest.approx(10.0)
        assert shape.rate(1.1) == pytest.approx(100.0)
        assert shape.peak_rate == pytest.approx(100.0)

    def test_burst_trace_concentrates_in_bursts(self):
        trace = BurstTraffic(
            base_rate_rps=0.0,
            burst_rate_rps=400.0,
            period_seconds=1.0,
            duty=0.25,
            seed=8,
        ).arrivals(4.0)
        assert len(trace) > 0
        assert np.all((trace.offsets % 1.0) < 0.25)

    def test_ramp_rate_is_linear_then_flat(self):
        shape = RampTraffic(start_rate_rps=0.0, end_rate_rps=100.0, ramp_seconds=2.0)
        assert shape.rate(0.0) == pytest.approx(0.0)
        assert shape.rate(1.0) == pytest.approx(50.0)
        assert shape.rate(5.0) == pytest.approx(100.0)

    def test_superposition_concatenates_component_traces(self):
        a = ConstantTraffic(rate_rps=50.0)
        b = ConstantTraffic(rate_rps=25.0)
        combined = a + b
        assert isinstance(combined, SuperposedTraffic)
        trace = combined.arrivals(1.0)
        assert len(trace) == len(a.arrivals(1.0)) + len(b.arrivals(1.0))
        assert np.all(np.diff(trace.offsets) >= 0)
        # Adding to a superposition flattens instead of nesting.
        triple = combined + ConstantTraffic(rate_rps=10.0)
        assert len(triple.shapes) == 3
        assert combined.rate(0.0) == pytest.approx(75.0)

    def test_replay_trace_clips_to_duration_and_keeps_metadata(self):
        replay = ReplayTrace(
            offsets=[0.1, 0.5, 1.5],
            models=["a", None, "b"],
            result_delays=[0.0, 0.2, 0.3],
        )
        trace = replay.arrivals(1.0)
        assert list(trace.offsets) == [0.1, 0.5]
        assert trace.models == ("a", None)
        np.testing.assert_allclose(trace.result_delays, [0.0, 0.2])

    def test_replayed_trace_round_trips_a_recorded_shape(self):
        recorded = PoissonTraffic(rate_rps=200.0, seed=9).arrivals(1.0)
        replayed = ReplayTrace(offsets=recorded.offsets).arrivals(1.0)
        assert replayed.offsets.tobytes() == recorded.offsets.tobytes()


class TestDecoration:
    def test_model_mix_is_normalized_and_sorted(self):
        shape = PoissonTraffic(rate_rps=10.0, model_mix={"b": 3.0, "a": 1.0})
        assert shape.model_mix == {"a": 0.25, "b": 0.75}

    def test_model_mix_draws_cover_the_mix(self):
        trace = PoissonTraffic(
            rate_rps=500.0, seed=10, model_mix={"a": 1.0, "b": 1.0}
        ).arrivals(2.0)
        assert set(trace.models) == {"a", "b"}

    def test_invalid_model_mix_rejected(self):
        with pytest.raises(ExperimentError):
            PoissonTraffic(rate_rps=1.0, model_mix={"a": -1.0})
        with pytest.raises(ExperimentError):
            PoissonTraffic(rate_rps=1.0, model_mix={"a": 0.0, "b": 0.0})
        with pytest.raises(ExperimentError):
            PoissonTraffic(rate_rps=1.0, model_mix={})

    def test_straggler_fraction_and_delay_range(self):
        trace = PoissonTraffic(
            rate_rps=500.0,
            seed=11,
            straggler_fraction=0.5,
            straggler_delay_seconds=(0.2, 0.4),
        ).arrivals(2.0)
        delays = trace.result_delays
        slow = delays[delays > 0]
        assert 0.3 < slow.size / len(trace) < 0.7
        assert np.all((slow >= 0.2) & (slow <= 0.4))

    def test_invalid_straggler_settings_rejected(self):
        with pytest.raises(ExperimentError):
            PoissonTraffic(rate_rps=1.0, straggler_fraction=1.5)
        with pytest.raises(ExperimentError):
            PoissonTraffic(
                rate_rps=1.0,
                straggler_fraction=0.1,
                straggler_delay_seconds=(0.5, 0.2),
            )

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ExperimentError):
            ConstantTraffic(rate_rps=1.0).arrivals(0.0)
        with pytest.raises(ExperimentError):
            ReplayTrace(offsets=[0.1]).arrivals(-1.0)

    def test_base_class_rate_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TrafficShape().rate(0.0)


class TestAdmissionSimulation:
    def test_unbounded_queue_serves_everything(self):
        trace = ConstantTraffic(rate_rps=100.0).arrivals(1.0)
        sim = simulate_admission(trace, service_seconds_per_request=0.001)
        assert sim.served == len(trace)
        assert sim.shed_queue == sim.shed_deadline == 0
        assert sim.decisions == ("served",) * len(trace)

    def test_overload_sheds_at_the_queue_bound(self):
        # 100 rps against a 10 rps server with a 4-deep queue: most arrivals
        # find the system full and are rejected.
        trace = ConstantTraffic(rate_rps=100.0).arrivals(1.0)
        sim = simulate_admission(
            trace, service_seconds_per_request=0.1, max_queue_depth=4
        )
        assert sim.shed_queue > 0
        assert sim.served + sim.shed_queue == len(trace)
        # The system never holds more than the bound, so the serve rate is
        # pinned to the server: about 10 served in the 1 s window (+ drain).
        assert sim.served <= 4 + 10

    def test_deadline_drops_are_counted_separately(self):
        trace = ConstantTraffic(rate_rps=100.0).arrivals(1.0)
        sim = simulate_admission(
            trace, service_seconds_per_request=0.05, deadline_seconds=0.1
        )
        assert sim.shed_deadline > 0
        assert sim.shed_queue == 0
        assert sim.served + sim.shed_deadline == len(trace)
        assert sim.admitted == len(trace)

    def test_simulation_is_deterministic(self):
        trace = PoissonTraffic(rate_rps=300.0, seed=12).arrivals(2.0)
        kwargs = dict(
            service_seconds_per_request=0.005,
            max_queue_depth=8,
            deadline_seconds=0.05,
        )
        assert simulate_admission(trace, **kwargs) == simulate_admission(
            trace, **kwargs
        )

    def test_invalid_parameters_rejected(self):
        trace = Trace(offsets=np.array([0.0]))
        with pytest.raises(ExperimentError):
            simulate_admission(trace, service_seconds_per_request=0.0)
        with pytest.raises(ExperimentError):
            simulate_admission(trace, 0.01, max_queue_depth=-1)


class TestChaosScenarios:
    def test_registry_names(self):
        assert {"burst-storm", "diurnal-with-stuck-at", "straggler-flood"} <= set(
            CHAOS_SCENARIOS
        )

    @pytest.mark.parametrize("name", sorted(CHAOS_SCENARIOS))
    def test_traffic_factories_build_expandable_shapes(self, name):
        scenario = CHAOS_SCENARIOS[name]
        assert scenario.name == name
        shape = scenario.traffic_factory(100.0, 7)
        trace = shape.arrivals(1.0)
        assert len(trace) > 0
        # Scaled to capacity: peak envelope tracks the capacity argument.
        bigger = scenario.traffic_factory(200.0, 7)
        assert bigger.peak_rate == pytest.approx(2.0 * shape.peak_rate)

    def test_scenarios_declare_bounded_queues(self):
        for scenario in CHAOS_SCENARIOS.values():
            assert scenario.max_queue_depth > 0
            assert scenario.fault_models
