"""End-to-end soaks for the fault-model zoo (the ISSUE's acceptance scenarios).

Two scenarios beyond the classic bit-flip soak:

* **Stuck-at cells** -- persistent faults re-assert after every bit-exact
  repair, so the scrubber's repeat-offender tracking must promote the cells
  to the blacklist and heal them via the remap pass, keeping availability
  >= 0.99 at the default scrub period.
* **Activation/scratch corruption** -- faults land in ForwardPlan-owned pad
  buffers that CheckpointStore cannot see; the per-serve scratch canary must
  catch (and heal) them with zero weight-checkpoint involvement.
"""

from __future__ import annotations

import pytest

from repro.service import SCRATCH_LAYER_NAME, run_soak


@pytest.fixture(scope="module")
def stuck_at_result():
    return run_soak(
        network="mnist_reduced",
        duration_seconds=5.0,
        mean_fault_interval_seconds=0.8,
        scrub_period_seconds=0.25,
        request_interval_seconds=0.002,
        seed=3,
        fault_models={"stuck_at": 1.0},
        reassert_interval_seconds=0.1,
    )


@pytest.fixture(scope="module")
def activation_result():
    return run_soak(
        network="cifar_reduced",
        duration_seconds=4.0,
        mean_fault_interval_seconds=0.3,
        scrub_period_seconds=0.25,
        request_interval_seconds=0.002,
        seed=5,
        fault_models={"activation": 1.0},
    )


@pytest.fixture(scope="module")
def fused_pressure_run(record_fused_serves):
    # mnist_bn folds its BatchNorms into the conv kernels, so fused serving
    # here exercises the full certification surface under weight pressure.
    with record_fused_serves() as certificates:
        result = run_soak(
            network="mnist_bn",
            duration_seconds=4.0,
            mean_fault_interval_seconds=0.4,
            scrub_period_seconds=0.25,
            request_interval_seconds=0.002,
            seed=7,
        )
    return result, certificates


@pytest.fixture(scope="module")
def fused_pressure_result(fused_pressure_run):
    return fused_pressure_run[0]


class TestFusedServingSoak:
    def test_fused_serving_stays_certified_under_pressure(
        self, fused_pressure_run
    ):
        # The certified-fusion invariant: every fused serve is backed by a
        # passing certificate, no matter how the fault driver mangles the
        # weights mid-flight.  Corruption invalidates the plan (stale epoch),
        # recompiles pick up a new digest, and the new digest either
        # re-certifies or falls back to the bit-exact plan.
        result, certificates = fused_pressure_run
        assert result.fault_events
        assert result.fused_served > 0
        assert certificates
        assert all(c is not None and c.certified for c in certificates)

    def test_recovery_invariants_hold_with_fusion_on(self, fused_pressure_result):
        result = fused_pressure_result
        assert result.all_errors_detected
        assert result.bit_exact
        assert result.converged
        assert result.requests_completed > 0
        assert result.requests_failed == 0
        assert result.sla.availability >= 0.99


class TestStuckAtSoak:
    def test_persistent_faults_reasserted(self, stuck_at_result):
        fresh = [e for e in stuck_at_result.fault_events if not e.reasserted]
        reasserted = [e for e in stuck_at_result.fault_events if e.reasserted]
        assert fresh and reasserted
        assert all(e.fault_model == "stuck_at" for e in stuck_at_result.fault_events)

    def test_repeat_offenders_blacklisted_and_remapped(self, stuck_at_result):
        # The scrubber saw the same cells dirty after bit-exact repairs,
        # promoted them to stuck-at hardware, and healed later re-assertions
        # through the remap pass instead of full recovery cycles.
        assert stuck_at_result.blacklisted_cells >= 1
        assert stuck_at_result.remap_repairs >= 1

    def test_detected_recovered_bit_exact(self, stuck_at_result):
        assert stuck_at_result.injected_layers
        assert stuck_at_result.all_errors_detected
        assert stuck_at_result.bit_exact
        assert stuck_at_result.converged

    def test_availability_sla(self, stuck_at_result):
        assert stuck_at_result.sla.availability >= 0.99
        assert stuck_at_result.requests_completed > 0
        assert stuck_at_result.requests_failed == 0


class TestActivationSoak:
    def test_scratch_canary_detects_the_corruption(self, activation_result):
        events = activation_result.fault_events
        assert events
        assert all(e.layer_name == SCRATCH_LAYER_NAME for e in events)
        assert all(e.layer_index == -1 for e in events)
        # One serve heals *all* standing scratch dirt, so two injections
        # landing between consecutive serves coalesce into a single canary
        # detection; the count is therefore >= 1 but not >= len(events).
        assert activation_result.scratch_detections >= 1

    def test_checkpoint_store_never_involved(self, activation_result):
        # Ground truth: no weight layer was corrupted, and the scrubber's
        # checkpoint-based detection never quarantined anything.
        assert activation_result.injected_layers == frozenset()
        assert activation_result.detected_layers == frozenset()

    def test_weights_untouched_and_serving_clean(self, activation_result):
        assert activation_result.bit_exact
        assert activation_result.converged
        assert activation_result.requests_completed > 0
        assert activation_result.requests_failed == 0
        assert activation_result.sla.availability >= 0.99
