"""Tests for the model registry and the batching inference engine."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.exceptions import ExperimentError, ShapeError
from repro.nn import Sequential
from repro.service import ModelRegistry, SelfHealingService, ServiceConfig


class TestModelRegistry:
    def test_load_initializes_protection(self, sync_service):
        _, entry = sync_service
        assert entry.protector.initialized
        assert entry.parameterized_indices
        assert entry.is_healthy()

    def test_conv_layers_store_crc_codes(self, sync_service):
        """Registration equips every conv layer for self-contained repair."""
        _, entry = sync_service
        store = entry.protector.store
        from repro.nn.layers import Conv2D

        conv_indices = [
            index
            for index in entry.parameterized_indices
            if isinstance(entry.model.layers[index], Conv2D)
        ]
        assert conv_indices
        for index in conv_indices:
            assert index in store.crc_codes
            assert store.golden_fingerprint_for(index)

    def test_duplicate_name_rejected(self, sync_service):
        service, entry = sync_service
        with pytest.raises(ExperimentError):
            service.registry.register(entry.name, entry.model)

    def test_unknown_lookups_raise(self):
        registry = ModelRegistry()
        with pytest.raises(ExperimentError):
            registry.get("nope")
        with pytest.raises(ExperimentError):
            registry.load("not_a_network")

    def test_quarantine_bookkeeping(self, sync_service):
        _, entry = sync_service
        index = entry.parameterized_indices[0]
        entry.quarantine([index])
        assert not entry.is_healthy()
        assert index in entry.quarantined
        assert index in entry.ever_quarantined
        entry.clear_quarantine([index])
        assert entry.is_healthy()
        assert index in entry.ever_quarantined  # ground truth never clears


class TestInferenceEngine:
    def test_predictions_match_direct_forward(self, sync_service, rng):
        service, entry = sync_service
        samples = rng.random((5,) + entry.model.input_shape).astype(np.float32)
        expected = entry.model.predict(samples, use_plan=False)
        with service:
            outputs = service.predict(entry.name, samples, timeout=10.0)
        # Served through the certified-fused default: tolerance-equivalent to
        # the seed forward (the ULP certification bounds the divergence) and
        # byte-identical to a fused predict of the same batch.
        np.testing.assert_allclose(outputs, expected, rtol=1e-5, atol=1e-6)
        assert (
            outputs.tobytes()
            == entry.model.predict(samples, fused=True).tobytes()
        )

    def test_latency_and_stats_recorded(self, sync_service, rng):
        service, entry = sync_service
        sample = rng.random(entry.model.input_shape).astype(np.float32)
        with service:
            request = service.submit(entry.name, sample)
            request.result(timeout=10.0)
        assert request.done() and not request.failed
        assert request.latency_seconds is not None and request.latency_seconds > 0
        assert entry.stats.requests_completed >= 1
        assert entry.stats.batches_executed >= 1
        assert entry.stats.served_during_quarantine == 0

    def test_bad_shape_rejected_at_submit(self, sync_service):
        service, entry = sync_service
        with service:
            with pytest.raises(ShapeError):
                service.submit(entry.name, np.zeros((3, 3), dtype=np.float32))

    def test_submit_requires_running_engine(self, sync_service, rng):
        service, entry = sync_service
        sample = rng.random(entry.model.input_shape).astype(np.float32)
        with pytest.raises(ExperimentError):
            service.submit(entry.name, sample)
        with service:
            service.submit(entry.name, sample).result(timeout=10.0)
        with pytest.raises(ExperimentError):
            service.submit(entry.name, sample)

    def test_quarantine_pauses_serving_until_healthy(self, sync_service, rng):
        service, entry = sync_service
        index = entry.parameterized_indices[0]
        sample = rng.random(entry.model.input_shape).astype(np.float32)
        # Engine only -- with the scrubber running it would immediately
        # re-verify the (phantom) quarantine and lift it.
        service.start(scrub=False)
        try:
            entry.quarantine([index])
            request = service.submit(entry.name, sample)
            time.sleep(0.2)
            assert not request.done()  # no request is served while quarantined
            entry.clear_quarantine([index])
            request.result(timeout=10.0)
        finally:
            service.stop()
        assert entry.stats.served_during_quarantine == 0

    def test_model_added_while_running_gets_a_worker(self, rng):
        service = SelfHealingService(ServiceConfig(recovery_async=False))
        with service:
            entry = service.load_model("mnist_reduced", name="late")
            sample = rng.random(entry.model.input_shape).astype(np.float32)
            service.submit("late", sample).result(timeout=10.0)
        assert entry.stats.requests_completed == 1

    def test_partial_batches_are_not_padded_by_default(
        self, sync_service, rng, monkeypatch
    ):
        service, entry = sync_service
        sample = rng.random(entry.model.input_shape).astype(np.float32)
        forward_batches: list[int] = []
        served = Sequential.predict_served

        def recording(model, inputs, *args, **kwargs):
            forward_batches.append(len(inputs))
            return served(model, inputs, *args, **kwargs)

        with service:
            # Record only live serves, not the worker's plan warm-up.
            service.submit(entry.name, sample).result(timeout=10.0)
            monkeypatch.setattr(Sequential, "predict_served", recording)
            service.submit(entry.name, sample).result(timeout=10.0)
        # A lone request runs a 1-sample forward: partial batches are never
        # padded to max_batch.
        assert forward_batches == [1]
        assert entry.stats.samples_served == 2

    def test_plan_cache_sized_for_max_batch(self):
        service = SelfHealingService(ServiceConfig(recovery_async=False, max_batch=24))
        entry = service.load_model("mnist_reduced", name="big_batches")
        assert entry.model.plan_cache_size >= 24 + 2

    def test_engine_outputs_match_unbatched_predict_exactly(self, rng):
        # Four requests form one batch (a window far longer than the submit
        # loop), so each request's answer must be byte-identical to its row of
        # a direct fused forward of the same four samples: the request ->
        # output-row mapping is exact, bit for bit.
        service = SelfHealingService(
            ServiceConfig(recovery_async=False, max_batch=4, batch_timeout_seconds=5.0)
        )
        entry = service.load_model("mnist_reduced")
        samples = rng.random((4,) + entry.model.input_shape).astype(np.float32)
        with service:
            outputs = service.predict(entry.name, samples, timeout=10.0)
        assert entry.stats.batches_executed == 1
        expected = entry.model.predict(samples, fused=True)
        assert outputs.tobytes() == expected.tobytes()

    def test_fused_default_serves_certified_and_attributes_stats(
        self, sync_service, rng
    ):
        service, entry = sync_service
        samples = rng.random((5,) + entry.model.input_shape).astype(np.float32)
        with service:
            service.predict(entry.name, samples, timeout=10.0)
        # The default config serves fused behind certification: every request
        # was answered by a certified fused plan and the (one) calibration
        # run is accounted.
        assert entry.stats.fused_served == len(samples)
        assert entry.stats.fusion_certifications >= 1
        assert entry.model.plan_stats.certifications >= 1

    def test_fusion_blocklist_follows_quarantine(self, sync_service):
        _, entry = sync_service
        index = entry.parameterized_indices[0]
        name = entry.model.layers[index].name
        entry.quarantine([index])
        assert name in entry.model.fusion_blocklist
        entry.clear_quarantine([index])
        assert name not in entry.model.fusion_blocklist


class TestPlanRevalidation:
    def test_quarantine_lift_keeps_plans_after_bit_exact_restore(self, sync_service, rng):
        _, entry = sync_service
        model = entry.model
        index = entry.parameterized_indices[0]
        inputs = rng.random((3,) + model.input_shape).astype(np.float32)
        model.predict(inputs)
        compiles = model.plan_stats.compiles
        golden = model.layers[index].get_weights()
        # Bit-exact repair: same bytes written back -> plan survives the sweep.
        entry.quarantine([index])
        model.layers[index].set_weights(golden)
        entry.clear_quarantine([index])
        assert entry.stats.plan_invalidations == 0
        model.predict(inputs)
        assert model.plan_stats.compiles == compiles

    def test_quarantine_lift_drops_plans_after_weight_change(self, sync_service, rng):
        _, entry = sync_service
        model = entry.model
        index = entry.parameterized_indices[0]
        inputs = rng.random((3,) + model.input_shape).astype(np.float32)
        model.predict(inputs)
        corrupted = model.layers[index].get_weights()
        corrupted.flat[0] += 1.0
        entry.quarantine([index])
        model.layers[index].set_weights(corrupted)
        entry.clear_quarantine([index])
        assert entry.stats.plan_invalidations >= 1
        # The next serve recompiles against the live weights and stays
        # bit-identical to the seed forward.
        assert model.predict(inputs).tobytes() == model.predict(
            inputs, use_plan=False
        ).tobytes()
