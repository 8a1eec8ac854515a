"""Tests for the compiled forward-plan fast path (`repro.nn.plan`).

The contract under test: the planned forward is *bit-identical* to the seed
layer-by-layer forward for every zoo network and for adversarial layer
combinations (padding buffers, in-place elementwise steps, signed zeros,
NaNs), plans notice weight mutations, and the fingerprint revalidation sweep
keeps byte-identical plans alive while dropping the rest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NotBuiltError, ShapeError
from repro.nn import (
    AvgPool2D,
    Bias,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    InputLayer,
    MaxPool2D,
    ReLU,
    Sequential,
    Softmax,
    ZeroPadding2D,
    compile_plan,
)
import repro.nn.model
import repro.nn.plan
from repro.nn.model import PLAN_CACHE_SIZE
from repro.nn.plan import certify_fusion, plan_weight_fingerprint
from repro.zoo import network_table


def assert_bit_identical(model: Sequential, inputs: np.ndarray, repeats: int = 2):
    """Planned forward must equal the seed forward byte for byte.

    Runs the comparison ``repeats`` times: scratch-buffer reuse or in-place
    step bugs typically only show up from the second call on.
    """
    for _ in range(repeats):
        seed = model.predict(inputs, use_plan=False)
        planned = model.predict(inputs)
        assert planned.shape == seed.shape
        assert planned.dtype == seed.dtype
        assert planned.tobytes() == seed.tobytes()


class TestZooBitIdentity:
    @pytest.mark.parametrize("name", sorted(network_table()))
    def test_every_zoo_network_is_bit_identical(self, name):
        spec = network_table()[name]
        model = spec.builder()
        rng = np.random.default_rng(7)
        inputs = rng.random((4,) + spec.input_shape).astype(np.float32)
        assert_bit_identical(model, inputs)

    @pytest.mark.parametrize("batch", [1, 3, 32])
    def test_variable_batch_sizes(self, batch):
        spec = network_table()["mnist_reduced"]
        model = spec.builder()
        rng = np.random.default_rng(3)
        inputs = rng.random((batch,) + spec.input_shape).astype(np.float32)
        assert_bit_identical(model, inputs)

    def test_fused_mode_matches_to_tolerance(self):
        for name in ("mnist_reduced", "mnist_bn", "cifar_depthwise"):
            spec = network_table()[name]
            model = spec.builder()
            rng = np.random.default_rng(11)
            inputs = rng.random((5,) + spec.input_shape).astype(np.float32)
            seed = model.predict(inputs, use_plan=False)
            fused = model.predict(inputs, fused=True)
            np.testing.assert_allclose(fused, seed, rtol=1e-5, atol=1e-6)


class TestAdversarialStacks:
    def test_zeropad_borders_survive_inplace_neighbours(self):
        # Bias/ReLU directly after ZeroPadding2D must not corrupt the padding
        # buffer's pre-zeroed borders across calls.
        model = Sequential(
            [ZeroPadding2D(1), Bias(seed=1), ReLU(), Conv2D(4, 3, seed=2)]
        )
        model.build((5, 5, 2))
        rng = np.random.default_rng(0)
        for _ in range(3):
            inputs = rng.standard_normal((3, 5, 5, 2)).astype(np.float32)
            assert_bit_identical(model, inputs)

    def test_user_input_never_mutated(self):
        # First-layer elementwise steps must not run in place on the caller's
        # array; pass-through layers forward the caller's array itself.
        model = Sequential([InputLayer((4,)), Dropout(0.5, seed=0), Bias(seed=5), ReLU()])
        model.build((4,))
        rng = np.random.default_rng(1)
        inputs = rng.standard_normal((2, 4)).astype(np.float32)
        pristine = inputs.copy()
        assert_bit_identical(model, inputs)
        np.testing.assert_array_equal(inputs, pristine)

    def test_signed_zeros_and_nan_through_pooling(self):
        # Max pooling's strided-maximum fold must keep the seed's tie (signed
        # zero) and NaN semantics; mean pooling keeps the windowed form.
        for pool in (
            MaxPool2D(2),
            MaxPool2D(2, stride=1),
            MaxPool2D((2, 3), stride=(1, 2)),
            AvgPool2D(2),
            AvgPool2D(3, stride=2),
        ):
            model = Sequential([pool])
            model.build((7, 7, 3))
            rng = np.random.default_rng(9)
            inputs = rng.standard_normal((2, 7, 7, 3)).astype(np.float32)
            inputs[np.abs(inputs) < 0.4] = np.float32(-0.0)
            inputs[0, 2, 2, 1] = np.nan
            assert_bit_identical(model, inputs)

    def test_mid_stack_softmax_and_head(self):
        model = Sequential(
            [Flatten(), Dense(6, seed=3), Softmax(), Bias(seed=4), ReLU()]
        )
        model.build((2, 3, 1))
        rng = np.random.default_rng(2)
        inputs = rng.standard_normal((4, 2, 3, 1)).astype(np.float32)
        assert_bit_identical(model, inputs)

    def test_unknown_layer_falls_back_to_layer_forward(self):
        from repro.nn.layers.base import Layer

        class Doubling(Layer):
            def compute_output_shape(self, input_shape):
                return input_shape

            def forward(self, inputs, training=False):
                return (inputs * 2.0).astype(np.float32)

        model = Sequential([Doubling(), Bias(seed=6)])
        model.build((3,))
        rng = np.random.default_rng(4)
        inputs = rng.standard_normal((2, 3)).astype(np.float32)
        assert_bit_identical(model, inputs)


class TestPlanCacheAndInvalidation:
    def _model(self):
        return network_table()["mnist_reduced"].builder()

    def test_plan_cache_hit_and_compile_counters(self):
        model = self._model()
        rng = np.random.default_rng(0)
        inputs = rng.random((2, 28, 28, 1)).astype(np.float32)
        model.predict(inputs)
        assert model.plan_stats.compiles == 1
        model.predict(inputs)
        assert model.plan_stats.compiles == 1
        assert model.plan_stats.hits == 1

    def test_weight_mutation_invalidates_and_recompiles(self):
        model = self._model()
        rng = np.random.default_rng(0)
        inputs = rng.random((2, 28, 28, 1)).astype(np.float32)
        model.predict(inputs)
        layer = next(x for x in model.layers if x.has_parameters)
        weights = layer.get_weights()
        weights.flat[0] += 1.0
        layer.set_weights(weights)
        assert_bit_identical(model, inputs)  # recompiled against new weights
        assert model.plan_stats.invalidations >= 1

    def test_lru_eviction_keeps_cache_bounded(self):
        model = self._model()
        rng = np.random.default_rng(0)
        for batch in range(1, PLAN_CACHE_SIZE + 3):
            model.predict(rng.random((batch, 28, 28, 1)).astype(np.float32))
        assert len(model._plan_cache) == PLAN_CACHE_SIZE

    def test_invalidate_plans_drops_everything(self):
        model = self._model()
        rng = np.random.default_rng(0)
        model.predict(rng.random((2, 28, 28, 1)).astype(np.float32))
        model.predict(rng.random((3, 28, 28, 1)).astype(np.float32))
        assert model.invalidate_plans() == 2
        assert model.plan_stats.invalidations == 2
        assert len(model._plan_cache) == 0

    def test_revalidate_keeps_byte_identical_weights(self):
        # A bit-exact repair rebinds the weight arrays with the *same bytes*;
        # the fingerprint sweep must keep (and re-arm) such plans.
        model = self._model()
        rng = np.random.default_rng(0)
        inputs = rng.random((2, 28, 28, 1)).astype(np.float32)
        expected = model.predict(inputs)
        layer = next(x for x in model.layers if x.has_parameters)
        layer.set_weights(layer.get_weights())  # same bytes, new epoch
        assert model.revalidate_plans() == 0
        assert model.plan_stats.hits == 0
        got = model.predict(inputs)
        assert model.plan_stats.compiles == 1  # plan survived, no recompile
        assert model.plan_stats.hits == 1
        assert got.tobytes() == expected.tobytes()

    def test_revalidate_drops_changed_weights(self):
        model = self._model()
        rng = np.random.default_rng(0)
        inputs = rng.random((2, 28, 28, 1)).astype(np.float32)
        model.predict(inputs)
        layer = next(x for x in model.layers if x.has_parameters)
        weights = layer.get_weights()
        weights.flat[0] += 1.0
        layer.set_weights(weights)
        assert model.revalidate_plans() == 1
        assert len(model._plan_cache) == 0
        assert_bit_identical(model, inputs)

    def test_revalidation_sweep_hashes_each_layer_once(self, monkeypatch):
        # 32 cached plans, half compiled before and half after one dense
        # weight changed; restoring the golden bytes keeps the first half.
        model = Sequential(
            [
                Conv2D(4, 3, padding="valid", seed=1, name="c"),
                Bias(name="cb", seed=2),
                ReLU(name="r"),
                Flatten(name="f"),
                Dense(5, seed=3, name="d"),
                Bias(name="db", seed=4),
            ]
        )
        model.build((6, 6, 2))
        model.plan_cache_size = 32
        dense = model.get_layer("d")
        golden = dense.get_weights()
        changed = golden.copy()
        changed.flat[3] += 1.0
        for batch in range(1, 17):
            if batch == 9:
                dense.set_weights(changed)
            model.compile_plan(batch, fused=False)
            model.compile_plan(batch, fused=True)
        assert len(model._plan_cache) == 32
        layers = [layer for layer in model.layers if layer.has_parameters]
        calls = []

        def counting(weights):
            calls.append(weights.shape)
            return plan_weight_fingerprint(weights)

        def sweep() -> tuple[set, int]:
            # What a sweep hashing every plan on its own would keep.
            expected = {
                key for key, plan in model._plan_cache.items() if plan.fingerprints_match()
            }
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(repro.nn.plan, "plan_weight_fingerprint", counting)
                dropped = model.revalidate_plans()
            assert set(model._plan_cache) == expected
            return expected, dropped

        dense.set_weights(golden)  # bit-exact restore
        kept, dropped = sweep()
        assert dropped == 16
        assert kept == {(batch, fused) for batch in range(1, 9) for fused in (False, True)}
        assert len(calls) == len(layers)

        model.get_layer("db").set_weights(model.get_layer("db").get_weights() + 1.0)
        kept, dropped = sweep()
        assert (kept, dropped) == (set(), 16)
        assert 0 < len(calls) <= len(layers)

        # The slices of a sliced plan share one memo as well.
        sliced = compile_plan(model, 256, fused=True, slice_workers=3)
        assert len(sliced.slice_sizes) == 3
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(repro.nn.plan, "plan_weight_fingerprint", counting)
            assert sliced.fingerprints_match()
        assert len(calls) == len(layers)

    def test_training_path_bypasses_plans(self):
        model = self._model()
        rng = np.random.default_rng(0)
        inputs = rng.random((2, 28, 28, 1)).astype(np.float32)
        model.predict(inputs, training=True)
        assert model.plan_stats.compiles == 0

    def test_fingerprint_matches_core_checkpoint_digest(self):
        from repro.core.checkpoint import weight_fingerprint

        weights = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert plan_weight_fingerprint(weights) == weight_fingerprint(weights)


class TestAdversarialZooBitIdentity:
    """Exact plans (direct stride-1 matmul + chain fusion) must stay byte-equal
    to the seed forward on hostile inputs, not just well-behaved ones."""

    @staticmethod
    def _adversarial(rng, shape):
        # Dense signed zeros plus scattered NaNs: the inputs most likely to
        # expose a reordered reduction or a max/tie semantics drift.
        inputs = rng.standard_normal(shape).astype(np.float32)
        inputs[np.abs(inputs) < 0.3] = np.float32(-0.0)
        flat = inputs.reshape(-1)
        flat[:: max(1, flat.size // 17)] = np.nan
        return inputs

    @pytest.mark.parametrize("name", sorted(network_table()))
    def test_adversarial_inputs_all_zoo(self, name):
        spec = network_table()[name]
        model = spec.builder()
        rng = np.random.default_rng(23)
        inputs = self._adversarial(rng, (4,) + spec.input_shape)
        assert_bit_identical(model, inputs)

    @pytest.mark.parametrize("batch", [1, 5, 33])
    def test_partial_occupancy_batches(self, batch):
        # 5 and 33 straddle the conv batch-chunk width (32): a partial chunk
        # and a full chunk plus remainder must both stay bit-identical.
        for name in ("mnist_reduced", "cifar_reduced"):
            spec = network_table()[name]
            model = spec.builder()
            rng = np.random.default_rng(batch)
            inputs = self._adversarial(rng, (batch,) + spec.input_shape)
            assert_bit_identical(model, inputs)


class TestFusionCertification:
    def _model(self, name="mnist_reduced"):
        return network_table()[name].builder()

    def test_certified_fused_serve_and_memoized_recheck(self):
        model = self._model()
        rng = np.random.default_rng(0)
        inputs = rng.random((4, 28, 28, 1)).astype(np.float32)
        outputs, info = model.predict_served(inputs, fused=True)
        assert info["mode"] == "fused"
        assert info["certificate"] is not None and info["certificate"].certified
        assert info["certified_now"]
        assert info["certificate"].max_ulp <= info["certificate"].ulp_bound
        assert model.plan_stats.certifications == 1
        seed = model.predict(inputs, use_plan=False)
        np.testing.assert_allclose(outputs, seed, rtol=1e-5, atol=1e-6)
        # Second serve is a cache hit: no re-calibration.
        _again, info2 = model.predict_served(inputs, fused=True)
        assert info2["mode"] == "fused"
        assert not info2["certified_now"]
        assert model.plan_stats.certifications == 1
        assert model.plan_stats.fused_hits == 1

    def test_uncertifiable_network_falls_back_bit_exact(self, monkeypatch):
        def failing(model, fused_plan, exact_plan):
            # A negative bound nothing can meet: force the fallback.
            return certify_fusion(model, fused_plan, exact_plan, ulp_bound=-1)

        monkeypatch.setattr(repro.nn.model, "certify_fusion", failing)
        model = self._model()
        rng = np.random.default_rng(1)
        inputs = rng.random((3, 28, 28, 1)).astype(np.float32)
        outputs, info = model.predict_served(inputs, fused=True)
        assert info["mode"] == "fallback"
        assert info["certificate"] is not None
        assert not info["certificate"].certified
        assert model.plan_stats.fallbacks == 1
        assert outputs.tobytes() == model.predict(inputs, use_plan=False).tobytes()

    def test_fused_serves_always_carry_a_passing_certificate(self):
        # The only route to a fused serve is through a passing certificate --
        # also on the serve right after a weight change forces
        # re-certification under a new digest.
        model = self._model("mnist_bn")
        rng = np.random.default_rng(6)
        inputs = rng.random((3, 28, 28, 1)).astype(np.float32)
        layer = next(x for x in model.layers if x.has_parameters)
        original = layer.get_weights().copy()
        nudged = original.copy()
        nudged.flat[0] += 0.5
        serves = []
        for weights in (None, nudged, original):
            if weights is not None:
                layer.set_weights(weights)
            for _ in range(2):
                serves.append(model.predict_served(inputs, fused=True)[1])
        # The nudge forced a fresh certification, and that very serve went
        # out fused.
        assert serves[2]["certified_now"]
        assert serves[2]["mode"] == "fused"
        fused = [info for info in serves if info["mode"] == "fused"]
        assert len(fused) + model.plan_stats.fallbacks == len(serves)
        for info in fused:
            assert info["certificate"] is not None
            assert info["certificate"].certified
            assert info["certificate"].max_ulp <= info["certificate"].ulp_bound

    def test_hit_buckets_split_fused_and_exact(self):
        model = self._model()
        rng = np.random.default_rng(2)
        inputs = rng.random((2, 28, 28, 1)).astype(np.float32)
        model.predict(inputs)  # exact compile
        model.predict(inputs)  # exact hit
        model.predict(inputs, fused=True)  # fused compile + certification
        model.predict(inputs, fused=True)  # fused hit
        stats = model.plan_stats
        assert stats.exact_hits == 1
        assert stats.fused_hits == 1
        assert stats.fallbacks == 0

    def test_bit_exact_repair_keeps_certificate(self):
        # Fingerprint revalidation after a byte-identical weight restore must
        # keep the fused plan *and* its certificate: no second calibration.
        model = self._model()
        rng = np.random.default_rng(3)
        inputs = rng.random((2, 28, 28, 1)).astype(np.float32)
        model.predict(inputs, fused=True)
        assert model.plan_stats.certifications == 1
        layer = next(x for x in model.layers if x.has_parameters)
        layer.set_weights(layer.get_weights())  # same bytes, new epoch
        assert model.revalidate_plans() == 0
        _outputs, info = model.predict_served(inputs, fused=True)
        assert info["mode"] == "fused"
        assert not info["certified_now"]
        assert model.plan_stats.certifications == 1

    def test_certificate_memo_survives_recompile(self):
        # Corrupt then restore the exact original bytes: the recompiled fused
        # plan lands on the same weights digest and reuses the memoized
        # certificate instead of re-running calibration.
        model = self._model()
        rng = np.random.default_rng(4)
        inputs = rng.random((2, 28, 28, 1)).astype(np.float32)
        model.predict(inputs, fused=True)
        assert model.plan_stats.certifications == 1
        layer = next(x for x in model.layers if x.has_parameters)
        original = layer.get_weights().copy()
        corrupted = original.copy()
        corrupted.flat[0] += 1.0
        layer.set_weights(corrupted)
        model.predict(inputs, fused=True)  # new digest: fresh certification
        assert model.plan_stats.certifications == 2
        layer.set_weights(original)
        model.invalidate_plans()
        _outputs, info = model.predict_served(inputs, fused=True)
        assert info["mode"] == "fused"
        assert not info["certified_now"]
        assert model.plan_stats.certifications == 2

    def test_blocklisted_affine_is_not_folded(self):
        spec = network_table()["mnist_bn"]
        free = spec.builder()
        folded = compile_plan(free, 2, fused=True).folded_affines
        assert folded  # mnist_bn folds its BatchNorms when unblocked
        blocked_model = spec.builder()
        blocked_model.fusion_blocklist.add(folded[0])
        plan = compile_plan(blocked_model, 2, fused=True)
        assert folded[0] not in plan.folded_affines
        rng = np.random.default_rng(5)
        inputs = rng.random((2,) + spec.input_shape).astype(np.float32)
        seed = blocked_model.predict(inputs, use_plan=False)
        np.testing.assert_allclose(
            plan.execute(inputs), seed, rtol=1e-5, atol=1e-6
        )


class TestSlicedPlans:
    def test_batch_slices_merge_deterministically(self):
        from repro.nn.plan import SlicedForwardPlan

        spec = network_table()["mnist_reduced"]
        model = spec.builder()
        # Force an uneven split (256 = 86 + 85 + 85) regardless of host CPUs.
        plan = compile_plan(model, 256, fused=True, slice_workers=3)
        assert isinstance(plan, SlicedForwardPlan)
        assert sum(plan.slice_sizes) == 256
        assert max(plan.slice_sizes) - min(plan.slice_sizes) <= 1
        rng = np.random.default_rng(6)
        inputs = rng.random((256,) + spec.input_shape).astype(np.float32)
        first = plan.execute(inputs)
        # Byte-stable across calls and thread schedules: the merge is ordered
        # by slice index, never by completion order.
        for _ in range(2):
            assert plan.execute(inputs).tobytes() == first.tobytes()
        seed = model.predict(inputs, use_plan=False)
        np.testing.assert_allclose(first, seed, rtol=1e-5, atol=1e-6)

    def test_small_batches_stay_monolithic(self):
        from repro.nn.plan import SlicedForwardPlan

        model = network_table()["mnist_reduced"].builder()
        plan = compile_plan(model, 32, fused=True, slice_workers=3)
        assert not isinstance(plan, SlicedForwardPlan)


class TestPlanErrors:
    def test_unbuilt_model_rejected(self):
        model = Sequential([Dense(4, seed=0)])
        with pytest.raises(NotBuiltError):
            model.predict(np.zeros((1, 3), dtype=np.float32))
        with pytest.raises(NotBuiltError):
            model.compile_plan(4)

    def test_bad_shape_rejected(self):
        model = network_table()["mnist_reduced"].builder()
        with pytest.raises(ShapeError):
            model.predict(np.zeros((2, 5, 5, 1), dtype=np.float32))

    def test_plan_rejects_wrong_batch(self):
        model = network_table()["mnist_reduced"].builder()
        plan = compile_plan(model, 4)
        with pytest.raises(ShapeError):
            plan.execute(np.zeros((2, 28, 28, 1), dtype=np.float32))

    def test_precompiled_plan_is_reused(self):
        model = network_table()["mnist_reduced"].builder()
        plan = model.compile_plan(4)
        assert model.compile_plan(4) is plan
        assert model.plan_stats.compiles == 1
