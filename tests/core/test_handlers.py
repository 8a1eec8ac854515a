"""Tests for the layer-capability protection registry (handler dispatch).

Covers the registry resolution rules (MRO lookup, pass-through fallback,
``UnsupportedLayerError`` for unknown parameterized layers) and the two layer
types registered purely through new handler modules: BatchNorm and
DepthwiseConv2D -- planning, detection probing, CRC localization, inversion
and recovery, with no isinstance dispatch anywhere in the core engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MILRConfig, MILRProtector, RecoveryStrategy, plan_model
from repro.core.handlers import (
    LayerProtectionHandler,
    PassthroughHandler,
    handler_for,
    registry,
)
from repro.core.planner import InversionStrategy
from repro.exceptions import CheckpointError, UnsupportedLayerError
from repro.memory import inject_whole_weight
from repro.memory.bitops import flip_bits
from repro.nn import (
    AvgPool2D,
    BatchNorm,
    Bias,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.nn.layers.base import Layer


class _UnknownParameterized(Layer):
    """A parameterized layer no handler knows about."""

    has_parameters = True

    def compute_output_shape(self, input_shape):
        return input_shape

    def forward(self, inputs, training=False):
        return inputs

    def get_weights(self):
        return np.ones((3,), dtype=np.float32)

    def set_weights(self, weights):
        pass


class _DeclaredPassthrough(Layer):
    """A parameter-free layer that declares itself pass-through."""

    has_parameters = False
    is_passthrough = True

    def compute_output_shape(self, input_shape):
        return input_shape

    def forward(self, inputs, training=False):
        return inputs


class TestRegistryResolution:
    def test_every_builtin_layer_type_resolves(self):
        model = Sequential(
            [
                Conv2D(4, 3, seed=1, name="c"),
                BatchNorm(name="bn", seed=2),
                ReLU(name="r"),
                MaxPool2D(2, name="p"),
                DepthwiseConv2D(3, seed=3, name="dw"),
                Bias(name="b", seed=4),
                Flatten(name="f"),
                Dense(5, seed=5, name="d"),
            ]
        )
        model.build((10, 10, 2))
        for index, layer in enumerate(model.layers):
            assert isinstance(handler_for(layer, index), LayerProtectionHandler)

    def test_pool_subclasses_share_one_handler_via_mro(self):
        max_pool = MaxPool2D(2, name="mp")
        avg_pool = AvgPool2D(2, name="ap")
        max_pool.build((8, 8, 2))
        avg_pool.build((8, 8, 2))
        assert handler_for(max_pool) is handler_for(avg_pool)

    def test_handlers_are_singletons_per_type(self):
        first = Dense(4, seed=1, name="d1")
        second = Dense(9, seed=2, name="d2")
        assert handler_for(first) is handler_for(second)

    def test_unknown_parameterized_layer_raises_with_name_and_index(self):
        model = Sequential(
            [Dense(4, seed=1, name="d"), _UnknownParameterized(name="mystery")]
        )
        model.build((6,))
        with pytest.raises(UnsupportedLayerError) as excinfo:
            plan_model(model, MILRConfig())
        message = str(excinfo.value)
        assert "mystery" in message
        assert "index 1" in message
        assert "_UnknownParameterized" in message

    def test_declared_passthrough_plans_as_identity(self):
        model = Sequential(
            [Dense(4, seed=1, name="d"), _DeclaredPassthrough(name="skip")]
        )
        model.build((6,))
        plan = plan_model(model, MILRConfig())
        passthrough_plan = plan.plan_for(1)
        assert passthrough_plan.recovery_strategy is RecoveryStrategy.NONE
        assert passthrough_plan.inversion_strategy is InversionStrategy.IDENTITY
        assert passthrough_plan.parameter_count == 0
        assert not passthrough_plan.needs_input_checkpoint
        assert isinstance(handler_for(model.layers[1]), PassthroughHandler)

    def test_passthrough_fallback_never_claims_parameterized_layers(self):
        layer = _UnknownParameterized(name="weights")
        layer.is_passthrough = True  # even a lying pass-through flag
        with pytest.raises(UnsupportedLayerError):
            handler_for(layer)

    def test_parameter_free_handler_has_no_partial_checkpoint(self):
        relu = ReLU(name="r")
        relu.build((4,))
        with pytest.raises(CheckpointError):
            handler_for(relu).probe(relu, 0, lambda *_: None, MILRConfig())

    def test_strategy_tokens_are_open_for_extension(self):
        member = RecoveryStrategy.register("AFFINE_CHANNEL")
        again = RecoveryStrategy.register("AFFINE_CHANNEL")
        assert member is again
        assert member is RecoveryStrategy.AFFINE_CHANNEL
        assert member.value == "affine_channel"
        # Seed members keep enum-style identity semantics.
        assert RecoveryStrategy.DENSE_FULL is RecoveryStrategy.register("DENSE_FULL")

    def test_registered_types_cover_new_layer_modules(self):
        registered = registry.registered_types()
        assert BatchNorm in registered
        assert DepthwiseConv2D in registered

    def test_duplicate_handler_registration_rejected(self):
        from repro.exceptions import LayerConfigurationError

        class _RivalDenseHandler(LayerProtectionHandler):
            pass

        with pytest.raises(LayerConfigurationError):
            registry.register(Dense, _RivalDenseHandler())
        # The original binding is untouched.
        probe = Dense(3, seed=0, name="probe")
        assert type(handler_for(probe)).__name__ == "DenseProtectionHandler"

    def test_strategy_value_rebind_rejected(self):
        RecoveryStrategy.register("HANDLER_TEST_TOKEN", "handler_test_token")
        with pytest.raises(ValueError):
            RecoveryStrategy.register("HANDLER_TEST_TOKEN", "something_else")

    def test_strategy_tokens_survive_copy_and_pickle_by_identity(self):
        import copy
        import pickle

        member = RecoveryStrategy.DENSE_FULL
        assert copy.copy(member) is member
        assert copy.deepcopy(member) is member
        assert pickle.loads(pickle.dumps(member)) is member
        # Deep-copying a whole plan keeps `is` dispatch working.
        model = Sequential([Dense(4, seed=1, name="d")])
        model.build((6,))
        plan = plan_model(model, MILRConfig())
        clone = copy.deepcopy(plan)
        assert clone.plan_for(0).recovery_strategy is RecoveryStrategy.DENSE_FULL


@pytest.fixture
def protected_bn_model():
    model = Sequential(
        [
            Conv2D(6, 3, seed=1, name="c"),
            BatchNorm(name="bn", seed=2),
            ReLU(name="r"),
            MaxPool2D(2, name="p"),
            Flatten(name="f"),
            Dense(8, seed=3, name="d"),
            BatchNorm(name="bn2", seed=4),
        ],
        name="bn_model",
    )
    model.build((10, 10, 2))
    protector = MILRProtector(model, MILRConfig(master_seed=11))
    protector.initialize()
    return model, protector


class TestBatchNormProtection:
    def test_plan_is_self_contained_and_crc_protected(self, protected_bn_model):
        model, protector = protected_bn_model
        plan = protector.plan.plan_for(1)
        assert plan.kind == "BatchNorm"
        assert plan.recovery_strategy.value == "affine_channel"
        assert plan.inversion_strategy.value == "affine"
        assert plan.stores_crc_codes
        assert plan.partial_checkpoint_values == 2
        assert plan.dummy_input_rows > 0
        assert 1 in protector.store.crc_codes
        assert handler_for(model.layers[1]).is_self_contained(
            model.layers[1], plan
        )

    def test_partial_checkpoint_is_scale_and_shift_sums(self, protected_bn_model):
        model, protector = protected_bn_model
        layer = model.get_layer("bn")
        stored = protector.store.partial_checkpoint(1)
        weights = layer.get_weights().astype(np.float64)
        np.testing.assert_allclose(stored, [weights[0].sum(), weights[1].sum()])

    def test_clean_model_detects_no_errors(self, protected_bn_model):
        _, protector = protected_bn_model
        assert not protector.detect().any_errors

    def test_corruption_detected_localized_and_recovered(self, protected_bn_model):
        model, protector = protected_bn_model
        layer = model.get_layer("bn")
        original = layer.get_weights()
        # Exponent-bit flip on gamma[2] and a large shift on beta[4].
        corrupted = flip_bits(original, np.array([2]), np.array([30]))
        corrupted[1, 4] += 1.5
        layer.set_weights(corrupted)
        detection = protector.detect()
        assert detection.erroneous_layers == [1]
        mask = detection.result_for(1).suspect_mask
        assert mask is not None and mask.shape == original.shape
        assert mask[0, 2] and mask[1, 4]
        protector.recover(detection)
        np.testing.assert_allclose(layer.get_weights(), original, rtol=1e-4, atol=1e-5)
        assert not protector.detect().any_errors

    def test_nan_corruption_is_detected_and_recovered(self, protected_bn_model):
        # A NaN word poisons the sum probe entirely; ``nan > tol`` is False,
        # so detection must map non-finite deviations to mismatches.
        model, protector = protected_bn_model
        layer = model.get_layer("bn")
        original = layer.get_weights()
        corrupted = original.copy()
        corrupted[0, 3] = np.float32("nan")
        layer.set_weights(corrupted)
        detection = protector.detect()
        assert detection.erroneous_layers == [1]
        protector.recover(detection)
        np.testing.assert_allclose(layer.get_weights(), original, rtol=1e-4, atol=1e-5)

    def test_crc_restricted_solve_keeps_clean_words_verbatim(self, protected_bn_model):
        model, protector = protected_bn_model
        layer = model.get_layer("bn")
        original = layer.get_weights()
        corrupted = original.copy()
        corrupted[0, 1] += 2.0
        layer.set_weights(corrupted)
        detection = protector.detect()
        protector.recover(detection)
        recovered = layer.get_weights()
        # Every non-corrupted word keeps its exact stored bit pattern.
        clean = np.ones(original.shape, dtype=bool)
        clean[0, 1] = False
        np.testing.assert_array_equal(
            recovered[clean].view(np.uint32), original[clean].view(np.uint32)
        )

    def test_recovery_of_neighbour_inverts_batchnorm(self, protected_bn_model):
        model, protector = protected_bn_model
        conv = model.get_layer("c")
        original = conv.get_weights()
        corrupted, report = inject_whole_weight(
            original, 0.3, np.random.default_rng(5)
        )
        if report.affected_weights == 0:
            pytest.skip("injection produced no corruption")
        conv.set_weights(corrupted)
        # The conv's golden output is reconstructed from the pool checkpoint
        # through ReLU (identity) and the BatchNorm affine inverse.
        detection, _ = protector.detect_and_recover()
        assert 0 in detection.erroneous_layers
        np.testing.assert_allclose(conv.get_weights(), original, rtol=1e-3, atol=1e-3)

    def test_affine_inversion_roundtrip(self, protected_bn_model):
        model, protector = protected_bn_model
        layer = model.get_layer("bn")
        x = np.random.default_rng(0).random((1, 8, 8, 6)).astype(np.float32)
        y = layer.forward(x)
        np.testing.assert_allclose(layer.invert(y), x, rtol=1e-4, atol=1e-5)


@pytest.fixture
def protected_depthwise_model():
    model = Sequential(
        [
            DepthwiseConv2D(3, padding="same", seed=1, name="dw"),
            Bias(name="b", seed=2),
            ReLU(name="r"),
            MaxPool2D(2, name="p"),
            Flatten(name="f"),
            Dense(6, seed=3, name="d"),
        ],
        name="dw_model",
    )
    model.build((8, 8, 5))
    protector = MILRProtector(model, MILRConfig(master_seed=13))
    protector.initialize()
    return model, protector


class TestDepthwiseProtection:
    def test_plan_checkpoints_input_and_stores_crc(self, protected_depthwise_model):
        model, protector = protected_depthwise_model
        plan = protector.plan.plan_for(0)
        assert plan.kind == "DepthwiseConv2D"
        assert plan.recovery_strategy.value == "depthwise_channel"
        assert plan.inversion_strategy is InversionStrategy.CHECKPOINT
        assert plan.needs_input_checkpoint
        assert plan.stores_crc_codes
        assert plan.partial_checkpoint_values == 5  # one probe value per channel
        assert 0 in protector.plan.checkpoint_indices
        assert 0 in protector.store.crc_codes

    def test_clean_model_detects_no_errors(self, protected_depthwise_model):
        _, protector = protected_depthwise_model
        assert not protector.detect().any_errors

    def test_corruption_detected_localized_and_recovered(
        self, protected_depthwise_model
    ):
        model, protector = protected_depthwise_model
        layer = model.get_layer("dw")
        original = layer.get_weights()
        # Exponent-bit flip on tap (1, 1, 2) and a large shift on (0, 2, 4).
        flat = np.ravel_multi_index((1, 1, 2), original.shape)
        corrupted = flip_bits(original, np.array([flat]), np.array([29]))
        corrupted[0, 2, 4] -= 2.0
        layer.set_weights(corrupted)
        detection = protector.detect()
        assert detection.erroneous_layers == [0]
        mask = detection.result_for(0).suspect_mask
        assert mask is not None and mask.shape == original.shape
        assert mask[1, 1, 2] and mask[0, 2, 4]
        protector.recover(detection)
        np.testing.assert_allclose(layer.get_weights(), original, rtol=1e-4, atol=1e-5)
        assert not protector.detect().any_errors

    def test_whole_kernel_corruption_recovers(self, protected_depthwise_model):
        model, protector = protected_depthwise_model
        layer = model.get_layer("dw")
        original = layer.get_weights()
        corrupted, report = inject_whole_weight(original, 0.5, np.random.default_rng(7))
        if report.affected_weights == 0:
            pytest.skip("injection produced no corruption")
        layer.set_weights(corrupted)
        protector.detect_and_recover()
        np.testing.assert_allclose(layer.get_weights(), original, rtol=1e-3, atol=1e-3)

    def test_inversion_refuses_and_recovery_uses_checkpoint(
        self, protected_depthwise_model
    ):
        from repro.core.inversion import invert_layer
        from repro.exceptions import NotInvertibleError

        model, protector = protected_depthwise_model
        layer = model.get_layer("dw")
        with pytest.raises(NotInvertibleError):
            invert_layer(
                layer,
                protector.plan.plan_for(0),
                np.zeros((1,) + layer.output_shape, dtype=np.float32),
                protector.store,
                protector.prng,
            )
        # The stored input checkpoint feeds the layer's own recovery: the
        # golden input for index 0 is the regenerated network input.
        golden_input = protector.recovery_engine.golden_input_for(0)
        assert golden_input.shape == (1,) + model.input_shape


class TestDenseResidualRepair:
    """The dense repair hook on head1_dense's shape: Dense(32) over 1152 inputs.

    Every estimate the hook returns must snap to the golden bytes; whatever it
    cannot explain it must leave to the solver by returning ``None``.
    """

    @pytest.fixture(scope="class")
    def wide_dense(self):
        model = Sequential([Dense(32, seed=20, name="d")])
        model.build((1152,))
        layer = model.get_layer("d")
        weights = layer.get_weights()
        weights[5, 3] = 1.0  # a flip of bit 30 turns it into +inf
        weights[17, 9] = -1.5  # ... and this one into NaN
        layer.set_weights(weights)
        protector = MILRProtector(model, MILRConfig())
        protector.initialize()
        return layer, protector

    @staticmethod
    def _flip(golden: np.ndarray, cells, bits) -> np.ndarray:
        words = golden.view(np.uint32).copy()
        for cell, bit in zip(cells, bits):
            words[cell] ^= np.uint32(1 << bit)
        return words.view(np.float32)

    @staticmethod
    def _typical_rows(golden: np.ndarray, column: int) -> list[int]:
        """Rows of ``column`` whose weight sits well above the noise floor."""
        magnitude = np.abs(golden[:, column])
        return [int(row) for row in np.flatnonzero((magnitude > 0.04) & (magnitude < 1.0))]

    @staticmethod
    def _estimate(wide_dense, corrupted, plan=None):
        layer, protector = wide_dense
        return handler_for(layer, 0).residual_repair_estimate(
            layer,
            plan or protector.plan.plan_for(0),
            corrupted,
            protector.recovery_engine,
        )

    @staticmethod
    def _snaps_to_golden(wide_dense, corrupted, estimate) -> bool:
        from repro.core.repair import snap_to_bit_flips

        refined, _snapped, _kept = snap_to_bit_flips(corrupted, estimate)
        return refined.tobytes() == wide_dense[0].get_weights().tobytes()

    @pytest.mark.parametrize(
        "cell, bit, effect",
        [
            (None, 31, "sign"),
            (None, 30, "huge"),
            (None, 29, "tiny"),
            (None, 23, "doubled"),
            ((5, 3), 30, "inf"),
            ((17, 9), 30, "nan"),
            (None, 22, "mantissa"),
        ],
    )
    def test_single_flip_estimate_snaps_bit_exact(self, wide_dense, cell, bit, effect):
        golden = wide_dense[0].get_weights()
        if cell is None:
            cell = (self._typical_rows(golden, 20)[0], 20)
        corrupted = self._flip(golden, [cell], [bit])
        value = float(corrupted[cell])
        if effect == "inf":
            assert np.isposinf(value)
        elif effect == "nan":
            assert np.isnan(value)
        elif effect == "huge":
            assert abs(value) > 1e8
        estimate = self._estimate(wide_dense, corrupted)
        assert estimate is not None
        assert self._snaps_to_golden(wide_dense, corrupted, estimate)

    @pytest.mark.parametrize("count", [2, 5, 8])
    def test_several_words_in_one_column_snap_bit_exact(self, wide_dense, count):
        golden = wide_dense[0].get_weights()
        rows = self._typical_rows(golden, 11)[:count]
        bits = [31, 30, 29, 27, 25, 23, 22, 28][:count]
        corrupted = self._flip(golden, [(row, 11) for row in rows], bits)
        estimate = self._estimate(wide_dense, corrupted)
        assert estimate is not None
        assert self._snaps_to_golden(wide_dense, corrupted, estimate)

    def test_flip_below_the_pursuit_tolerance_is_left_to_the_solver(self, wide_dense):
        golden = wide_dense[0].get_weights()
        cell = (self._typical_rows(golden, 20)[0], 20)
        corrupted = self._flip(golden, [cell], [8])
        assert corrupted.tobytes() != golden.tobytes()
        assert self._estimate(wide_dense, corrupted) is None

    @pytest.mark.parametrize("count", [9, 16])
    def test_more_words_per_column_than_the_support_returns_none(self, wide_dense, count):
        golden = wide_dense[0].get_weights()
        rows = self._typical_rows(golden, 11)[:count]
        assert len(rows) == count
        corrupted = self._flip(golden, [(row, 11) for row in rows], [29] * count)
        assert self._estimate(wide_dense, corrupted) is None

    def test_plan_without_a_complete_dummy_system_returns_none(self, wide_dense):
        layer, protector = wide_dense
        golden = layer.get_weights()
        layer_plan = protector.plan.plan_for(0)
        short_plan = type(layer_plan)(
            **{**layer_plan.__dict__, "dummy_input_rows": layer.features_in - 1}
        )
        corrupted = self._flip(golden, [(self._typical_rows(golden, 20)[0], 20)], [30])
        assert self._estimate(wide_dense, corrupted, plan=short_plan) is None
