"""Tests for the parameter-solving functions R(x, y) = p."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MILRConfig, MILRProtector
from repro.core.initialization import build_checkpoint_store
from repro.core.planner import plan_model
from repro.core.solvers import (
    solve_bias_parameters,
    solve_conv_parameters_full,
    solve_conv_parameters_partial,
    solve_dense_parameters,
    solve_layer_parameters,
)
from repro.exceptions import RecoveryError
from repro.nn import Bias, Conv2D, Dense, Sequential
from repro.prng import SeededTensorGenerator


def _protected(model, seed: int = 29):
    config = MILRConfig(master_seed=seed)
    prng = SeededTensorGenerator(config.master_seed)
    plan = plan_model(model, config)
    store = build_checkpoint_store(model, plan, config, prng)
    return config, plan, store, prng


class TestDenseSolving:
    def test_recovers_exact_weights_with_dummy_rows(self):
        model = Sequential([Dense(6, seed=1, name="d")])
        model.build((10,))
        config, plan, store, prng = _protected(model)
        layer = model.get_layer("d")
        original = layer.get_weights()
        golden_x = prng.detection_input(model.input_shape, batch=1)
        golden_y = layer.forward(golden_x)
        # Corrupt, then solve from the golden pair.
        layer.set_weights(np.zeros_like(original))
        result = solve_dense_parameters(layer, plan.plan_for(0), golden_x, golden_y, store, prng)
        np.testing.assert_allclose(result.parameters, original, rtol=1e-3, atol=1e-4)
        assert result.fully_determined

    def test_enough_rows_without_dummies(self):
        model = Sequential([Dense(4, seed=2, name="d")])
        model.build((6,))
        config, plan, store, prng = _protected(model)
        layer = model.get_layer("d")
        original = layer.get_weights()
        x = np.random.default_rng(0).random((8, 6)).astype(np.float32)
        y = layer.forward(x)
        layer_plan = plan.plan_for(0)
        no_dummy_plan = type(layer_plan)(**{**layer_plan.__dict__, "dummy_input_rows": 0})
        result = solve_dense_parameters(layer, no_dummy_plan, x, y, store, prng)
        np.testing.assert_allclose(result.parameters, original, rtol=1e-3, atol=1e-4)

    def test_square_dummy_system_recovers_without_least_squares(self, monkeypatch):
        # The shape of mnist_reduced's head1_dense: the planner stores exactly
        # N = 1152 dummy rows, so recovery solves a square system by LU.
        model = Sequential([Dense(32, seed=20, name="d")])
        model.build((1152,))
        protector = MILRProtector(model, MILRConfig())
        protector.initialize()
        layer = model.get_layer("d")
        original = layer.get_weights()
        rows = protector.prng.dummy_inputs("d/solve-rows", (1152, 1152))
        outputs = protector.store.dummy_row_outputs(0)
        reference = np.linalg.lstsq(
            rows.astype(np.float64), outputs.astype(np.float64), rcond=None
        )[0].astype(np.float32)

        def no_least_squares(*_args, **_kwargs):
            raise AssertionError("the square dense system must not take least squares")

        monkeypatch.setattr(np.linalg, "lstsq", no_least_squares)
        layer.set_weights(np.random.default_rng(3).random(original.shape).astype(np.float32))
        detection = protector.detect()
        assert detection.erroneous_layers == [0]
        report = protector.recover(detection)
        assert report.all_fully_determined
        recovered = layer.get_weights()
        np.testing.assert_allclose(recovered, original, rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(recovered, reference, rtol=1e-5, atol=1e-6)

    def test_rejects_non_2d(self):
        model = Sequential([Dense(4, seed=2, name="d")])
        model.build((6,))
        config, plan, store, prng = _protected(model)
        with pytest.raises(RecoveryError):
            solve_dense_parameters(
                model.get_layer("d"),
                plan.plan_for(0),
                np.zeros((1, 2, 3), dtype=np.float32),
                np.zeros((1, 4), dtype=np.float32),
                store,
                prng,
            )


class TestBiasSolving:
    def test_recovers_exact_bias_conv_style(self):
        model = Sequential([Bias(seed=3, name="b")])
        model.build((5, 5, 4))
        layer = model.get_layer("b")
        original = layer.get_weights()
        x = np.random.default_rng(1).random((1, 5, 5, 4)).astype(np.float32)
        y = layer.forward(x)
        result = solve_bias_parameters(layer, x, y)
        np.testing.assert_allclose(result.parameters, original, rtol=1e-5, atol=1e-6)

    def test_recovers_exact_bias_dense_style(self):
        model = Sequential([Bias(seed=4, name="b")])
        model.build((8,))
        layer = model.get_layer("b")
        original = layer.get_weights()
        x = np.random.default_rng(2).random((3, 8)).astype(np.float32)
        y = layer.forward(x)
        result = solve_bias_parameters(layer, x, y)
        np.testing.assert_allclose(result.parameters, original, rtol=1e-5, atol=1e-6)


class TestConvSolvingFull:
    def test_recovers_exact_kernel(self):
        model = Sequential([Conv2D(5, 3, padding="valid", seed=5, name="c")])
        model.build((10, 10, 2))
        config, plan, store, prng = _protected(model)
        layer = model.get_layer("c")
        original = layer.get_weights()
        golden_x = prng.detection_input(model.input_shape, batch=1)
        golden_y = layer.forward(golden_x)
        layer.set_weights(np.zeros_like(original))
        result = solve_conv_parameters_full(
            layer, plan.plan_for(0), golden_x, golden_y, store, prng
        )
        np.testing.assert_allclose(result.parameters, original, rtol=1e-3, atol=1e-4)
        assert result.fully_determined

    def test_same_padding_kernel_recovered(self):
        model = Sequential([Conv2D(4, 3, padding="same", seed=6, name="c")])
        model.build((8, 8, 1))
        config, plan, store, prng = _protected(model)
        layer = model.get_layer("c")
        original = layer.get_weights()
        golden_x = prng.detection_input(model.input_shape, batch=1)
        golden_y = layer.forward(golden_x)
        result = solve_conv_parameters_full(
            layer, plan.plan_for(0), golden_x, golden_y, store, prng
        )
        np.testing.assert_allclose(result.parameters, original, rtol=1e-3, atol=1e-4)


class TestConvSolvingPartial:
    def _partial_setup(self):
        model = Sequential([Conv2D(4, 3, padding="valid", seed=7, name="c")])
        model.build((6, 6, 8))  # G^2 = 16 < F^2 Z = 72
        config, plan, store, prng = _protected(model)
        layer = model.get_layer("c")
        golden_x = prng.detection_input(model.input_shape, batch=1)
        golden_y = layer.forward(golden_x)
        return model, plan, store, prng, layer, golden_x, golden_y

    def test_recovers_few_erroneous_weights_exactly(self):
        model, plan, store, prng, layer, golden_x, golden_y = self._partial_setup()
        original = layer.get_weights()
        corrupted = original.copy()
        mask = np.zeros(original.shape, dtype=bool)
        # Corrupt 5 weights of filter 2 (fewer than G^2 = 16 equations).
        flat_positions = [(0, 0, 0, 2), (1, 1, 3, 2), (2, 2, 7, 2), (0, 2, 4, 2), (1, 0, 1, 2)]
        for position in flat_positions:
            corrupted[position] += 1.0
            mask[position] = True
        layer.set_weights(corrupted)
        result = solve_conv_parameters_partial(
            layer, plan.plan_for(0), golden_x, golden_y, mask
        )
        np.testing.assert_allclose(result.parameters, original, rtol=1e-3, atol=1e-4)
        assert result.fully_determined
        assert result.parameters_updated == 5

    def test_untouched_filters_left_alone(self):
        model, plan, store, prng, layer, golden_x, golden_y = self._partial_setup()
        original = layer.get_weights()
        corrupted = original.copy()
        mask = np.zeros(original.shape, dtype=bool)
        corrupted[1, 1, 1, 0] += 2.0
        mask[1, 1, 1, 0] = True
        layer.set_weights(corrupted)
        result = solve_conv_parameters_partial(
            layer, plan.plan_for(0), golden_x, golden_y, mask
        )
        # Filters 1-3 were never suspects: bitwise identical to the corrupted
        # (i.e. original) values.
        np.testing.assert_array_equal(result.parameters[..., 1:], original[..., 1:])

    def test_whole_layer_corruption_is_underdetermined(self):
        model, plan, store, prng, layer, golden_x, golden_y = self._partial_setup()
        original = layer.get_weights()
        layer.set_weights(np.random.default_rng(9).random(original.shape).astype(np.float32))
        mask = np.ones(original.shape, dtype=bool)
        result = solve_conv_parameters_partial(
            layer, plan.plan_for(0), golden_x, golden_y, mask
        )
        assert not result.fully_determined
        assert "least-squares" in result.notes

    def test_mask_shape_mismatch(self):
        model, plan, store, prng, layer, golden_x, golden_y = self._partial_setup()
        with pytest.raises(RecoveryError):
            solve_conv_parameters_partial(
                layer, plan.plan_for(0), golden_x, golden_y, np.zeros((2, 2), dtype=bool)
            )


class TestDispatch:
    def test_dispatch_dense(self):
        model = Sequential([Dense(6, seed=1, name="d")])
        model.build((10,))
        config, plan, store, prng = _protected(model)
        layer = model.get_layer("d")
        golden_x = prng.detection_input(model.input_shape, batch=1)
        golden_y = layer.forward(golden_x)
        result = solve_layer_parameters(layer, plan.plan_for(0), golden_x, golden_y, store, prng)
        np.testing.assert_allclose(result.parameters, layer.get_weights(), rtol=1e-3, atol=1e-4)

    def test_dispatch_partial_without_mask_defaults_to_all_suspect(self):
        model = Sequential([Conv2D(4, 3, padding="valid", seed=7, name="c")])
        model.build((6, 6, 8))
        config, plan, store, prng = _protected(model)
        layer = model.get_layer("c")
        golden_x = prng.detection_input(model.input_shape, batch=1)
        golden_y = layer.forward(golden_x)
        result = solve_layer_parameters(
            layer, plan.plan_for(0), golden_x, golden_y, store, prng, suspect_mask=None
        )
        assert not result.fully_determined

    def test_dispatch_parameter_free_layer_raises(self, tiny_conv_model):
        config, plan, store, prng = _protected(tiny_conv_model)
        relu_index = tiny_conv_model.layer_index("r1")
        with pytest.raises(RecoveryError):
            solve_layer_parameters(
                tiny_conv_model.layers[relu_index],
                plan.plan_for(relu_index),
                np.zeros((1, 8, 8, 6), dtype=np.float32),
                np.zeros((1, 8, 8, 6), dtype=np.float32),
                store,
                prng,
            )
