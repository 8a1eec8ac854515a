"""Unit tests for the bit-exact repair toolbox."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.repair
from repro.core import MILRConfig, MILRProtector
from repro.core.checkpoint import weight_fingerprint
from repro.core.handlers import handler_for
from repro.crc.crc32 import crc8_bytes
from repro.crc.twod import TwoDimensionalCRC
from repro.core.repair import (
    MAX_CRC_SUSPECTS,
    crc_guided_kernel_repair,
    estimate_guided_repair,
    snap_to_bit_flips,
    sparse_bias_repair,
    sparse_kernel_repair,
)
from repro.nn import Conv2D, Sequential


def _flip(values: np.ndarray, index: int, bit: int) -> np.ndarray:
    bits = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32).ravel().copy()
    bits[index] ^= np.uint32(1 << bit)
    return bits.view(np.float32).reshape(values.shape)


class TestSnapToBitFlips:
    def test_restores_single_flip_bit_exactly(self, rng):
        golden = rng.uniform(-1, 1, size=(6, 4)).astype(np.float32)
        corrupted = _flip(golden, 7, 27)
        estimate = golden + rng.normal(0, 1e-7, golden.shape).astype(np.float32)
        refined, snapped, kept = snap_to_bit_flips(
            corrupted, estimate, rtol=1e-3, atol=1e-5
        )
        assert np.array_equal(refined.view(np.uint32), golden.view(np.uint32))
        assert snapped == 1
        assert kept == golden.size - 1

    def test_clean_words_keep_their_bit_patterns(self, rng):
        golden = rng.uniform(-1, 1, size=(10,)).astype(np.float32)
        estimate = golden + rng.normal(0, 1e-7, golden.shape).astype(np.float32)
        refined, snapped, kept = snap_to_bit_flips(
            golden, estimate, rtol=1e-3, atol=1e-5
        )
        assert np.array_equal(refined.view(np.uint32), golden.view(np.uint32))
        assert snapped == 0 and kept == golden.size

    def test_two_flips_in_one_word(self, rng):
        golden = rng.uniform(0.1, 1, size=(8,)).astype(np.float32)
        corrupted = _flip(_flip(golden, 3, 24), 3, 30)
        refined, snapped, _ = snap_to_bit_flips(
            corrupted, golden.copy(), rtol=1e-3, atol=1e-5, max_flips=2
        )
        assert np.array_equal(refined.view(np.uint32), golden.view(np.uint32))
        assert snapped == 1

    def test_unreachable_word_falls_back_to_estimate(self, rng):
        golden = rng.uniform(0.1, 1, size=(5,)).astype(np.float32)
        # Corrupt three bits; a 2-flip search cannot reach the golden word.
        corrupted = _flip(_flip(_flip(golden, 2, 23), 2, 27), 2, 30)
        estimate = golden.copy()
        refined, snapped, _ = snap_to_bit_flips(
            corrupted, estimate, rtol=1e-6, atol=1e-8, max_flips=2
        )
        assert snapped == 0
        assert refined[2] == estimate[2]


class TestSparseKernelRepair:
    def test_full_rank_single_corruption(self, rng):
        A = rng.uniform(-1, 1, size=(40, 12))
        golden = rng.uniform(-1, 1, size=(12, 4)).astype(np.float32)
        B = A @ golden.astype(np.float64)
        corrupted = _flip(golden, 17, 28)
        estimate, complete = sparse_kernel_repair(
            A, B, corrupted, rtol=1e-4, atol=1e-7
        )
        assert complete
        # Clean words keep their exact bit patterns; the corrupted one is
        # re-estimated to solver precision.
        mask = np.ones(golden.size, dtype=bool)
        mask[17] = False
        assert np.array_equal(
            estimate.ravel()[mask].view(np.uint32), golden.ravel()[mask].view(np.uint32)
        )
        assert abs(float(estimate.ravel()[17]) - float(golden.ravel()[17])) < 1e-5

    def test_extreme_corruption_does_not_cancel(self, rng):
        A = rng.uniform(-1, 1, size=(50, 10))
        golden = rng.uniform(-1, 1, size=(10, 3)).astype(np.float32)
        B = A @ golden.astype(np.float64)
        corrupted = golden.copy()
        corrupted.ravel()[4] = np.float32(1.7e38)  # exponent-bit scale damage
        estimate, complete = sparse_kernel_repair(
            A, B, corrupted, rtol=1e-4, atol=1e-7
        )
        assert complete
        assert abs(float(estimate.ravel()[4]) - float(golden.ravel()[4])) < 1e-5

    def test_unexplainable_residual_reports_incomplete(self, rng):
        A = rng.uniform(-1, 1, size=(30, 8))
        golden = rng.uniform(-1, 1, size=(8, 2)).astype(np.float32)
        B = A @ golden.astype(np.float64) + 0.5  # offset no kernel row explains
        _, complete = sparse_kernel_repair(
            A, B, golden, rtol=1e-6, atol=1e-8, max_support=2
        )
        assert not complete


class TestSparseBiasRepair:
    def _repair(self, golden, corrupted, **kwargs):
        stored_sum = np.asarray([np.float64(golden.sum(dtype=np.float64))])
        return sparse_bias_repair(
            corrupted,
            stored_sum,
            uses_sum=True,
            golden_fingerprint=weight_fingerprint(golden),
            rtol=1e-3,
            atol=1e-5,
            **kwargs,
        )

    def test_single_flip_recovered(self, rng):
        golden = rng.uniform(-0.05, 0.05, size=(16,)).astype(np.float32)
        corrupted = _flip(golden, 5, 26)
        repaired = self._repair(golden, corrupted)
        assert repaired is not None
        assert np.array_equal(repaired.view(np.uint32), golden.view(np.uint32))

    def test_huge_corrupted_word_no_cancellation(self, rng):
        golden = rng.uniform(-0.05, 0.05, size=(8,)).astype(np.float32)
        # Flipping the exponent MSB of a small value yields an astronomically
        # large word -- the case that defeats naive sum arithmetic.
        corrupted = _flip(golden, 2, 30)
        assert abs(float(corrupted[2])) > 1e20
        repaired = self._repair(golden, corrupted)
        assert repaired is not None
        assert np.array_equal(repaired.view(np.uint32), golden.view(np.uint32))

    def test_two_corrupted_words_return_none(self, rng):
        golden = rng.uniform(-0.05, 0.05, size=(12,)).astype(np.float32)
        corrupted = _flip(_flip(golden, 1, 25), 7, 26)
        assert self._repair(golden, corrupted) is None

    def test_full_copy_mode(self, rng):
        golden = rng.uniform(-0.05, 0.05, size=(6,)).astype(np.float32)
        corrupted = _flip(golden, 0, 30)
        repaired = sparse_bias_repair(
            corrupted,
            golden.copy(),
            uses_sum=False,
            golden_fingerprint=weight_fingerprint(golden),
            rtol=1e-3,
            atol=1e-5,
        )
        assert repaired is not None
        assert np.array_equal(repaired.view(np.uint32), golden.view(np.uint32))


class TestCRCGuidedRepair:
    def test_multiple_corrupted_words_restored(self, rng):
        crc = TwoDimensionalCRC(group_size=4, crc_bits=8)
        golden = rng.uniform(-1, 1, size=(3, 3, 8, 8)).astype(np.float32)
        codes = crc.encode_kernel(golden)
        corrupted = _flip(_flip(_flip(golden, 17, 30), 211, 25), 500, 28)
        repaired, complete = crc_guided_kernel_repair(corrupted, codes, crc)
        assert complete
        assert np.array_equal(repaired.view(np.uint32), golden.view(np.uint32))

    def test_clean_kernel_untouched(self, rng):
        crc = TwoDimensionalCRC(group_size=4, crc_bits=8)
        golden = rng.uniform(-1, 1, size=(2, 2, 4, 4)).astype(np.float32)
        codes = crc.encode_kernel(golden)
        repaired, complete = crc_guided_kernel_repair(golden.copy(), codes, crc)
        assert complete
        assert np.array_equal(repaired.view(np.uint32), golden.view(np.uint32))


class TestCRCGuidedRepairBudget:
    """The CRC-guided search refuses corruption too wide for its codes."""

    @pytest.fixture
    def protected_conv(self):
        # block2_conv's shape in mnist_reduced: a 3x3x8x8 kernel, CRC-8 groups of 4.
        model = Sequential([Conv2D(8, 3, padding="valid", seed=5, name="c")])
        model.build((8, 8, 8))
        protector = MILRProtector(model, MILRConfig(always_store_conv_crc=True))
        protector.initialize()
        layer = model.get_layer("c")
        golden = layer.get_weights()

        def repair(corrupted):
            return handler_for(layer, 0).checkpoint_free_repair(
                layer,
                protector.plan.plan_for(0),
                corrupted,
                weight_fingerprint(golden),
                protector.store,
                protector.config,
            )

        return golden, repair

    @pytest.fixture
    def crc_calls(self, monkeypatch):
        calls = []

        def counting(data):
            calls.append(1)
            return crc8_bytes(data)

        monkeypatch.setattr(repro.core.repair, "crc8_bytes", counting)
        return calls

    def test_garbled_kernel_is_refused_before_any_candidate(
        self, protected_conv, crc_calls, rng
    ):
        golden, repair = protected_conv
        words = golden.view(np.uint32).ravel().copy()
        garbled = rng.choice(words.size, size=64, replace=False)
        words[garbled] ^= rng.integers(1, 2**32, size=64, dtype=np.uint64).astype(np.uint32)
        assert repair(words.view(np.float32).reshape(golden.shape)) is None
        assert crc_calls == []

    def test_single_flip_still_repairs_bit_exact(self, protected_conv, crc_calls):
        golden, repair = protected_conv
        repaired = repair(_flip(golden, 100, 27))
        assert repaired is not None
        assert np.array_equal(repaired.view(np.uint32), golden.view(np.uint32))
        assert crc_calls

    def test_budget_applies_to_the_first_localization(self, rng):
        crc = TwoDimensionalCRC(group_size=4, crc_bits=8)
        golden = rng.uniform(-1, 1, size=(3, 3, 8, 8)).astype(np.float32)
        codes = crc.encode_kernel(golden)
        corrupted = golden.copy()
        for word in range(0, 4 * (MAX_CRC_SUSPECTS + 1), 4):
            corrupted = _flip(corrupted, word, 30)
        assert crc.localize_kernel(corrupted, codes).sum() > MAX_CRC_SUSPECTS
        repaired, complete = crc_guided_kernel_repair(corrupted, codes, crc)
        assert not complete
        assert np.array_equal(repaired.view(np.uint32), corrupted.view(np.uint32))


class TestEstimateGuidedRepair:
    def test_repairs_despite_noisy_estimate(self, rng):
        golden = rng.uniform(-0.05, 0.05, size=(32,)).astype(np.float32)
        corrupted = _flip(_flip(golden, 3, 27), 20, 29)
        # Noise well above the snap tolerances, as a bias recovered through a
        # dense inversion would produce.
        estimate = (golden.astype(np.float64) + rng.normal(0, 2e-4, golden.shape)).astype(
            np.float32
        )
        repaired = estimate_guided_repair(
            corrupted,
            estimate,
            weight_fingerprint(golden),
            atol=1e-5,
        )
        assert repaired is not None
        assert np.array_equal(repaired.view(np.uint32), golden.view(np.uint32))

    def test_gives_up_when_everything_is_suspect(self, rng):
        golden = rng.uniform(-0.05, 0.05, size=(16,)).astype(np.float32)
        estimate = golden + np.float32(1.0)  # estimate disagrees everywhere
        assert (
            estimate_guided_repair(
                golden, estimate, weight_fingerprint(golden), atol=1e-5
            )
            is None
        )
