"""Correctness oracle: a never-faulted golden twin of the served network."""

from __future__ import annotations

import numpy as np

__all__ = ["RTOL", "ATOL", "mismatched_rows", "GoldenTwin"]

#: The benchmark's own answer tolerance.  Fused serving reorders float32
#: sums, so a correct answer may differ from the layer-by-layer forward in
#: its last bits; a weight fault moves answers far beyond this.
RTOL = 1e-4
ATOL = 2e-5


def mismatched_rows(
    outputs: np.ndarray, expected: np.ndarray, rtol: float = RTOL, atol: float = ATOL
) -> np.ndarray:
    """Boolean mask of answer rows that disagree with the reference rows.

    A NaN or infinity anywhere in a row makes that row a mismatch.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if outputs.shape != expected.shape:
        raise ValueError(f"answer shape {outputs.shape} != reference shape {expected.shape}")
    close = np.abs(outputs - expected) <= atol + rtol * np.abs(expected)
    return ~close.reshape(close.shape[0], -1).all(axis=1)


class GoldenTwin:
    """The served zoo network rebuilt from the same seed and never faulted.

    Reference answers come from the layer-by-layer forward
    (``predict(..., use_plan=False)``), independent of the plan compiler the
    service serves through.
    """

    def __init__(self, network: str, pool: np.ndarray):
        from repro.zoo import network_table

        self.model = network_table()[network].builder()
        self.answers = self.model.predict(pool, use_plan=False)

    def weight_bits(self, index: int) -> np.ndarray:
        """Golden weights of layer ``index`` as raw float32 words."""
        return self.model.layers[index].get_weights().view(np.uint32)

    def matches(self, layer, index: int) -> bool:
        """Whether a served layer is bit-identical to its golden twin."""
        return np.array_equal(layer.get_weights().view(np.uint32), self.weight_bits(index))

    def mismatches(self, outputs: np.ndarray, pool_indices: np.ndarray) -> np.ndarray:
        """Mask of served answers that disagree with the golden answers."""
        return mismatched_rows(outputs, self.answers[pool_indices])
