"""Percentiles, arrival schedules and run-to-run spreads.

Pure NumPy and the standard library, so the self-tests need no ``repro``.
"""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

__all__ = [
    "MIN_SAMPLES_BEYOND",
    "supports",
    "percentile",
    "poisson_schedule",
    "fixed_schedule",
    "quartile_spread",
]

#: A percentile is reported only when at least this many samples lie beyond
#: it; with fewer, the "tail" is one or two outliers.
MIN_SAMPLES_BEYOND = 10


def supports(count: int, q: float, min_beyond: int = MIN_SAMPLES_BEYOND) -> bool:
    """Whether ``count`` samples put at least ``min_beyond`` beyond percentile ``q``."""
    if count < 1:
        return False
    if q <= 50.0:
        return True
    # Integer arithmetic on hundredths avoids float edge cases at the boundary.
    return count * round((100.0 - q) * 100) >= min_beyond * 100 * 100


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0-100) of ``values``.

    Raises ``ValueError`` on an empty sample and on a tail percentile the
    sample cannot support (fewer than :data:`MIN_SAMPLES_BEYOND` beyond it).
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("percentile of an empty sample")
    if not supports(data.size, q):
        raise ValueError(
            f"{data.size} samples put fewer than {MIN_SAMPLES_BEYOND} beyond p{q:g}"
        )
    return float(np.percentile(data, q))


def poisson_schedule(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds, ascending) of a Poisson process over ``[0, duration)``."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    chunk = int(rate * duration) + 64
    parts: list[np.ndarray] = []
    last = 0.0
    while last < duration:
        part = last + np.cumsum(rng.exponential(1.0 / rate, size=chunk))
        parts.append(part)
        last = float(part[-1])
    offsets = np.concatenate(parts)
    return offsets[offsets < duration]


def fixed_schedule(count: int, duration: float) -> np.ndarray:
    """``count`` evenly spaced offsets over ``[0, duration)``, mid-slot.

    Fault injections use this instead of a Poisson draw: the number and times
    of faults a run sees must not depend on how fast the system heals.
    """
    if count < 0 or duration <= 0:
        raise ValueError("count must be non-negative and duration positive")
    return (np.arange(count) + 0.5) * (duration / max(count, 1))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")
