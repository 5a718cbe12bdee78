"""Percentiles under the benchmark's sample rule.

A percentile p of n samples is reported only when at least MIN_BEYOND samples
lie above it, so a tail figure always rests on more than a couple of values.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def min_samples(p: float) -> int:
    """Smallest sample count at which percentile p (0 < p < 100) is allowed."""
    n = MIN_BEYOND
    while n - math.ceil(p / 100 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; raises TooFewSamples when fewer than
    MIN_BEYOND samples lie beyond it."""
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(p / 100 * n)  # 1-based
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} needs at least {min_samples(p)} samples, got {n}"
        )
    return ordered[rank - 1]
