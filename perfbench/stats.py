"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10    # samples a reported tail percentile must leave above it


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail(values):
    """The highest percentile that leaves ``TAIL_BEYOND`` samples above it.

    With nearest-rank percentiles, the p-th percentile of n samples is the
    sample at rank ceil(p*n/100); the highest p that leaves ``beyond``
    samples above it is p = 100*(n - beyond)/n, the sample of rank
    n - beyond (``beyond`` = ``TAIL_BEYOND``). Returns ``(value,
    percentile)``, or None when that percentile would lie below the median
    (fewer than ``2 * beyond`` samples).
    """
    beyond = TAIL_BEYOND
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * beyond:
        return None
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n
