"""Metric arithmetic shared by the benchmark, its spread check and its tests."""

from __future__ import annotations

import statistics
from typing import Sequence

# A tail percentile must leave at least this many samples above it.
TAIL_MIN_BEYOND = 10


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.

    The value is the sample of rank n - 10 (1-based) in ascending order,
    which is the nearest-rank percentile 100 * (n - 10) / n. With ten
    samples or fewer no percentile qualifies, and the maximum is returned
    as percentile 100.
    """
    if not samples:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_MIN_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_time(start: float, end: float, children: Sequence[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its children cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children if e > start and s < end]
    return (end - start) - union_length(clipped)


def scaling_efficiency(serial_s: float, parallel_s: float, workers: int) -> float:
    """Serial wall time over workers x parallel wall time of the same batch;
    1.0 is perfect scaling."""
    return serial_s / (workers * parallel_s)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
