"""Order statistics used by every workload, the comparer and the tests."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile as ``statistics.quantiles`` interpolates
    it; a single sample is its own percentile."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[pct - 1])


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the repeatability measure of the benchmark contract."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
