"""Order statistics shared by the end-to-end and per-layer reports."""

from __future__ import annotations

# a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def percentile(values, p):
    """Linearly interpolated p-th percentile (0 <= p <= 100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """(percentile, value) of the highest order statistic with at least
    TAIL_BEYOND samples beyond it; the median when that would lie below it."""
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND - 1
    if k < (n - 1) / 2:
        return 50.0, percentile(xs, 50.0)
    return 100.0 * (n - TAIL_BEYOND) / n, xs[k]
