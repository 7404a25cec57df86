"""Arithmetic shared by the benchmark: percentiles, the tail rule, the
quartile spread and metric-name validation.  Imports nothing from
`magnnet`, so its tests run without the package."""

from __future__ import annotations

import math
import re
import statistics

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND_TAIL = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile (numpy's default 'linear' method)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of `n` sorted samples sit at ranks above the q-th
    percentile's interpolation position (n - 1) * q / 100."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_level(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND_TAIL of `n`
    samples beyond it; None when even the median has fewer."""
    best = None
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND_TAIL:
            best = q
    return best


def summarize(samples) -> dict:
    """p50 and tail of a timing sample, with the tail's level and count."""
    n = len(samples)
    level = tail_level(n)
    return {
        "p50": percentile(samples, 50.0) if n else None,
        "tail": percentile(samples, level) if level is not None else None,
        "tail_level": level,
        "n": n,
    }


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with Python's statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2

