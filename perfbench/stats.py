"""Statistics the benchmark reports, kept apart so test_stats.py can pin them.

Timings are medians over passes (or over pooled operations); tails use the
nearest-rank percentile and only the highest percentile that still has at
least ten samples beyond it.
"""

import math
import statistics

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def allows_percentile(count, p):
    """True when `count` samples may report percentile p (see below)."""
    tail = tail_percentile(count)
    return tail is not None and tail >= p


def tail_percentile(count):
    """Highest percentile of TAIL_LADDER with at least MIN_BEYOND samples
    beyond it among `count` samples, or None when even the median lacks
    them. p99 needs 1000 samples, p99.9 needs 10000."""
    for p in TAIL_LADDER:
        # Rounded so that 1000 samples leave exactly 10 beyond p99.
        beyond = round(count * (100.0 - p) / 100.0, 9)
        if beyond >= MIN_BEYOND:
            return p
    return None


# Window classes of online-phased Feed calls. The flag bits mirror
# WindowFlags in driver/passes.h.
WINDOW_DECIDED = 1
WINDOW_INITIAL = 2
WINDOW_PHASE_CHANGE = 4
WINDOW_REPLACED = 8
WINDOW_CLASSES = ("steady", "rejected", "replaced")


def classify_window(flags):
    """Class of one Feed call from its window's flags: None when the call
    decided no window (a trailing partial window), 'initial' for a
    session's first window (the initial placement), 'replaced' when the
    placement changed before serving, 'rejected' when a phase change was
    declared but the placement kept, else 'steady'."""
    if not flags & WINDOW_DECIDED:
        return None
    if flags & WINDOW_INITIAL:
        return "initial"
    if flags & WINDOW_REPLACED:
        return "replaced"
    if flags & WINDOW_PHASE_CHANGE:
        return "rejected"
    return "steady"


def cache_tier_s(cached_run_s, plain_run_s):
    """Host time of the cache tier: the median over traced passes of the
    service Run() wall time with the cache tier on minus that of the same
    tenants with it off, paired pass by pass so both sides of a difference
    see the same machine state."""
    if len(cached_run_s) != len(plain_run_s) or not cached_run_s:
        raise ValueError("cache_tier_s needs one plain run per cached run")
    return median([c - p for c, p in zip(cached_run_s, plain_run_s)])
