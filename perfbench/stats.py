"""Metric arithmetic of the benchmark: percentiles, open-loop latency,
failure shares.  Pure functions with no program imports, so the tests
in ``test_stats.py`` run without the package under test.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10

MISSING = math.inf
"""Latency of a request that was refused or failed: it misses every limit."""


def _rank(n: int, pct: float) -> int:
    """1-based nearest-rank index of ``pct`` in ``n`` sorted samples."""
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``MISSING`` samples sort last)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` of ``n`` samples."""
    return n - _rank(n, pct)


def supported_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it, or ``None`` when even the median lacks them."""
    best = None
    for pct in PERCENTILE_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def timing_summary(values: Sequence[float]) -> dict:
    """Median, highest supported percentile and sample count."""
    n = len(values)
    out = {"n": n, "p50": percentile(values, 50.0) if n else None}
    tail = supported_percentile(n)
    out["tail_pct"] = tail
    out["tail"] = None if tail is None else percentile(values, tail)
    return out


def latency_from_due(due: float, done: float | None) -> float:
    """Open-loop latency: completion minus the time the request was
    *due*, not when the generator got round to sending it, so a stall
    charges every request queued behind it.  ``None`` (refused or
    failed) is ``MISSING``."""
    if done is None or not math.isfinite(done):
        return MISSING
    return max(0.0, done - due)


def within_limit_frac(latencies: Sequence[float], limit_s: float) -> float:
    """Share of attempted requests done within ``limit_s`` of their due
    time; the base is every attempt, so refusals count as misses."""
    if not latencies:
        raise ValueError("within_limit_frac of zero attempts")
    return sum(1 for lat in latencies if lat <= limit_s) / len(latencies)


def fail_frac(attempted: int, errored: int = 0, refused: int = 0, invalid: int = 0) -> float:
    """(errored + refused + invalid designs) / attempted."""
    if attempted < 1:
        raise ValueError("fail_frac needs at least one attempt")
    failed = errored + refused + invalid
    if failed > attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def finite(value: float, cap: float = 1e9) -> float:
    """JSON has no infinity: a ``MISSING`` aggregate is written as ``cap``."""
    return value if math.isfinite(value) else cap
