"""Order statistics for the bench ledger (stdlib only).

Every timing the ledger reports is an order statistic of samples pooled
from several fresh processes; nothing here averages, because the noise
on a shared box is one-sided (a sample is only ever *slowed* by a
neighbour).
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: A percentile is reported only when this many samples lie beyond it
#: (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), ``0 <= q <= 1``."""
    if not values:
        raise ValueError("quantile of an empty sample")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supports_percentile(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond quantile ``q``."""
    return n * (1.0 - q) >= MIN_BEYOND - 1e-9  # 100 * (1 - 0.9) < 10 in floats


def summarize(values: Sequence[float]) -> dict:
    """``{n, min, p50}`` plus ``p75`` only when ten samples lie beyond it."""
    out = {"n": len(values), "min": min(values), "p50": quantile(values, 0.5)}
    if supports_percentile(len(values), 0.75):
        out["p75"] = quantile(values, 0.75)
    return out


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as the acceptance driver computes them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative = better)."""
    if not base:
        return 0.0
    delta = (new - base) / base
    return delta if better == "lower" else -delta


def verdict(
    a: Sequence[float], b: Sequence[float], bound: float, better: str
) -> str:
    """Compare run set ``b`` against baseline ``a`` (guide section 6.5).

    ``unresolved`` when the baseline's own run-to-run spread exceeds the
    bound — unless every run of one side beats every run of the other,
    which no amount of noise explains.
    """
    change = worse_by(statistics.median(a), statistics.median(b), better)
    sign = 1.0 if better == "lower" else -1.0
    b_all_better = max(sign * x for x in b) < min(sign * x for x in a)
    b_all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    if spread(a) > bound and not (b_all_better or b_all_worse):
        return "unresolved"
    if change > bound:
        return "REGRESSION"
    return "ok"


def fmt(value: float, digits: int = 4) -> str:
    return f"{value:.{digits}g}"
