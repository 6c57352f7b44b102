"""Statistical machinery: paired Wilcoxon signed-rank test, Holm step-down
adjustment, locally weighted scatterplot smoothing, and summary statistics.

The Wilcoxon test ranks |d| with one sort, each run of equal |d| sharing its
average rank as one tie; small tie-free samples take the exact distribution
of sign assignments, others a normal approximation with tie correction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, groupby
from statistics import mean, median, pstdev
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateSampleError, InsufficientDataError
from .io import GroupSeries

DEFAULT_EXACT_CUTOFF = 20

#: Points `lowess` fits at once, each against all n points: it holds a few
#: `_ROW_BLOCK` x n float64 matrices, never an n x n one.
_ROW_BLOCK = 64


@dataclass(frozen=True)
class TestResult:
    statistic: float  # sum of ranks of positive differences
    n_effective: int  # pairs remaining after zero differences are dropped
    p_value: float
    method: str  # "exact" | "normal"


@functools.cache
def _signed_rank_counts(n: int) -> tuple[int, ...]:
    """How many of the 2^n sign assignments of ranks 1..n give each positive-rank sum."""
    m = n * (n + 1) // 2
    counts = [0] * (m + 1)
    counts[0] = 1
    for r in range(1, n + 1):
        for s in range(m, r - 1, -1):
            counts[s] += counts[s - r]
    return tuple(counts)


def _exact_p(w: int, n: int) -> float:
    """Two-sided p for rank sum `w` over all 2^n sign assignments.

    Valid only when ranks are exactly 1..n (no ties), so the positive-rank
    sum is integral.  Tail counts are exact integers.
    """
    counts = _signed_rank_counts(n)
    lower = sum(counts[: w + 1])
    upper = sum(counts[w:])
    total = 1 << n
    p = 2 * min(lower, upper) / total
    return min(1.0, p)


def _normal_p(w: float, n: int, tie_sizes: Sequence[int]) -> float:
    mu = n * (n + 1) / 4
    var = n * (n + 1) * (2 * n + 1) / 24 - sum(t**3 - t for t in tie_sizes) / 48
    if var <= 0:
        return 1.0
    d = w - mu
    if d > 0:
        d -= 0.5
    elif d < 0:
        d += 0.5
    z = d / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2)))


def wilcoxon_signed_rank(
    x: Sequence[float],
    y: Sequence[float],
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
) -> TestResult:
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are dropped.  The exact distribution is used when the
    effective sample is at most `exact_cutoff` and the absolute differences
    are tie-free; otherwise the normal approximation with tie-corrected
    variance and 0.5 continuity correction.
    """
    if len(x) != len(y):
        raise ValueError(f"paired samples differ in length: {len(x)} vs {len(y)}")
    if not x:
        raise InsufficientDataError("empty paired sample")
    diffs = []
    for a, b in zip(x, y):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("non-finite value in paired sample")
        d = a - b
        if d != 0.0:
            diffs.append(d)
    n = len(diffs)
    if n == 0:
        raise DegenerateSampleError("all paired differences are zero")

    abs_d = [abs(d) for d in diffs]
    ranks, tie_sizes, k = [0.0] * n, [], 0
    for _, run in groupby(sorted(range(n), key=abs_d.__getitem__), abs_d.__getitem__):
        run = list(run)
        t = len(run)
        for i in run:
            ranks[i] = k + (t + 1) / 2
        tie_sizes.append(t)
        k += t
    w = sum(r for r, d in zip(ranks, diffs) if d > 0)

    if len(tie_sizes) == n and n <= exact_cutoff:
        return TestResult(w, n, _exact_p(int(round(w)), n), "exact")
    return TestResult(w, n, _normal_p(w, n, tie_sizes), "normal")


def holm_adjust(p_values: Sequence[float]) -> list[float]:
    """Holm step-down adjustment; returns values in the input order."""
    m = len(p_values)
    for p in p_values:
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"p-value out of range: {p}")
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * p_values[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted


@dataclass(frozen=True)
class PairwiseResult:
    """All-pairs comparison of group series over one period.  The pair
    mappings are keyed `(a, b)`, `a` before `b` in the compared series, and
    iterate in that order."""

    tests: Mapping[tuple[str, str], TestResult | None]
    adjusted: Mapping[tuple[str, str], float | None]
    summaries: Mapping[str, tuple[float, float, float] | None]  # mean, median, stdev


def pairwise_compare(
    series_list: Sequence[GroupSeries],
    period: tuple[int, int],
    holm: bool = True,
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
) -> PairwiseResult:
    """Wilcoxon tests for every unordered group pair on their common years
    within `period`, with optional Holm adjustment over the testable pairs.

    Pairs that cannot be tested (under 2 common years, or all differences
    zero) carry None; they do not enter the adjustment family.
    """
    if len(series_list) < 2:
        raise ValueError("need at least 2 series to compare")
    names = [s.group for s in series_list]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate group names: {names}")
    lo, hi = period
    restricted = {s.group: {y: v for y, v in s.points if lo <= y <= hi} for s in series_list}

    tests: dict[tuple[str, str], TestResult | None] = {}
    pairs = list(combinations(names, 2))
    for a, b in pairs:
        da, db = restricted[a], restricted[b]
        years = sorted(set(da) & set(db))
        tests[(a, b)] = None
        if len(years) < 2:
            continue
        try:
            tests[(a, b)] = wilcoxon_signed_rank(
                [da[y] for y in years], [db[y] for y in years], exact_cutoff
            )
        except DegenerateSampleError:
            pass

    adjusted = {p: None if res is None else res.p_value for p, res in tests.items()}
    if holm:
        testable = [p for p in pairs if tests[p] is not None]
        adjusted.update(zip(testable, holm_adjust([adjusted[p] for p in testable])))

    summaries: dict[str, tuple[float, float, float] | None] = {}
    for s in series_list:
        vals = list(restricted[s.group].values())
        summaries[s.group] = summary_stats(vals) if vals else None

    return PairwiseResult(tests, adjusted, summaries)


def summary_stats(values: Sequence[float]) -> tuple[float, float, float]:
    """Mean, median, and population standard deviation."""
    if not values:
        raise InsufficientDataError("no values to summarise")
    return mean(values), median(values), pstdev(values)


# ---------------------------------------------------------------------------
# locally weighted smoothing

def lowess(
    xs: Sequence[float],
    ys: Sequence[float],
    fraction: float = 2.0 / 3.0,
    robust_iters: int = 3,
) -> list[float]:
    """Robust locally weighted linear smoother; returns fitted values in
    input order.

    Each point is fitted by weighted least squares over its `fraction`
    nearest neighbours with tricube distance weights, then reweighted
    `robust_iters` times with bisquare weights on the residuals.  Windows
    with no x spread fall back to the weighted mean.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"x and y differ in length: {n} vs {len(ys)}")
    if n < 2:
        raise InsufficientDataError("lowess needs at least 2 points")
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must lie in (0, 1]: {fraction}")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite input to lowess")
    if len(set(x.tolist())) < 2:
        raise InsufficientDataError("lowess needs at least 2 distinct x values")

    r = min(n, max(2, math.ceil(fraction * n)))
    blocks = [slice(start, start + _ROW_BLOCK) for start in range(0, n, _ROW_BLOCK)]
    # the r-th smallest absolute distance from each point is its bandwidth
    h = np.empty(n)
    for b in blocks:
        h[b] = np.partition(np.abs(x - x[b, None]), r - 1, axis=1)[:, r - 1]
    delta = np.ones(n)
    fitted = np.zeros(n)
    for _ in range(robust_iters + 1):
        for b in blocks:
            fitted[b] = _local_fits(x, y, h, delta, b)
        resid = y - fitted
        s = median(np.abs(resid).tolist())
        # once residuals are negligible at the scale of the data, further
        # reweighting only chases floating-point noise
        if s <= 1e-12 * max(1.0, float(np.max(np.abs(y)))):
            break
        delta = np.clip(resid / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - delta**2) ** 2
    return fitted.tolist()


def _local_fits(
    x: np.ndarray, y: np.ndarray, h: np.ndarray, delta: np.ndarray, rows: slice
) -> np.ndarray:
    """The fitted values of the points `rows`, with bandwidths `h` and
    robustness weights `delta`.  Each point is one row of a weight matrix
    over all n points, and each row is summed as the 1-D sums of a single
    point's fit are, so every value is the one that point would get fitted
    on its own."""
    d = np.abs(x - x[rows, None])
    hb = h[rows, None]
    u = np.where(hb > 0, np.clip(d / np.where(hb > 0, hb, 1.0), 0.0, 1.0), d > 0)
    w = (1.0 - u**3) ** 3 * delta
    del d, u
    with np.errstate(divide="ignore", invalid="ignore"):
        sw = w.sum(axis=1)
        xw = (w * x).sum(axis=1) / sw
        yw = (w * y).sum(axis=1) / sw
        dx = x - xw[:, None]
        sxx = (w * dx**2).sum(axis=1)
        beta = (w * dx * y).sum(axis=1) / sxx
        line = np.where(sxx <= 1e-12 * (1.0 + xw * xw), yw, yw + beta * (x[rows] - xw))
    # no weight at all: the point itself; no x spread: the weighted mean
    return np.where(sw <= 0, y[rows], line)


def smooth_series(series: GroupSeries, fraction: float = 2.0 / 3.0) -> GroupSeries:
    """Lowess-smoothed copy of an annual series (same years)."""
    xs = [float(y) for y in series.years()]
    fitted = lowess(xs, series.values(), fraction)
    pts = tuple((yr, v) for yr, v in zip(series.years(), fitted))
    return GroupSeries(series.group, pts)
