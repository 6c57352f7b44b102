"""Reference implementations of the Wilcoxon ranking and the lowess smoother.

`wilcoxon_signed_rank` groups equal |d| three times: to rank them
(`_average_ranks`), to test for ties and to size the ties.
`patmetrics.stats.wilcoxon_signed_rank` replaced the three with one sort.
`lowess` is the per-point loop that `patmetrics.stats.lowess` replaced with
fits of a block of points at a time.  Both are kept as test oracles: the
library must return exactly (`==`) what these return.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from patmetrics.errors import DegenerateSampleError, InsufficientDataError
from patmetrics.stats import DEFAULT_EXACT_CUTOFF, TestResult, _exact_p, _normal_p


def _average_ranks(values: Sequence[float]) -> list[float]:
    """Ranks starting at 1; tied values share the average of their ranks."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


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
    ranks = _average_ranks(abs_d)
    w = sum(r for r, d in zip(ranks, diffs) if d > 0)

    tie_free = len(set(abs_d)) == n
    if tie_free and n <= exact_cutoff:
        return TestResult(w, n, _exact_p(int(round(w)), n), "exact")
    tie_sizes = [abs_d.count(v) for v in set(abs_d)]
    return TestResult(w, n, _normal_p(w, n, tie_sizes), "normal")


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
    # r-th smallest absolute distance from each point is its bandwidth
    h = np.array([np.sort(np.abs(x - x[i]))[r - 1] for i in range(n)])
    delta = np.ones(n)
    fitted = np.zeros(n)
    for _ in range(robust_iters + 1):
        for i in range(n):
            d = np.abs(x - x[i])
            if h[i] > 0:
                u = np.clip(d / h[i], 0.0, 1.0)
            else:
                u = np.where(d > 0, 1.0, 0.0)
            w = (1.0 - u**3) ** 3 * delta
            sw = w.sum()
            if sw <= 0:
                fitted[i] = y[i]
                continue
            xw = (w * x).sum() / sw
            yw = (w * y).sum() / sw
            sxx = (w * (x - xw) ** 2).sum()
            if sxx <= 1e-12 * (1.0 + xw * xw):
                fitted[i] = yw
            else:
                beta = (w * (x - xw) * y).sum() / sxx
                fitted[i] = yw + beta * (x[i] - xw)
        resid = y - fitted
        s = float(np.median(np.abs(resid)))
        # once residuals are negligible at the scale of the data, further
        # reweighting only chases floating-point noise
        if s <= 1e-12 * max(1.0, float(np.max(np.abs(y)))):
            break
        delta = np.clip(resid / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - delta**2) ** 2
    return fitted.tolist()
