"""Reference implementation of the lowess smoother.

This is the per-point loop that `patmetrics.stats.lowess` replaced with
fits of a block of points at a time.  It is kept as a test oracle: the
smoother must return exactly (`==`) what this loop returns.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from patmetrics.errors import InsufficientDataError


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
