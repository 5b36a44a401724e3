"""Least-squares fitting of the exponential decay A0 + B0 * p^m."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DecayFit", "fit_decay", "r_from_p"]

_GRID_SIZE = 512
_ZOOM_SIZE = 33
_STEP_TOL = 1e-12


@dataclass(frozen=True)
class DecayFit:
    """Result of fitting values against sequence length."""

    a0: float
    b0: float
    p: float
    residual_rms: float
    degenerate: bool = False
    at_boundary: bool = False


def r_from_p(p: float, d: int) -> float:
    """Average gate infidelity (d - 1)(1 - p)/d of a depolarizing parameter."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return (d - 1) * (1.0 - p) / d


def _ratio(num, den):
    """num / den elementwise, 0 where den is not positive."""
    return np.divide(num, den, out=np.zeros_like(den), where=den > 0)


def _profile(ps, ms, ys, w, bounds):
    """Best (A0, B0) and weighted SSE at every p of ``ps``, as three arrays.

    Without ``bounds`` this is the weighted regression of y on x = p^m in
    centred closed form.  With ``bounds`` ((a_lo, a_hi), (b_lo, b_hi)) it is
    the exact box-constrained minimum: the cheapest of five KKT candidates,
    namely the free solution (if inside the box), A0 clamped to either bound
    with B0 solved, and B0 clamped to either bound with A0 solved.
    """
    x = np.asarray(ps, dtype=float)[:, None] ** ms
    w_sum = w.sum()
    x_bar, y_bar = x @ w / w_sum, w @ ys / w_sum
    dx = x - x_bar[:, None]
    b = _ratio(dx @ (w * (ys - y_bar)), (dx * dx) @ w)
    a = y_bar - b * x_bar
    if bounds is None:
        cand_a, cand_b = a[:, None], b[:, None]
    else:
        (a_lo, a_hi), (b_lo, b_hi) = bounds
        xx = (x * x) @ w
        b_at = [np.clip(_ratio(x @ (w * (ys - a_c)), xx), b_lo, b_hi) for a_c in (a_lo, a_hi)]
        a_at = [np.clip(y_bar - b_c * x_bar, a_lo, a_hi) for b_c in (b_lo, b_hi)]
        cand_a = np.stack([a, np.full_like(a, a_lo), np.full_like(a, a_hi), *a_at], axis=1)
        cand_b = np.stack([b, *b_at, np.full_like(b, b_lo), np.full_like(b, b_hi)], axis=1)
    resid = ys - cand_a[..., None] - cand_b[..., None] * x[:, None, :]
    sse = (resid * resid) @ w
    if bounds is not None:
        inside = (a_lo <= a) & (a <= a_hi) & (b_lo <= b) & (b <= b_hi)
        sse[~inside, 0] = np.inf
    pick = np.argmin(sse, axis=1)
    rows = np.arange(pick.size)
    return cand_a[rows, pick], cand_b[rows, pick], sse[rows, pick]


def fit_decay(points, weights=None, coefficient_bounds=None) -> DecayFit:
    """Fit ``value = A0 + B0 * p^m`` to (m, value) points.

    The profile (the best A0, B0 and weighted SSE for a fixed p) is
    evaluated in one array call over 512 points log-spaced in 1 - p, p = 0
    included, then zoomed in on around the best grid point: each round
    evaluates it at 33 points of the bracket and keeps the best one's two
    neighbours, until the bracket is narrower than 1e-12 in p.  With
    ``coefficient_bounds`` ((a_lo, a_hi), (b_lo, b_hi)) the coefficients are
    box-constrained, without them free.  ``weights`` follow the usual
    1/stderr^2 convention, one per point; the points may come in any order.
    """
    pts = [(float(m), float(v)) for m, v in points]
    ms = np.array([m for m, _ in pts])
    ys = np.array([v for _, v in pts])
    if len(set(ms.tolist())) < 3:
        raise ValueError("need at least 3 points with 3 distinct lengths")
    if weights is None:
        w = np.ones_like(ys)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != ys.shape:
            raise ValueError("weights must match points")
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("weights must be non-negative and not all zero")

    if np.allclose(ys, ys[0], rtol=0.0, atol=1e-15):
        return DecayFit(a0=float(ys[0]), b0=0.0, p=1.0, residual_rms=0.0,
                        degenerate=True, at_boundary=True)

    grid = 1.0 - np.logspace(-9.0, 0.0, _GRID_SIZE)
    best = int(np.argmin(_profile(grid, ms, ys, w, coefficient_bounds)[2]))
    # the grid decreases in p, so its neighbours bracket the best point
    lo = float(grid[min(best + 1, _GRID_SIZE - 1)])
    hi = float(grid[max(best - 1, 0)])
    while hi - lo >= _STEP_TOL:
        ps = np.linspace(lo, hi, _ZOOM_SIZE)
        i = int(np.argmin(_profile(ps, ms, ys, w, coefficient_bounds)[2]))
        lo, hi = float(ps[max(i - 1, 0)]), float(ps[min(i + 1, _ZOOM_SIZE - 1)])
    p = (lo + hi) / 2.0
    a0, b0, _ = (float(c[0]) for c in _profile([p], ms, ys, w, coefficient_bounds))
    resid = (a0 + b0 * p ** ms - ys)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return DecayFit(
        a0=a0,
        b0=b0,
        p=p,
        residual_rms=rms,
        degenerate=False,
        at_boundary=bool(p <= 0.0 or p >= 1.0 - 1e-12),
    )
