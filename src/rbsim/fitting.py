"""Least-squares fitting of the exponential decay A0 + B0 * p^m."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DecayFit", "fit_decay", "r_from_p"]

_GRID_SIZE = 512
_ZOOM_SIZE = 33
_STEP_TOL = 1e-12

# 512 points log-spaced in 1 - p from 1e-9 to 1 (p = 0), each 10^e a
# scalar libm power: numpy's vector power rounds by the host's CPU
_GRID = 1.0 - np.array([10.0 ** e for e in np.linspace(-9.0, 0.0, _GRID_SIZE).tolist()])


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


def _steps(ms) -> list:
    """The steps between sorted lengths ``ms``, the first one from 0, as
    ints; a length that is not a non-negative integer raises."""
    ms = ms.tolist()
    if not all(m >= 0 and m.is_integer() for m in ms):
        raise ValueError(f"lengths must be non-negative integers, not {ms}")
    return [int(m - before) for before, m in zip([0.0] + ms, ms)]


def _powers(ps, steps) -> np.ndarray:
    """p^m at every p of ``ps`` (P,) or (C, P) and every length m whose
    ``_steps`` these are, as (M, P) or (C, M, P).  Only products, so every
    host rounds alike (numpy's float ``power`` rounds by its CPU's kernel):
    p^s by repeated squaring for each distinct step s, then a running
    product over the lengths, one row of all the p at a time."""
    row = ps.reshape(-1)
    table = {}
    for s in set(steps):
        power, base, bits = np.ones_like(row), row, s
        while bits:
            if bits & 1:
                power = power * base
            bits >>= 1
            if bits:
                base = base * base
        table[s] = power
    x = np.empty((len(steps), row.size))
    x[0] = table[steps[0]]
    for i in range(1, len(steps)):
        np.multiply(x[i - 1], table[steps[i]], out=x[i])
    return np.ascontiguousarray(x.reshape(len(steps), *ps.shape).swapaxes(0, -2))


def _ratio(num, den):
    """num / den elementwise, 0 where den is not positive."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


class _Curves:
    """The p-independent terms of C curves ``ys`` (C, M) that share their M
    lengths ``ms``, each with A0 measured from its lower bound ``shift``
    (C, 1; 0 for a free curve), so that values near a pinned A0 keep their
    low bits in every sum: the weights ``w``, ``dy = ys - y_bar`` and
    ``wdy = w * dy`` (C, M, 1), and the weight sums ``w_sum``, weighted
    means ``y_bar`` and the SSE ``syy`` of the constant y_bar (C, 1); and the
    box, as the clip bounds ``lo`` and ``hi`` (2, C, 1: A0, B0) and the
    values (a_lo, a_hi) and (b_lo, b_hi) its edges fix (2, C, 1 each), 0 for
    an infinite bound.  Every sum over the lengths runs in one order
    whatever C is."""

    def __init__(self, ms, ys, w, boxes):
        free = ((-np.inf, np.inf), (-np.inf, np.inf))
        box = np.array([free if b is None else b for b in boxes], dtype=float).T[..., None]
        self.shift = np.where(np.isfinite(box[0, 0]), box[0, 0], 0.0)
        box[:, 0] -= self.shift
        self.lo, self.hi = box
        self.a_fixed, self.b_fixed = np.where(np.isfinite(box), box, 0.0).transpose(1, 0, 2, 3)
        self.steps, self.w = _steps(ms), w[..., None]
        ys = (ys - self.shift)[..., None]
        self.w_sum = self.w.sum(axis=1)
        self.y_bar = (self.w * ys).sum(axis=1) / self.w_sum
        self.dy = ys - self.y_bar[:, None]
        self.wdy = self.w * self.dy
        self.syy = (self.wdy * self.dy).sum(axis=1)


def _profile(ps, curves: _Curves):
    """The candidates for the best (A0, B0) at every p of ``ps`` and their
    weighted SSE, as three (5, C, P) arrays whose least SSE over the first
    axis is the profile; ``ps`` is (P,) for every curve or (C, P), a row per
    curve.

    The free solution is the weighted regression of y on x = p^m in centred
    form, with its SSE summed once.  Any other (A0, B0) costs exactly
    SSE(a, b) = SSE_free + Sxx (b - b*)^2 + W (y_bar - a - b x_bar)^2, with
    Sxx the centred sum of w x^2, W the weight sum and b* the free slope;
    each added term is >= 0, so nothing cancels.  At B0 = 0 the first two
    terms are the p-independent ``syy``, so a constant fit's SSE is the
    same at every p.  The five candidates are the free solution clamped to
    the box, A0 fixed at either bound with the best B0 for it, and B0 fixed
    at either bound with the best A0, each clamped: the cheapest is the exact
    box-constrained minimum (the free solution when it lies in the box, else
    a point of an edge).
    """
    w, y_bar, w_sum = curves.w, curves.y_bar, curves.w_sum
    x = _powers(ps, curves.steps)
    x_bar = (x * w).sum(axis=1) / w_sum
    dx = x - x_bar[:, None]
    wdx = w * dx
    sxx = (wdx * dx).sum(axis=1)
    sxy = (dx * curves.wdy).sum(axis=1)
    b = _ratio(sxy, sxx)
    resid = curves.dy - b[:, None] * dx
    sse = (resid * resid * w).sum(axis=1)
    cand_a, cand_b = np.empty((2, 5) + sse.shape)
    cand_a[0], cand_b[0] = y_bar - b * x_bar, b
    cand_a[1:3] = curves.a_fixed
    wx_bar = w_sum * x_bar
    cand_b[1:3] = _ratio(sxy + wx_bar * (y_bar - curves.a_fixed), sxx + wx_bar * x_bar)
    cand_a[3:], cand_b[3:] = y_bar - curves.b_fixed * x_bar, curves.b_fixed
    np.clip(cand_a, curves.lo[0], curves.hi[0], out=cand_a)
    np.clip(cand_b, curves.lo[1], curves.hi[1], out=cand_b)
    db, da = cand_b - b, y_bar - cand_a - cand_b * x_bar
    centred = np.where(cand_b == 0.0, curves.syy, sse + sxx * db * db)
    return cand_a, cand_b, centred + w_sum * da * da


def _best(sse):
    """The index in p of each curve's least SSE over every p and candidate."""
    return np.argmin(sse.min(axis=0), axis=1)


def _search(ms, ys, w, boxes):
    """A0, B0 and p of the least-SSE fit of each of the curves ``ys`` (C, M),
    none of them constant: the grid, then the zoom rounds, of ``fit_decay``."""
    curves = _Curves(ms, ys, w, boxes)
    rows = np.arange(len(ys))
    best = _best(_profile(_GRID, curves)[2])
    # the grid decreases in p, so its neighbours bracket the best point
    lo = _GRID[np.minimum(best + 1, _GRID_SIZE - 1)]
    hi = _GRID[np.maximum(best - 1, 0)]
    zooming = hi - lo >= _STEP_TOL
    while zooming.any():
        ps = np.linspace(lo, hi, _ZOOM_SIZE, axis=1)
        i = _best(_profile(ps, curves)[2])
        # a curve whose bracket is narrow enough keeps it
        lo = np.where(zooming, ps[rows, np.maximum(i - 1, 0)], lo)
        hi = np.where(zooming, ps[rows, np.minimum(i + 1, _ZOOM_SIZE - 1)], hi)
        zooming = hi - lo >= _STEP_TOL
    p = (lo + hi) / 2.0
    a, b, sse = (c[..., 0] for c in _profile(p[:, None], curves))
    pick = np.argmin(sse, axis=0)
    return a[pick, rows] + curves.shift[:, 0], b[pick, rows], p


def _weights(weights, size: int) -> np.ndarray:
    """One curve's ``weights`` checked, or ones for None."""
    if weights is None:
        return np.ones(size)
    w = np.asarray(weights, dtype=float)
    if w.shape != (size,):
        raise ValueError("weights must match points")
    if np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weights must be non-negative and not all zero")
    return w


def fit_decay(points, weights=None, coefficient_bounds=None) -> DecayFit | list:
    """Fit ``value = A0 + B0 * p^m`` to (m, value) points, or C such curves
    that share their lengths in one call.

    For one curve each value is a number, ``weights`` one per point (the
    usual 1/stderr^2 convention; None: equal), ``coefficient_bounds``
    ((a_lo, a_hi), (b_lo, b_hi)) box-constrains the coefficients (None:
    free), and the result is a ``DecayFit``.  For C curves each value is a
    row of C, one per curve; ``weights`` and ``coefficient_bounds`` are None
    or one entry per curve, each as for one curve, and the result is a list
    of C fits, each the fit of its curve alone.  The points may come in any
    order; their lengths are non-negative integers, since every p^m is a
    product of p's (``_powers``).

    A curve whose values are constant to 1e-15 is degenerate, fitted as
    p = 1.  For the others the profile (the best A0, B0 and weighted SSE for
    a fixed p, see ``_profile``) is evaluated in one array call over 512
    points log-spaced in 1 - p, p = 0 included, for every curve, then zoomed
    in on around each curve's best grid point: each round evaluates it at 33
    points of every curve's bracket and keeps the best one's two neighbours,
    until the curve's bracket is narrower than 1e-12 in p.  A fit whose B0
    comes out 0 has the same SSE at every p, so no p is read off it: it is
    degenerate too, reported as p = 1 with its fitted A0 and residual.
    """
    # in order of length, each value and weight with its own point, so
    # that the order the points come in changes no sum
    pts = list(points)
    order = sorted(range(len(pts)), key=lambda i: pts[i][0])
    ms = np.array([float(pts[i][0]) for i in order])
    values = np.array([pts[i][1] for i in order], dtype=float)
    if len(set(ms.tolist())) < 3:
        raise ValueError("need at least 3 points with 3 distinct lengths")
    steps = _steps(ms)
    ys = np.ascontiguousarray(values.T).reshape(-1, ms.size)
    one = values.ndim == 1
    if one:
        weights, coefficient_bounds = [weights], [coefficient_bounds]
    weights = [None] * len(ys) if weights is None else list(weights)
    boxes = [None] * len(ys) if coefficient_bounds is None else list(coefficient_bounds)
    if not len(weights) == len(boxes) == len(ys):
        raise ValueError("need one weights and one bounds entry per curve")
    if any(box is not None and np.shape(box) != (2, 2) for box in boxes):
        raise ValueError("coefficient bounds must be ((a_lo, a_hi), (b_lo, b_hi))")
    w = np.array([_weights(wc, ms.size)[order] for wc in weights])

    flat = np.isclose(ys, ys[:, :1], rtol=0.0, atol=1e-15).all(axis=1)
    fits = [DecayFit(a0=float(y[0]), b0=0.0, p=1.0, residual_rms=0.0, degenerate=True,
                     at_boundary=True) for y in ys]
    live = np.flatnonzero(~flat)
    if live.size:
        a0, b0, p = _search(ms, ys[live], w[live], [boxes[k] for k in live])
        resid = a0[:, None] + b0[:, None] * _powers(p[:, None], steps)[..., 0] - ys[live]
        rms = np.sqrt(np.mean(resid ** 2, axis=1))
        for k, a, b, pk, r in zip(live, a0.tolist(), b0.tolist(), p.tolist(), rms.tolist()):
            no_decay = b == 0.0  # every p fits alike, so none is read off
            fits[k] = DecayFit(a, b, 1.0 if no_decay else pk, r, degenerate=no_decay,
                               at_boundary=no_decay or pk <= 0.0 or pk >= 1.0 - 1e-12)
    return fits[0] if one else fits
