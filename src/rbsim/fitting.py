"""Least-squares fitting of the exponential decay A0 + B0 * p^m."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DecayFit", "fit_decay", "r_from_p"]

_GRID_SIZE = 512
_STEP_TOL = 1e-12

# 512 points log-spaced in 1 - p from 1e-9 to 1 (p = 0), each 10^e a
# scalar libm power: numpy's vector power rounds by the host's CPU
_GRID = 1.0 - np.array([10.0 ** e for e in np.linspace(-9.0, 0.0, _GRID_SIZE).tolist()])

# where a round puts its 33 points in a curve's bracket [lo, hi] of width w,
# as (spread, rungs): points lo + u w for each u of the spread, and t + u w,
# clipped to the bracket, for each rung u around the round's centre t.  The
# first round knows no slope and spreads all 33.  Each later one centres on the
# root that the slopes put in the bracket; its 13 spread points leave no gap
# wider than w / 12 however far off t is, and its rungs, 2^-5, 2^-7, ...,
# 2^-23 of w each way, a far narrower one around a root near t
_ROUND_SIZE = 33
_FIRST = np.linspace(0.0, 1.0, _ROUND_SIZE), np.zeros(0)
_RUNGS = [2.0 ** -k for k in range(5, 24, 2)]
_LATER = np.linspace(0.0, 1.0, 13), np.array([-u for u in _RUNGS] + _RUNGS[::-1])

_FREE = ((-np.inf, np.inf), (-np.inf, np.inf))


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
    lengths ``ms``, with ``boxes`` (C, 2, 2), one ((a_lo, a_hi), (b_lo, b_hi))
    per curve, infinite bounds allowed.  Each curve's A0 is measured from its
    lower bound ``shift`` (C, 1; 0 for an infinite one), so that values near a
    pinned A0 keep their low bits in every sum: the lengths ``m`` (M, 1), the
    weights ``w``, ``dy = ys - y_bar`` and ``wdy = w * dy`` (C, M, 1), and the
    weight sums ``w_sum``, weighted means ``y_bar`` and the SSE ``syy`` of the
    constant y_bar (C, 1); and the box, as the clip bounds ``lo`` and ``hi``
    (2, C, 1: A0, B0) and the values (a_lo, a_hi) and (b_lo, b_hi) its edges
    fix (2, C, 1 each), 0 for an infinite bound.  Every sum over the lengths
    runs in one order whatever C is."""

    def __init__(self, ms, ys, w, boxes):
        box = np.array(boxes, dtype=float).transpose(2, 1, 0)[..., None]
        self.shift = np.where(np.isfinite(box[0, 0]), box[0, 0], 0.0)
        box[:, 0] -= self.shift
        self.lo, self.hi = box
        self.a_fixed, self.b_fixed = np.where(np.isfinite(box), box, 0.0).transpose(1, 0, 2, 3)
        self.steps, self.m, self.w = _steps(ms), ms[:, None], w[..., None]
        ys = (ys - self.shift)[..., None]
        self.w_sum = self.w.sum(axis=1)
        self.y_bar = (self.w * ys).sum(axis=1) / self.w_sum
        self.dy = ys - self.y_bar[:, None]
        self.wdy = self.w * self.dy
        self.syy = (self.wdy * self.dy).sum(axis=1)


def _profile(ps, curves: _Curves, slope: bool = False):
    """The candidates for the best (A0, B0) at every p of ``ps`` and their
    weighted SSE, as three (5, C, P) arrays whose least SSE over the first
    axis is the profile; ``ps`` is (P,) for every curve or (C, P), a row per
    curve.  With ``slope``, a fourth (5, C, P) array holds p dSSE/dp / 2 at
    each candidate, whose sign is that of the SSE's slope in p.

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

    At fixed (a, b), dSSE/dp = -2 b sum w r m p^(m-1) with r the residual.
    At the profile's own (a, b) this is the profile's slope (the envelope
    theorem: the box does not depend on p).  Times p/2 it is -b sum w r m x,
    with no division, and the residual r = r_free + (b* - b) dx + (y_bar -
    a - b x_bar) splits the sum into the free residual's and two of m x.
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
    for cand, lo, hi in zip((cand_a, cand_b), curves.lo, curves.hi):
        np.minimum(np.maximum(cand, lo, out=cand), hi, out=cand)
    db, da = cand_b - b, y_bar - cand_a - cand_b * x_bar
    centred = np.where(cand_b == 0.0, curves.syy, sse + sxx * db * db)
    profile = cand_a, cand_b, centred + w_sum * da * da
    if not slope:
        return profile
    wmx = w * curves.m * x
    r_free, s_dx, s_1 = ((wmx * resid).sum(axis=1), (wmx * dx).sum(axis=1),
                         wmx.sum(axis=1))
    return (*profile, cand_b * (db * s_dx - da * s_1 - r_free))


def _best(sse):
    """The index in p of each curve's least SSE over every p and candidate."""
    return np.argmin(sse.min(axis=0), axis=1)


def _search(ms, ys, w, boxes):
    """A0, B0 and p of the least-SSE fit of each of the curves ``ys`` (C, M),
    none of them constant, in the boxes ``boxes`` (C, 2, 2): the grid, then
    the slope rounds, of ``fit_decay``.

    The grid's best point and its two neighbours bracket each curve's p.  A
    round evaluates the profile and its slope (``_profile``) at 33 points of
    every curve's bracket (``_FIRST``, then ``_LATER``), each slope at the
    point's best candidate, and keeps the two neighbours where the slope
    first turns from <= 0 to > 0; the next round centres on the root of the
    line through their slopes.  Where no slope turns, the profile falls all
    the way (its minimum is at the bracket's upper end) or rises from the
    start (at its lower end), and the round keeps the last or the first two
    points, centred on that end.  The slope is exact to round-off at every
    point, also where the best candidate changes (the profile is a minimum
    over a box that does not depend on p), so a kink in the profile's
    curvature costs the line's accuracy, never the bracket.  A curve is done
    when its bracket is under 1e-12: its p is the end nearer the root (with
    no root between them, the end of less SSE), and its (A0, B0) the best
    candidate there, with no further profile call."""
    curves = _Curves(ms, ys, w, boxes)
    best = _best(_profile(_GRID, curves)[2])
    # the grid decreases in p, so its neighbours bracket the best point
    lo = _GRID[np.minimum(best + 1, _GRID_SIZE - 1)]
    hi = _GRID[np.maximum(best - 1, 0)]
    rows = np.arange(len(ys))
    at_point = rows[:, None], np.arange(_ROUND_SIZE)
    last = np.ones((len(ys), 1), dtype=bool)  # a column after the last point, rising
    fit = np.zeros((3, len(ys)))  # A0, B0, p of each curve once its bracket closes
    open_ = np.ones(len(ys), dtype=bool)
    centre, (spread, rungs) = lo, _FIRST
    while open_.any():
        lo, hi, width = lo[:, None], hi[:, None], (hi - lo)[:, None]
        ladder = np.minimum(np.maximum(centre[:, None] + width * rungs, lo), hi)
        ps = np.sort(np.concatenate((lo + width * spread, ladder), axis=1), axis=1)
        cand_a, cand_b, sse, slope = _profile(ps, curves, slope=True)
        k = np.argmin(sse, axis=0)  # the best candidate at each point
        # the first point whose slope rises (33: none does), and the pair
        # before it, the first two or the last two
        rises = np.argmax(np.concatenate((slope[(k, *at_point)] > 0.0, last), axis=1), axis=1)
        j = np.minimum(np.maximum(rises - 1, 0), _ROUND_SIZE - 2)
        lo, hi, k_lo, k_hi = ps[rows, j], ps[rows, j + 1], k[rows, j], k[rows, j + 1]
        g_lo, g_hi = slope[k_lo, rows, j], slope[k_hi, rows, j + 1]
        # where g_lo <= 0 < g_hi, the root's share of the way from lo to hi on
        # the line through the slopes dSSE/dp = 2 g / p (0 at lo = 0, where
        # that is unknown); else the end that the profile falls toward
        den = g_lo * hi - g_hi * lo
        turns = (g_lo <= 0.0) & (g_hi > 0.0) & (den < 0.0)
        share = np.divide(g_lo * hi, den, out=(g_hi <= 0.0) * 1.0, where=turns)
        centre = lo + (hi - lo) * share
        closed = open_ & (hi - lo < _STEP_TOL)
        if closed.any():
            # the end nearer the root; with no root between them, the end of
            # less SSE: at p = 0 every p^m with m > 0 is 0, and the profile
            # there can lie above its limit from p > 0 (a B0 that runs away)
            pick = j + np.where(turns, share > 0.5,
                                sse[k_hi, rows, j + 1] < sse[k_lo, rows, j])
            at = k[rows, pick], rows, pick
            fit[:, closed] = np.array([cand_a[at], cand_b[at], ps[rows, pick]])[:, closed]
            open_ &= ~closed
        spread, rungs = _LATER
    a0, b0, p = fit
    return a0 + curves.shift[:, 0], b0, p


def _weights(weights, size: int) -> np.ndarray:
    """One curve's ``weights`` checked, or ones for None."""
    if weights is None:
        return np.ones(size)
    w = np.asarray(weights, dtype=float)
    if w.shape != (size,):
        raise ValueError("weights must match points")
    if not (np.all(np.isfinite(w)) and np.all(w >= 0) and np.any(w > 0)):
        raise ValueError(f"weights must be finite, non-negative and not all zero, not {w}")
    return w


def _boxes(boxes, count: int) -> np.ndarray:
    """The curves' ``coefficient_bounds`` checked, as (C, 2, 2), free for None."""
    try:
        box = np.array([_FREE if b is None else b for b in boxes], dtype=float)
    except (TypeError, ValueError):
        box = None
    if box is None or box.shape != (count, 2, 2):
        raise ValueError("coefficient bounds must be ((a_lo, a_hi), (b_lo, b_hi))")
    bad = ~np.all(box[..., 0] <= box[..., 1], axis=1)  # NaN is bad too
    if bad.any():
        raise ValueError(f"coefficient bounds must have lo <= hi, not {box[bad][0].tolist()}")
    return box


def fit_decay(points, weights=None, coefficient_bounds=None) -> DecayFit | list:
    """Fit ``value = A0 + B0 * p^m`` to (m, value) points, or C such curves
    that share their lengths in one call.

    For one curve each value is a finite number, ``weights`` one per point
    (the usual 1/stderr^2 convention; None: equal), finite and not all 0, and
    ``coefficient_bounds`` ((a_lo, a_hi), (b_lo, b_hi)), each lo <= hi and
    infinite bounds allowed, box-constrains the coefficients (None: free);
    the result is a ``DecayFit``.  For C curves each value is a row of C, one
    per curve; ``weights`` and ``coefficient_bounds`` are None or one entry per
    curve, each as for one curve, and the result is a list of C fits, each the
    fit of its curve alone.  The points may come in any order; their lengths
    are non-negative integers, since every p^m is a product of p's
    (``_powers``).  An input that breaks these rules raises ``ValueError``.

    A curve whose values are constant to 1e-15 is degenerate, fitted as
    p = 1.  For the others the profile (the best A0, B0 and weighted SSE for
    a fixed p, see ``_profile``) is evaluated in one array call over 512
    points log-spaced in 1 - p, p = 0 included, for every curve; each curve's
    best point and its neighbours bracket its p.  Then each round, one array
    call, evaluates the profile and its slope in p at 33 points of every
    curve's bracket and keeps the two neighbours where the slope turns from
    falling to rising, with the next round's points gathered around the root
    of the line through their slopes, until the curve's bracket is narrower
    than 1e-12 in p (``_search``); most fits take three rounds.  A fit whose
    B0 comes out 0 has the same SSE at every p, so no p is read off it: it is
    degenerate too, reported as p = 1 with its fitted A0 and residual.
    """
    # in order of length, each value and weight with its own point, so
    # that the order the points come in changes no sum
    pts = list(points)
    ms = np.array([point[0] for point in pts], dtype=float)
    order = np.argsort(ms, kind="stable")
    ms = ms[order]
    values = np.array([point[1] for point in pts], dtype=float)[order]
    if len(set(ms.tolist())) < 3:
        raise ValueError("need at least 3 points with 3 distinct lengths")
    steps = _steps(ms)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"values must be finite, not {values.tolist()}")
    ys = np.ascontiguousarray(values.T).reshape(-1, ms.size)
    one = values.ndim == 1
    if one:
        weights, coefficient_bounds = [weights], [coefficient_bounds]
    weights = [None] * len(ys) if weights is None else list(weights)
    boxes = [None] * len(ys) if coefficient_bounds is None else list(coefficient_bounds)
    if not len(weights) == len(boxes) == len(ys):
        raise ValueError("need one weights and one bounds entry per curve")
    boxes = _boxes(boxes, len(ys))
    w = np.array([_weights(wc, ms.size)[order] for wc in weights])

    flat = np.all(np.abs(ys - ys[:, :1]) <= 1e-15, axis=1)
    fits = [DecayFit(a0=float(y[0]), b0=0.0, p=1.0, residual_rms=0.0, degenerate=True,
                     at_boundary=True) if is_flat else None for y, is_flat in zip(ys, flat)]
    live = np.flatnonzero(~flat)
    if live.size:
        a0, b0, p = _search(ms, ys[live], w[live], boxes[live])
        resid = a0[:, None] + b0[:, None] * _powers(p[:, None], steps)[..., 0] - ys[live]
        rms = np.sqrt(np.mean(resid ** 2, axis=1))
        for k, a, b, pk, r in zip(live, a0.tolist(), b0.tolist(), p.tolist(), rms.tolist()):
            no_decay = b == 0.0  # every p fits alike, so none is read off
            fits[k] = DecayFit(a, b, 1.0 if no_decay else pk, r, degenerate=no_decay,
                               at_boundary=no_decay or pk <= 0.0 or pk >= 1.0 - 1e-12)
    return fits[0] if one else fits
