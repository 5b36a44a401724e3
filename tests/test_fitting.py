import itertools
import warnings

import numpy as np
import pytest

from rbsim import fitting
from rbsim.fitting import fit_decay, r_from_p

PINNED_A0 = ((0.25, 0.25), (0.0, 1.0))
UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))

# (lengths, values, weights, coefficient bounds, p) of every decay fit that
# the three bench configs (bench/run.py) make at seed 7, with p as the
# earlier scalar implementation fitted it: one lstsq per grid point, then a
# golden-section refinement to 1e-12 in p
SEED7_FITS = [
    pytest.param(
        [5, 10, 15, 20, 25, 30, 35, 40, 45, 50],
        [0.9960000000000001, 0.993, 0.9884999999999999, 0.986, 0.9807500000000001,
         0.9772500000000001, 0.9712500000000001, 0.9717499999999999, 0.9630000000000001,
         0.9662499999999999],
        [1147058.82352941, 590909.0909090899, 331210.19108280196, 291044.77611940255,
         148890.4795991408, 152978.67124295144, 184888.88888888858, 113228.08927599346,
         121495.3271028038, 130680.6282722512],
        PINNED_A0, 0.9989818840189528, id="compare-n2/rb"),
    pytest.param(
        [5, 10, 15, 20, 25, 30, 35, 40, 45, 50],
        [0.9958170532019274, 0.9917341064038551, 0.9848820248804937, 0.9828334752024162,
         0.9731529976367689, 0.9711258234583454, 0.962213547121182, 0.9620532864457108,
         0.9462491390129534, 0.9586878516957682],
        [412847.3472695188, 250657.31798506493, 104742.60542440209, 97152.45732432987,
         41817.655548398936, 48999.58798254434, 54951.09090179678, 25396.154665937527,
         33543.570586509835, 35148.02296894543],
        PINNED_A0, 0.998592565503283, id="compare-n2/rbsv"),
    pytest.param(
        [2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
        [0.9977522492499998, 0.9962574925037492, 0.9947657237762341, 0.9932769370944052,
         0.9917911264971533, 0.9903082860352853, 0.9888284097715007, 0.9873514917803675,
         0.9858775261482984, 0.9844065069735277],
        None, PINNED_A0, 0.9990000000000256, id="irbgs-exact-n2/reference"),
    pytest.param(
        [2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
        [0.996257866006044, 0.9932776811156426, 0.9903093976099837, 0.9873529679608233,
         0.9844083448297191, 0.9814754810672769, 0.9785543297123933, 0.9756448439915045,
         0.9727469773178365, 0.9698606832906606],
        None, PINNED_A0, 0.998001249749976, id="irbgs-exact-n2/interleaved"),
    pytest.param(
        [2, 4, 6, 8, 10, 12],
        [0.9091360810538258, 0.8439860205477279, 0.7828903305195771, 0.7071091078289997,
         0.6540005796619999, 0.6122863110177564],
        [20471.504121010974, 8899.251800059003, 9239.536054531873, 3657.6363893730395,
         4472.947328820434, 5354.408297877448],
        UNIT_BOX, 0.9607152336079496, id="rbsv-gen-n6/rbsv"),
]


def curve(ms, a0, b0, p):
    return [(m, a0 + b0 * p ** m) for m in ms]


def oracle_sse(p, ms, ys, w, bounds):
    """Smallest weighted SSE over (A0, B0) at a fixed p: the box-constrained
    KKT candidates one at a time, each solved with lstsq."""
    x = p ** ms
    ones = np.ones_like(x)
    sw = np.sqrt(w)

    def lsq(columns, target):
        coef, *_ = np.linalg.lstsq(np.column_stack(columns) * sw[:, None], target * sw,
                                   rcond=None)
        return coef

    free = lsq([ones, x], ys)
    candidates = [free]
    if bounds is not None:
        (a_lo, a_hi), (b_lo, b_hi) = bounds
        if not (a_lo <= free[0] <= a_hi and b_lo <= free[1] <= b_hi):
            candidates = []
        for a in (a_lo, a_hi):
            candidates.append((a, min(max(lsq([x], ys - a)[0], b_lo), b_hi)))
        for b in (b_lo, b_hi):
            candidates.append((min(max(lsq([ones], ys - b * x)[0], a_lo), a_hi), b))
    return min(float(w @ (ys - a - b * x) ** 2) for a, b in candidates)


def scan_minimum(ms, ys, w, bounds):
    """Oracle SSE minimum over 20,000 p log-spaced in 1 - p (p = 0 included),
    refined by 2,001 points between the best one's neighbours."""
    ps = 1.0 - np.logspace(-9.0, 0.0, 20_000)
    sses = [oracle_sse(p, ms, ys, w, bounds) for p in ps]
    i = int(np.argmin(sses))
    fine = np.linspace(ps[min(i + 1, ps.size - 1)], ps[max(i - 1, 0)], 2_001)
    return min(min(sses), *(oracle_sse(p, ms, ys, w, bounds) for p in fine))


class TestFitDecay:
    def test_exact_roundtrip(self):
        ms = range(5, 51, 5)
        fit = fit_decay(curve(ms, 0.25, 0.74, 0.999))
        assert abs(fit.a0 - 0.25) < 1e-9
        assert abs(fit.b0 - 0.74) < 1e-9
        assert abs(fit.p - 0.999) < 1e-9
        assert not fit.degenerate and not fit.at_boundary

    def test_constant_data_degenerate(self):
        fit = fit_decay([(m, 1.0) for m in range(1, 10)])
        assert fit.degenerate
        assert fit.p == 1.0
        assert fit.at_boundary

    def test_no_decay_term_is_degenerate(self):
        # below a pinned A0 the best B0 is clamped to 0, and then every p has
        # the same SSE: p = 1, not the grid's first point, and not converged
        ms = range(5, 51, 5)
        ys = [0.2 - 0.001 * m for m in ms]
        fit = fit_decay(list(zip(ms, ys)), coefficient_bounds=PINNED_A0)
        assert fit.degenerate and fit.at_boundary
        assert (fit.a0, fit.b0, fit.p) == (0.25, 0.0, 1.0)
        assert fit.residual_rms == pytest.approx(np.sqrt(np.mean((0.25 - np.array(ys)) ** 2)))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_decay([(1, 0.9), (2, 0.8)])
        with pytest.raises(ValueError):
            fit_decay([(1, 0.9), (1, 0.8), (1, 0.7)])

    @pytest.mark.parametrize("bounds", [None, PINNED_A0])
    def test_bad_weights_rejected(self, bounds):
        pts = curve(range(5, 51, 5), 0.25, 0.74, 0.99)
        for weights in (np.zeros(10), -np.ones(10)):
            with pytest.raises(ValueError):
                fit_decay(pts, weights=weights, coefficient_bounds=bounds)

    def test_noisy_recovery_calibration(self):
        # planted curve recovered without bias beyond 5 sigma of the mean
        rng = np.random.default_rng(77)
        ms = np.arange(2, 42, 4)
        planted = (0.25, 0.74, 0.99)
        estimates = []
        for _ in range(100):
            ys = planted[0] + planted[1] * planted[2] ** ms + rng.normal(0, 1e-3, ms.size)
            estimates.append(fit_decay(list(zip(ms, ys))).p)
        estimates = np.array(estimates)
        stderr_of_mean = estimates.std(ddof=1) / np.sqrt(estimates.size)
        assert abs(estimates.mean() - planted[2]) < 5 * stderr_of_mean

    def test_scale_equivariance(self):
        ms = range(2, 30, 3)
        base = fit_decay(curve(ms, 0.2, 0.7, 0.97))
        for c in (0.5, 2.0, 5.0):
            scaled = fit_decay([(m, c * v) for m, v in curve(ms, 0.2, 0.7, 0.97)])
            assert abs(scaled.a0 - c * base.a0) < 1e-9
            assert abs(scaled.b0 - c * base.b0) < 1e-9
            assert abs(scaled.p - base.p) < 1e-9

    def test_shift_equivariance(self):
        ms = range(2, 30, 3)
        base = fit_decay(curve(ms, 0.2, 0.7, 0.97))
        for c in (-0.1, 0.3, 1.0):
            shifted = fit_decay([(m, v + c) for m, v in curve(ms, 0.2, 0.7, 0.97)])
            assert abs(shifted.a0 - (base.a0 + c)) < 1e-9
            assert abs(shifted.b0 - base.b0) < 1e-9
            assert abs(shifted.p - base.p) < 1e-9

    def test_weights_prefer_trusted_points(self):
        ms = list(range(1, 16))
        ys = [0.3 + 0.6 * 0.95 ** m for m in ms]
        ys[0] += 0.2  # corrupt one point, then down-weight it
        weights = np.ones(len(ms))
        weights[0] = 1e-8
        fit = fit_decay(list(zip(ms, ys)), weights=weights)
        assert abs(fit.p - 0.95) < 1e-6

    @pytest.mark.parametrize("bounds", [None, UNIT_BOX, PINNED_A0])
    def test_each_weight_stays_with_its_point_in_any_order(self, bounds):
        # least squares does not depend on the order of its (point, weight) pairs;
        # the fit sorts them by length first, so every order gives the same bits
        pairs = list(zip([(5, 0.9), (10, 0.83), (20, 0.6), (40, 0.5)], [1.0, 1.0, 1.0, 1000.0]))
        fits = []
        for order in itertools.permutations(pairs):
            points, weights = zip(*order)
            fits.append(fit_decay(points, weights=weights, coefficient_bounds=bounds))
        assert fits == [fits[0]] * len(fits)
        # the heavy point at m = 40 is fitted almost exactly
        assert abs(fits[0].a0 + fits[0].b0 * fits[0].p ** 40 - 0.5) < 1e-3

    def test_bounded_fit_respects_box(self):
        ms = np.arange(5, 51, 5)
        ys = 0.9 - 0.004 * ms  # a line: the free fit would blow up A0/B0
        fit = fit_decay(list(zip(ms, ys)), coefficient_bounds=((0.0, 1.0), (0.0, 1.0)))
        assert 0.0 <= fit.a0 <= 1.0
        assert 0.0 <= fit.b0 <= 1.0
        assert 0.0 <= fit.p <= 1.0

    def test_pinned_a0_fit(self):
        ms = range(5, 51, 5)
        pts = curve(ms, 0.25, 0.74, 0.995)
        fit = fit_decay(pts, coefficient_bounds=((0.25, 0.25), (0.0, 1.0)))
        assert fit.a0 == 0.25
        assert abs(fit.p - 0.995) < 1e-9
        assert abs(fit.b0 - 0.74) < 1e-9


def _noisy(ms, a0, b0, p, seed, sigma=1e-3):
    ms = np.asarray(ms, dtype=float)
    return a0 + b0 * p ** ms + np.random.default_rng(seed).normal(0, sigma, ms.size)


ORACLE_CASES = {
    # name: (lengths, values, weights, bounds, check of the case's premise)
    "a0-pinned": (np.arange(5, 51, 5), _noisy(np.arange(5, 51, 5), 0.25, 0.74, 0.995, 1),
                  None, PINNED_A0, lambda f: f.a0 == 0.25),
    "b0-clamped-at-1": (np.arange(2, 42, 4), _noisy(np.arange(2, 42, 4), 0.1, 1.2, 0.97, 2),
                        None, UNIT_BOX, lambda f: f.b0 == 1.0),
    "a0-clamped-at-0": (np.arange(2, 42, 4), _noisy(np.arange(2, 42, 4), -0.1, 0.9, 0.96, 3),
                        None, UNIT_BOX, lambda f: f.a0 == 0.0),
    "a0-clamped-at-1": (np.arange(2, 42, 4), _noisy(np.arange(2, 42, 4), 1.1, 0.5, 0.9, 5),
                        None, UNIT_BOX, lambda f: f.a0 == 1.0 and 0.0 < f.b0 < 1.0),
    "line": (np.arange(5, 51, 5), 0.9 - 0.004 * np.arange(5, 51, 5), None, UNIT_BOX,
             lambda f: True),
    "free-weighted": (np.arange(2, 42, 4), _noisy(np.arange(2, 42, 4), 0.25, 0.7, 0.97, 4),
                      np.linspace(4e6, 2e5, 10), None, lambda f: not f.at_boundary),
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_fit_reaches_the_scan_minimum_of_a_scalar_oracle(name):
    ms, ys, weights, bounds, premise = ORACLE_CASES[name]
    ms = np.asarray(ms, dtype=float)
    w = np.ones_like(ys) if weights is None else weights
    fit = fit_decay(list(zip(ms, ys)), weights=weights, coefficient_bounds=bounds)
    assert premise(fit)
    fit_sse = float(w @ (ys - fit.a0 - fit.b0 * fit.p ** ms) ** 2)
    assert fit_sse <= scan_minimum(ms, ys, w, bounds) * (1 + 1e-9) + 1e-30


@pytest.mark.parametrize("ms,ys,weights,bounds,p", SEED7_FITS)
def test_bench_fits_keep_their_earlier_p(ms, ys, weights, bounds, p):
    fit = fit_decay(list(zip(ms, ys)), weights=weights, coefficient_bounds=bounds)
    assert abs(fit.p - p) <= 1e-9


def _count_profile_rounds(monkeypatch):
    """Record the number of p points per curve of every ``_profile`` call."""
    sizes = []
    profile = fitting._profile

    def counting(ps, *args, **kwargs):
        sizes.append(np.shape(ps)[-1])
        return profile(ps, *args, **kwargs)

    monkeypatch.setattr(fitting, "_profile", counting)
    return sizes


FAST_DECAY = [0.25 + 0.75 * 0.5 ** m for m in range(5, 51, 5)]  # a wide grid bracket

# fits at the search's edges: (lengths, values, weights, bounds, check of the
# case's premise)
EDGE_CASES = {
    # rbsv-gen-n6 at seed 1: the best candidate turns from the free point to
    # the B0 = 1 edge between the two points where the slope turns
    "b0-kink": ([2, 4, 6, 8, 10, 12],
                [0.9145578888556928, 0.8411792664722363, 0.7559596533240762,
                 0.6856319004294434, 0.6220211733908498, 0.5593185492676145],
                [13254.454026532761, 4910.137807419285, 6634.414022949256,
                 5069.212173738068, 4028.2142767238383, 3417.563407311856],
                UNIT_BOX, lambda f: f.b0 == 1.0),
    # the grid's last bracket, [0, 0.0397], where p dSSE/dp is 0 at p = 0
    "fast-decay-to-0": (range(1, 11), _noisy(range(1, 11), 0.25, 0.75, 0.02, 4, 1e-4), None,
                        PINNED_A0, lambda f: 0.0 < f.p < 0.0397),
    "p-at-0": ([0, 1, 2, 3, 4], [1.0, 0.25, 0.25, 0.25, 0.25], None, PINNED_A0,
               lambda f: f.p == 0.0 and f.at_boundary),
    # the SSE falls toward p = 0 as B0 runs away, but at p = 0 itself, with no
    # length 0, the fit is a constant
    "b0-runaway-at-0": ([1, 2, 3], [0.5, 0.3, 0.31], None, None,
                        lambda f: 0.0 < f.p < 1e-12 and not f.degenerate),
    # the grid's first bracket, next to its top point 1 - 1e-9
    "p-near-1": (range(5, 51, 5), [0.25 + 0.74 * (1.0 - 2e-9) ** m for m in range(5, 51, 5)],
                 None, PINNED_A0, lambda f: abs(f.p - (1.0 - 2e-9)) < 1e-12),
}

SEARCH_CASES = {
    "compare-n2/rb": (range(5, 51, 5), SEED7_FITS[0].values[1], None, PINNED_A0),
    "compare-n2/rbsv": (range(5, 51, 5), SEED7_FITS[1].values[1], None, PINNED_A0),
    "fast-decay": (range(5, 51, 5), FAST_DECAY, None, PINNED_A0),
    **{name: case[:4] for name, case in EDGE_CASES.items()},
}


@pytest.mark.parametrize("name", list(SEARCH_CASES))
def test_bounded_fit_profiles_in_a_few_array_calls(monkeypatch, name):
    ms, ys, weights, bounds = SEARCH_CASES[name]
    sizes = _count_profile_rounds(monkeypatch)
    fit_decay(list(zip(ms, ys)), weights=weights, coefficient_bounds=bounds)
    assert sizes[0] == fitting._GRID_SIZE
    # then at most five slope rounds, the last of which gives (A0, B0) too
    assert sizes[1:] == [fitting._ROUND_SIZE] * (len(sizes) - 1) and len(sizes) <= 6


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_fit_at_the_search_edges_reaches_the_scan_minimum(name):
    ms, ys, weights, bounds, premise = EDGE_CASES[name]
    ms, ys = np.asarray(ms, dtype=float), np.asarray(ys, dtype=float)
    w = np.ones_like(ys) if weights is None else np.asarray(weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow or a 0/0 in the search
        fit = fit_decay(list(zip(ms, ys)), weights=weights, coefficient_bounds=bounds)
    assert premise(fit)
    fit_sse = float(w @ (ys - fit.a0 - fit.b0 * fit.p ** ms) ** 2)
    assert fit_sse <= scan_minimum(ms, ys, w, bounds) * (1 + 1e-9) + 1e-30


def _fit_counting_rounds(monkeypatch, points, weights=None, bounds=None):
    """``fit_decay``'s result and its number of ``_profile`` calls."""
    sizes = _count_profile_rounds(monkeypatch)
    fit = fit_decay(points, weights=weights, coefficient_bounds=bounds)
    monkeypatch.undo()
    return fit, len(sizes)


def test_curves_fitted_together_profile_once_per_round(monkeypatch):
    # the rounds of a call are those of its slowest curve, not their sum
    curves = [SEED7_FITS[0].values[1], FAST_DECAY]  # two and four rounds alone
    alone = [_fit_counting_rounds(monkeypatch, list(zip(range(5, 51, 5), ys)),
                                  bounds=PINNED_A0)[1] for ys in curves]
    _, together = _fit_counting_rounds(monkeypatch, list(zip(range(5, 51, 5), zip(*curves))),
                                       bounds=[PINNED_A0] * 2)
    assert alone[0] != alone[1] and together == max(alone)


def test_curves_fitted_together_each_get_their_fit_alone(monkeypatch):
    ms = [2, 4, 6, 9, 13, 18, 25]
    rng = np.random.default_rng(5)
    curves = [  # values, weights, bounds
        ([0.6] * len(ms), None, UNIT_BOX),  # constant: degenerate
        (_noisy(ms, 0.25, 0.74, 0.5, 1), None, PINNED_A0),  # fast decay, wide bracket
        (_noisy(ms, 0.25, 0.7, 0.999, 2, 1e-4), rng.uniform(1e4, 1e6, len(ms)), UNIT_BOX),
        (_noisy(ms, 0.2, 0.75, 0.97, 3), rng.uniform(1.0, 3.0, len(ms)), None),  # free
        (_noisy(ms, 1.1, 0.5, 0.9, 5), None, UNIT_BOX),  # A0 clamped at 1
        ([0.2 + 0.001 * m for m in ms], None, PINNED_A0),  # rising: B0 clamped at 0, degenerate
    ]
    alone = [_fit_counting_rounds(monkeypatch, list(zip(ms, ys)), w, b) for ys, w, b in curves]
    fits, rounds = zip(*alone)
    assert [f.degenerate for f in fits] == [True, False, False, False, False, True]
    assert fits[4].a0 == 1.0 and fits[5].b0 == 0.0 and fits[5].p == 1.0
    assert len(set(rounds[1:])) > 1  # the brackets converge in different rounds
    values, weights, bounds = zip(*curves)
    together = fit_decay(list(zip(ms, zip(*values))), weights=weights, coefficient_bounds=bounds)
    assert together == list(fits)
    # any subset, in any order, gives the same fits
    for pick in ([3, 1], [5], [2, 0, 4]):
        subset = fit_decay(list(zip(ms, zip(*(values[i] for i in pick)))),
                           weights=[weights[i] for i in pick],
                           coefficient_bounds=[bounds[i] for i in pick])
        assert subset == [fits[i] for i in pick]


def test_curve_axis_needs_one_entry_per_curve():
    points = list(zip([1, 2, 3, 4], zip([0.9, 0.8, 0.7, 0.65], [0.8, 0.7, 0.6, 0.5])))
    with pytest.raises(ValueError, match="one weights and one bounds entry per curve"):
        fit_decay(points, weights=[None])
    with pytest.raises(ValueError, match="coefficient bounds must be"):
        fit_decay(points, coefficient_bounds=UNIT_BOX)  # one box is not one per curve
    with pytest.raises(ValueError, match="weights must match points"):
        fit_decay(points, weights=[None, [1.0, 2.0]])


@pytest.mark.parametrize("seed", range(12))
def test_profile_sse_is_the_direct_sse_and_beats_a_box_scan(seed):
    rng = np.random.default_rng(seed)
    ms = np.sort(rng.choice(np.arange(1.0, 40.0), size=int(rng.integers(3, 9)), replace=False))
    ys = rng.uniform(-0.2, 1.2) + rng.uniform(-1.0, 1.0) * rng.uniform(0.5, 1.0) ** ms \
        + rng.normal(0.0, 0.05, ms.size)
    w = rng.uniform(0.1, 10.0, ms.size)
    a_lo, b_lo = rng.uniform(-0.5, 0.5, 2)
    box = ((a_lo, a_lo + rng.choice([0.0, rng.uniform(0.0, 1.0)])),
           (b_lo, b_lo + rng.uniform(0.0, 1.0)))
    ps = rng.uniform(0.0, 1.0, 5)
    curves = fitting._Curves(ms, ys[None], w[None], [box])
    # (5, C, P) candidates of the one curve, one row of five per p
    cand_a, cand_b, cand_sse = (c[:, 0].T for c in fitting._profile(ps, curves))
    grid_a = np.linspace(*box[0], 101)
    grid_b = np.linspace(*box[1], 101)
    for p, a, b, sse in zip(ps, cand_a, cand_b, cand_sse):
        k = int(np.argmin(sse))
        a0, b0 = a[k] + curves.shift[0, 0], b[k]
        assert box[0][0] <= a0 <= box[0][1] and box[1][0] <= b0 <= box[1][1]
        # every candidate's SSE is the direct SSE of its own coefficients
        for ak, bk, sk in zip(a + curves.shift[0, 0], b, sse):
            assert abs(sk - w @ (ys - ak - bk * p ** ms) ** 2) <= 1e-12 * sk
        resid = ys - grid_a[:, None, None] - grid_b[None, :, None] * p ** ms
        assert sse[k] <= np.min((resid * resid) @ w) * (1 + 1e-12)


def test_powers_are_running_products():
    # p^m from products alone, lengths repeated and unevenly spaced
    ms = np.array([0.0, 2.0, 3.0, 3.0, 7.0, 12.0])
    ps = np.array([[0.0, 0.3, 0.97, 1.0], [0.5, 0.9, 0.999, 1.0 - 1e-9]])
    x = fitting._powers(ps, fitting._steps(ms))
    assert x.shape == (2, 6, 4)
    for c, row in enumerate(ps.tolist()):
        for j, p in enumerate(row):
            for i, m in enumerate(ms.tolist()):
                assert abs(x[c, i, j] - p ** m) <= 1e-14 * p ** m
    # one row of p gives the same values as a row of rows
    assert np.array_equal(fitting._powers(ps[0], fitting._steps(ms)), x[0])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("values,weights,bounds,named", [
    ([0.9, 0.8, NAN, 0.6], None, None, "values must be finite"),
    ([0.9, 0.8, INF, 0.6], None, None, "values must be finite"),
    ([0.9, 0.8, 0.7, 0.6], None, ((0.25, 0.25), (0.0, NAN)), "coefficient bounds"),
    ([0.9, 0.8, 0.7, 0.6], None, ((1.0, 0.0), (0.0, 1.0)), "coefficient bounds"),
    ([0.9, 0.8, 0.7, 0.6], [1.0, INF, 1.0, 1.0], None, "weights must be finite"),
    ([0.9, 0.8, 0.7, 0.6], [1.0, NAN, 1.0, 1.0], PINNED_A0, "weights must be finite"),
], ids=["nan-value", "inf-value", "nan-bound", "inverted-box", "inf-weight", "nan-weight"])
def test_inputs_are_checked(values, weights, bounds, named):
    # each once came back as a fit (some not degenerate) or a bare RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            fit_decay(list(zip([1, 2, 3, 4], values)), weights=weights,
                      coefficient_bounds=bounds)


def test_infinite_bounds_are_allowed():
    pts = curve(range(5, 51, 5), 0.25, 0.74, 0.99)
    fit = fit_decay(pts, coefficient_bounds=((0.25, INF), (-INF, INF)))
    assert fit.a0 >= 0.25 and abs(fit.p - 0.99) < 1e-9 and not fit.degenerate
    assert fit_decay(pts, coefficient_bounds=((0.3, INF), (0.0, INF))).a0 == 0.3


@pytest.mark.parametrize("m", [1.5, -1.0, float("nan"), float("inf")])
def test_lengths_must_be_non_negative_integers(m):
    with pytest.raises(ValueError, match="lengths must be non-negative integers"):
        fit_decay([(1, 0.9), (2, 0.8), (3, 0.7), (m, 0.6)])


class TestRFromP:
    def test_examples(self):
        assert r_from_p(1.0, 4) == 0.0
        assert abs(r_from_p(0.99, 4) - 0.0075) < 1e-15
        assert abs(r_from_p(0.999, 2) - 0.0005) < 1e-15

    def test_strictly_decreasing_in_p(self):
        ps = np.linspace(0, 1, 50)
        rs = [r_from_p(p, 4) for p in ps]
        assert all(a > b for a, b in zip(rs, rs[1:]))

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            r_from_p(0.9, 1)
