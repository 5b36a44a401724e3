"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines even on success.
"""

import itertools
import json
import math
import os
import time

import mpmath
import numpy as np
import pytest
from conftest import choi_matrix, depolarizing_rbsv_curve, pinned_offset_infidelity

from rbsim.channels import (
    DeltaDepolarizing,
    Depolarizing,
    NoiseModel,
    PauliChannel,
    depolarizing_parameter,
)
from rbsim.cli import main as cli_main
from rbsim.cliffords import clifford_to_matrix, random_clifford
from rbsim.fitting import fit_decay, r_from_p
from rbsim.irbgs import (
    IRBGSConfig,
    SynthesisRecipe,
    builtin_recipes,
    error_bound,
    rotation_expansion_recipe,
    run_irbgs,
    verify_synthesis,
)
from rbsim.paulis import PauliString
from rbsim.rb import RBConfig, run_standard_rb
from rbsim.rbsv import RBSVConfig, run_rbsv
from rbsim.resources import (
    hoeffding_shots,
    perf_probability_lower_bound,
    sequences_needed,
    variance_bound,
)

LENGTHS = tuple(range(5, 51, 5))
# Criterion 2b's reference: the auto-model fit of the closed-form exact-mode
# curve of the documented protocol (identity stabilizer included).
REFERENCE_RBSV = {
    eps: pinned_offset_infidelity(LENGTHS, depolarizing_rbsv_curve(eps, LENGTHS)[1])
    for eps in (1e-4, 1e-3, 5e-3)
}
# Previously reported single-run values, kept for the record only: under the
# noise this suite simulates, no bound curve found between the criterion-3
# and criterion-9 limits fits to values this large (see
# test_published_rbsv_beyond_valid_bound_curves).
PUBLISHED_RBSV = {1e-4: 0.0003374, 1e-3: 0.003752, 5e-3: 0.024518}
REFERENCE_RB = {1e-4: 0.0001297, 1e-3: 0.000898, 5e-3: 0.004873}
MASTER_SEEDS = (101, 202, 303, 404, 505)


def report(number: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    return passed


def depolarizing_model(eps):
    return NoiseModel(gate=Depolarizing(eps))


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_exact_rb_recovery():
    t0 = time.perf_counter()
    cfg = RBConfig(n=2, lengths=LENGTHS, k_m=10, exact=True,
                   noise=depolarizing_model(0.001), seed=1)
    data = run_standard_rb(cfg)
    fit, r_rb = data.fit, data.r
    elapsed = time.perf_counter() - t0
    ok = (abs(fit.p - 0.999) < 1e-6 and abs(r_rb - 0.00075) < 1e-6 and elapsed < 10.0)
    assert report("1", ok,
                  f"exact RB fit p={fit.p:.9f} (target 0.999±1e-6), "
                  f"r_rb={r_rb:.9f} (target 0.00075±1e-6), runtime {elapsed:.1f}s < 10s")


# -- criterion 2 (shared ensemble) -------------------------------------------


@pytest.fixture(scope="module")
def comparison_ensemble():
    t0 = time.perf_counter()
    out = {}
    for eps in (1e-4, 1e-3, 5e-3):
        rbsv_runs, rb_runs = [], []
        for seed in MASTER_SEEDS:
            rb_cfg = RBConfig(n=2, lengths=LENGTHS, k_m=200, shots=100,
                              noise=depolarizing_model(eps), seed=seed)
            r_rb = run_standard_rb(rb_cfg).r
            sv_cfg = RBSVConfig(n=2, lengths=LENGTHS, k_m=200, n_m=100,
                                noise=depolarizing_model(eps), seed=seed)
            result = run_rbsv(sv_cfg)
            rb_runs.append(r_rb)
            rbsv_runs.append(result.bounds.r)
        out[eps] = (np.array(rbsv_runs), np.array(rb_runs))
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_2a_ordering_every_run(comparison_ensemble):
    parts = []
    ok = True
    for eps in (1e-4, 1e-3, 5e-3):
        rbsv_runs, rb_runs = comparison_ensemble[eps]
        good = bool(np.all(rbsv_runs >= rb_runs))
        ok &= good
        parts.append(f"eps={eps:g}: {'all' if good else 'NOT all'} runs ordered")
    assert report("2a", ok, "; ".join(parts))


def test_criterion_2b_rbsv_median_within_factor_3(comparison_ensemble):
    parts = []
    ok = True
    for eps in (1e-4, 1e-3, 5e-3):
        med = float(np.median(comparison_ensemble[eps][0]))
        factor = max(med / REFERENCE_RBSV[eps], REFERENCE_RBSV[eps] / med)
        ok &= factor <= 3.0
        parts.append(f"eps={eps:g}: median r_rbsv={med:.3g} vs closed form "
                     f"{REFERENCE_RBSV[eps]:.4g} (x{factor:.2f}), published "
                     f"{PUBLISHED_RBSV[eps]:g} (x{PUBLISHED_RBSV[eps] / med:.2f})")
    assert report("2b", ok, "; ".join(parts))


def test_rbsv_sampled_median_matches_closed_form(comparison_ensemble):
    # the sampled estimator against its exact-mode closed form, in a window
    # narrow enough to catch a bias in sampling, copy count or fit
    for eps in (1e-4, 1e-3, 5e-3):
        ratio = float(np.median(comparison_ensemble[eps][0])) / REFERENCE_RBSV[eps]
        assert 1 / 1.25 <= ratio <= 1.25, f"eps={eps:g}: median/closed form {ratio:.3f}"


def test_published_rbsv_beyond_valid_bound_curves():
    # Under Depolarizing(eps) the true fidelity is F = q + (1 - q)/4.  A valid
    # bound stays at or below F (criterion 3); an acceptance statistic with
    # P_acc >= F (criterion 9) bounded at the optimal copy count stays at or
    # above 1 - e ln(1/F).  Each of the 2^10 corner curves of that band, and
    # random curves inside it, fitted with the drivers' auto model, gives an
    # r_rbsv below the published value.
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=len(LENGTHS))))
    inside = np.random.default_rng(7).random((2000, len(LENGTHS)))
    parts = []
    for eps in (1e-4, 1e-3, 5e-3):
        q = (1 - eps) ** np.asarray(LENGTHS, dtype=float)
        fidelity = q + (1 - q) / 4
        floor = 1 - np.e * np.log(1 / fidelity)
        r_corners = pinned_offset_infidelity(LENGTHS, floor + corners * (fidelity - floor))
        r_inside = pinned_offset_infidelity(LENGTHS, floor + inside * (fidelity - floor))
        top = int(np.argmax(r_corners))
        curve = floor + corners[top] * (fidelity - floor)
        fit = fit_decay(list(zip(LENGTHS, curve)), coefficient_bounds=((0.25, 0.25), (0.0, 1.0)))
        assert abs(r_from_p(fit.p, 4) - r_corners[top]) < 1e-3 * r_corners[top]
        assert r_inside.max() <= r_corners[top]
        assert r_corners[top] < PUBLISHED_RBSV[eps]
        parts.append(f"eps={eps:g}: largest {r_corners[top]:.4g} "
                     f"(published x{PUBLISHED_RBSV[eps] / r_corners[top]:.2f})")
    print("[published r_rbsv] " + "; ".join(parts))


def test_criterion_2c_rb_median_within_factor_3(comparison_ensemble):
    parts = []
    ok = True
    for eps in (1e-4, 1e-3, 5e-3):
        med = float(np.median(comparison_ensemble[eps][1]))
        factor = max(med / REFERENCE_RB[eps], REFERENCE_RB[eps] / med)
        ok &= factor <= 3.0
        parts.append(f"eps={eps:g}: median r_rb={med:.3g} vs reference "
                     f"{REFERENCE_RB[eps]:g} (x{factor:.2f})")
    assert report("2c", ok, "; ".join(parts))


def test_criterion_2_runtime(comparison_ensemble):
    elapsed = comparison_ensemble["elapsed"]
    assert report("2-runtime", elapsed < 600.0,
                  f"sampled ensemble took {elapsed:.0f}s < 600s")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_bound_validity_exact_mode():
    worst = math.inf
    grid_ok = True
    r_grid = np.concatenate([np.linspace(0.05, 5, 60), np.linspace(6, 3000, 120)])
    for eps in (1e-4, 1e-3, 5e-3):
        cfg = RBSVConfig(n=2, lengths=LENGTHS, k_m=4, exact=True,
                         noise=depolarizing_model(eps), seed=31)
        result = run_rbsv(cfg)
        for m, bounds, p_accs in zip(result.bounds.lengths, result.bounds.per_sequence,
                                     result.per_sequence_p_acc):
            q = (1 - eps) ** m
            true_fid = q + (1 - q) / 4
            worst = min(worst, float(np.min(true_fid - bounds)))
            for p_acc in p_accs:
                grid_bounds = 1.0 - 1.0 / (p_acc ** r_grid * r_grid)
                if np.max(grid_bounds) > true_fid + 1e-12:
                    grid_ok = False
    ok = worst >= -1e-12 and grid_ok
    assert report("3", ok,
                  f"per-sequence optimal-R bound margin >= {worst:.2e} (need >= -1e-12); "
                  f"R-grid bounds below true fidelity: {grid_ok}")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_drift_optimum_grid():
    ok = True
    details = []
    grid = np.arange(0.01, 2000.0 + 1e-9, 0.01)
    for p_acc in (0.9, 0.99, 0.999):
        values = 1.0 - 1.0 / (p_acc ** grid * grid)
        best = grid[int(np.argmax(values))]
        theory = 1.0 / math.log(1.0 / p_acc)
        good = abs(best - theory) <= 0.01 + 1e-9
        ok &= good
        details.append(f"P={p_acc}: grid argmax {best:.2f} vs 1/ln(1/P) {theory:.2f}")
    assert report("4", ok, "; ".join(details))


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_synthesis_identities():
    deviations = []
    ok = True
    for recipe in builtin_recipes():
        rep = verify_synthesis(recipe)
        ok &= rep.passed and rep.max_deviation <= 1e-12
        deviations.append(rep.max_deviation)
    for k in range(2, 7):
        rep = verify_synthesis(rotation_expansion_recipe(k))
        ok &= rep.passed and rep.max_deviation <= 1e-12
        deviations.append(rep.max_deviation)
    base = builtin_recipes()[0]
    corrupted = verify_synthesis(SynthesisRecipe(
        name="corrupted", target=base.target, gates=base.gates[:-1]))
    ok &= (not corrupted.passed) and corrupted.max_deviation > 0.1
    assert report("5", ok,
                  f"7 rows + rotation identities k=2..6 pass at 1e-12 "
                  f"(max deviation {max(deviations):.2e}); corrupted recipe fails "
                  f"with deviation {corrupted.max_deviation:.2f}")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_irbgs_roundtrip_and_bound():
    cfg = IRBGSConfig(lengths=tuple(range(2, 21, 2)), k_m=4, seed=5,
                      noise=depolarizing_model(0.001),
                      noise_n=Depolarizing(0.0005), recipe=builtin_recipes()[0])
    est = run_irbgs(cfg)
    target = 0.75 * 0.0005
    ok = abs(est.r_n_est - target) < 1e-6

    pauli = PauliChannel({"II": 0.99, "ZZ": 0.01})
    cfg2 = IRBGSConfig(lengths=tuple(range(2, 19, 4)), k_m=6, seed=8,
                       noise=depolarizing_model(0.001),
                       noise_n=pauli, recipe=builtin_recipes()[0])
    est2 = run_irbgs(cfg2)
    r_n_true = r_from_p(depolarizing_parameter(pauli, 2), 4)
    contained = abs(r_n_true - est2.r_n_est) <= est2.bound
    ok &= contained and est2.noise_class == "pauli"
    assert report("6", ok,
                  f"planted roundtrip r_n_est={est.r_n_est:.9f} "
                  f"(target {target}±1e-6); Pauli case |r_N - est| = "
                  f"{abs(r_n_true - est2.r_n_est):.2e} <= bound {est2.bound:.3f}")


# -- criterion 7 -------------------------------------------------------------


def _twirl_check(channel, n, n_samples, seed):
    rng = np.random.default_rng(seed)
    p = depolarizing_parameter(channel, n)
    base = choi_matrix(channel, n)
    target = choi_matrix(Depolarizing(1 - p), n)
    mean = np.zeros_like(base)
    second = np.zeros(base.shape, dtype=float)
    for _ in range(n_samples):
        u = clifford_to_matrix(random_clifford(n, rng)).conj().T
        w = np.kron(u, u.conj())
        sample = w @ base @ w.conj().T
        mean += sample
        second += np.abs(sample) ** 2
    mean /= n_samples
    var = np.maximum(second / n_samples - np.abs(mean) ** 2, 0.0)
    dist_sq = float(np.sum(np.abs(mean - target) ** 2))
    budget = 9.0 * float(np.sum(var)) / n_samples
    return dist_sq, budget


def test_criterion_7_monte_carlo_twirl():
    one = DeltaDepolarizing(0.15, 0.92, PauliString.single(1, 0, "Y"), 0.4)
    two = PauliChannel({"II": 0.9, "XI": 0.04, "ZZ": 0.04, "YX": 0.02})
    d1, b1 = _twirl_check(one, 1, 10_000, seed=71)
    d2, b2 = _twirl_check(two, 2, 10_000, seed=72)
    ok = d1 <= b1 and d2 <= b2
    assert report("7", ok,
                  f"n=1 Choi dist^2 {d1:.3e} <= 3-sigma budget {b1:.3e}; "
                  f"n=2 {d2:.3e} <= {b2:.3e}")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_resource_formulas():
    mpmath.mp.dps = 50
    ok = hoeffding_shots(0.01) == 10_000
    k_m = sequences_needed(0.05, 0.02, 0.005)
    ok &= abs(k_m - 182) <= 1
    perf = perf_probability_lower_bound(0.001, 2, 10)
    ok &= abs(perf - 0.999 ** 20) < 1e-12

    def oracle(m, r, d, eta, spam):
        m, r, d, eta = map(mpmath.mpf, (m, r, d, eta))
        p = 1 - d * r / (d - 1)
        u = (p * p + 1) / 2
        if not spam:
            return float(p ** (m - 1) * (d * d - 1) * m / (4 * (d - 1) ** 2) * r * r
                         + u ** (m - 2) * d * d * m * (m - 1) / (2 * (d - 1) ** 2) * r * r)
        q = p * p / u
        return float((d * d - 2) / (4 * (d - 1) ** 2) * r * r * m * p ** (m - 1)
                     + d * d * (1 + 4 * eta) * r * r / (d - 1) ** 2
                     * ((m - 1) * q ** m - m * q ** (m - 1) + 1) / (1 - q) ** 2 * u ** (m - 2)
                     + 2 * eta * d * m * r / (d - 1) * p ** (m - 1))

    spots = [(10, 0.001, 4, 0.0, True), (2, 0.01, 2, 0.0, False), (25, 0.0005, 4, 0.1, True)]
    max_err = max(abs(variance_bound(m, r, d, eta, with_spam=s) - oracle(m, r, d, eta, s))
                  for m, r, d, eta, s in spots)
    ok &= max_err < 1e-12
    assert report("8", ok,
                  f"N_m(0.01)={hoeffding_shots(0.01)}, K_m={k_m} (182±1), "
                  f"perf bound err {abs(perf - 0.999 ** 20):.1e}, "
                  f"variance-bound max err {max_err:.1e} < 1e-12")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_acceptance_overestimates_fidelity():
    ok = True
    worst_margin = math.inf
    for eps in (1e-3, 5e-3):
        cfg = RBSVConfig(n=2, lengths=LENGTHS, k_m=5, exact=True,
                         noise=depolarizing_model(eps), seed=91)
        result = run_rbsv(cfg)
        for m, p_accs in zip(result.bounds.lengths, result.per_sequence_p_acc):
            q = (1 - eps) ** m
            true_fid = q + (1 - q) / 4
            margin = float(np.min(p_accs - true_fid))
            worst_margin = min(worst_margin, margin)
            ok &= margin >= -1e-12
            if q < 1.0:
                ok &= margin > 1e-12  # strict when p^m < 1
    assert report("9", ok,
                  f"exact P_acc - F >= {worst_margin:.3e} over every sequence "
                  f"(strictly positive where p^m < 1)")


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_determinism_bit_identical_csv(tmp_path):
    config = {
        "protocol": "rbsv",
        "n": 2,
        "lengths": list(LENGTHS),
        "K_m": 200,
        "N_m": 100,
        "shots": 100,
        "mode": "sampled",
        "noise": {"gate": {"kind": "depolarizing", "epsilon": 0.001}},
        "seed": 202,
    }
    path = tmp_path / "criterion2_eps001.json"
    path.write_text(json.dumps(config))
    blobs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        code = cli_main(["compare", "--config", str(path), "--out", str(out)])
        assert code == 0
        blobs.append((
            (out / "rb.csv").read_bytes(),
            (out / "rbsv.csv").read_bytes(),
        ))
    ok = blobs[0] == blobs[1]
    assert report("10", ok, "two compare runs with the same master seed produce "
                            "bit-identical rb.csv and rbsv.csv")
