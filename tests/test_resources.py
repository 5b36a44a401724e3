import math

import mpmath
import numpy as np
import pytest

from rbsim.channels import (
    DeltaDepolarizing,
    Depolarizing,
    NoiseModel,
    PauliChannel,
    depolarizing_parameter,
)
from rbsim.paulis import PauliString
from rbsim.rb import RBConfig, run_standard_rb
from rbsim.resources import (
    ResourcePlan,
    classical_cost,
    h_function,
    hoeffding_failure_probability,
    hoeffding_shots,
    perf_probability,
    perf_probability_lower_bound,
    regime_ok,
    sequences_needed,
    total_experiments,
    variance_bound,
)

mpmath.mp.dps = 50


def h_oracle(lam, ups):
    lam, ups = mpmath.mpf(lam), mpmath.mpf(ups)
    return (1 / (1 - lam)) ** ((1 - lam) / (ups + 1)) * (ups / (ups + lam)) ** ((ups + lam) / (ups + 1))


def variance_oracle(m, r, d, eta, with_spam):
    m, r, d, eta = mpmath.mpf(m), mpmath.mpf(r), mpmath.mpf(d), mpmath.mpf(eta)
    p = 1 - d * r / (d - 1)
    u = (p * p + 1) / 2
    if not with_spam:
        return (p ** (m - 1) * (d * d - 1) * m / (4 * (d - 1) ** 2) * r * r
                + u ** (m - 2) * d * d * m * (m - 1) / (2 * (d - 1) ** 2) * r * r)
    q = p * p / u
    term1 = (d * d - 2) / (4 * (d - 1) ** 2) * r * r * m * p ** (m - 1)
    term2 = (d * d * (1 + 4 * eta) * r * r / (d - 1) ** 2
             * ((m - 1) * q ** m - m * q ** (m - 1) + 1) / (1 - q) ** 2 * u ** (m - 2))
    term3 = 2 * eta * d * m * r / (d - 1) * p ** (m - 1)
    return term1 + term2 + term3


class TestHoeffding:
    def test_values(self):
        assert hoeffding_shots(0.01) == 10_000
        assert hoeffding_shots(1.0) == 1
        assert hoeffding_shots(0.1) == 100

    def test_failure_probability(self):
        n_m = hoeffding_shots(0.01)
        assert abs(hoeffding_failure_probability(n_m, 0.01) - math.exp(-2)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            hoeffding_shots(0.0)
        with pytest.raises(ValueError):
            hoeffding_shots(1.5)


class TestHFunction:
    def test_reference_value(self):
        got = h_function(0.02, 0.005)
        assert abs(got - 0.9799) < 1e-4
        assert abs(got - float(h_oracle(0.02, 0.005))) < 1e-12

    def test_always_below_one_on_grid(self):
        for lam in (0.001, 0.01, 0.1, 0.5, 0.9):
            for ups in (1e-4, 1e-2, 0.1, 1.0, 10.0):
                h = h_function(lam, ups)
                assert 0.0 < h < 1.0
                assert abs(h - float(h_oracle(lam, ups))) < 1e-12

    def test_small_lambda_limit(self):
        assert h_function(1e-9, 0.01) > 1 - 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            h_function(0.0, 0.1)
        with pytest.raises(ValueError):
            h_function(0.5, 0.0)


class TestSequencesNeeded:
    def test_reference_value(self):
        got = sequences_needed(0.05, 0.02, 0.005)
        assert abs(got - 182) <= 1

    def test_monotone_in_delta(self):
        high = sequences_needed(0.01, 0.02, 0.005)
        low = sequences_needed(0.5, 0.02, 0.005)
        assert high > low

    def test_monotone_in_upsilon(self):
        assert sequences_needed(0.05, 0.02, 0.01) > sequences_needed(0.05, 0.02, 0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            sequences_needed(1.5, 0.02, 0.005)


class TestVarianceBound:
    def test_zero_error_rate_gives_zero(self):
        assert variance_bound(10, 0.0, 4) == 0.0
        assert variance_bound(10, 0.0, 4, with_spam=False) == 0.0

    @pytest.mark.parametrize("m,r,d,eta,spam", [
        (10, 0.001, 4, 0.0, True),
        (2, 0.01, 2, 0.0, False),
        (25, 0.0005, 4, 0.1, True),
    ])
    def test_high_precision_oracle(self, m, r, d, eta, spam):
        got = variance_bound(m, r, d, eta, with_spam=spam)
        want = float(variance_oracle(m, r, d, eta, spam))
        assert abs(got - want) < 1e-12

    def test_spam_free_hand_expansion(self):
        # m=2, r=0.01, d=2: p = 0.98, u = (p^2+1)/2
        p = 0.98
        u = (p * p + 1) / 2
        expected = p * 3 * 2 / 4 * 1e-4 + u ** 0 * 4 * 2 * 1 / 2 * 1e-4
        assert abs(variance_bound(2, 0.01, 2, with_spam=False) - expected) < 1e-15

    def test_vanishes_as_r_to_zero_on_grid(self):
        for m in (2, 10, 40):
            for d in (2, 4):
                prev = None
                for r in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):  # V = O(r^2)
                    v = variance_bound(m, r, d, eta=0.0)
                    assert v >= 0.0
                    if prev is not None:
                        assert v < prev
                    prev = v
                assert prev < 1e-7

    @pytest.mark.parametrize("m,d,eta", [(2, 2, 0.0), (30, 4, 0.0), (12, 8, 0.1)])
    def test_with_spam_continuous_into_its_q_to_one_limit(self, m, d, eta):
        # as r -> 0, q = p^2/u -> 1 and sum_{j<m} j q^(j-1) -> m(m-1)/2, so
        # V/r^2 -> the m(m-1)/2 form (term 3 is linear in r: subtract it)
        limit = ((d * d - 2) / (4 * (d - 1) ** 2) * m
                 + d * d * (1 + 4 * eta) / (d - 1) ** 2 * m * (m - 1) / 2)
        for r in (1e-6, 1e-8):
            p = 1 - d * r / (d - 1)
            term3 = 2 * eta * d * m * r / (d - 1) * p ** (m - 1)
            got = (variance_bound(m, r, d, eta) - term3) / (r * r)
            assert abs(got - limit) < 1e-4 * limit

    @pytest.mark.parametrize("n, channel", [
        pytest.param(2, Depolarizing(0.01), id="depolarizing"),
        pytest.param(2, PauliChannel({"II": 0.99, "XI": 0.006, "ZZ": 0.003, "YX": 0.001}),
                     id="pauli"),
        pytest.param(2, DeltaDepolarizing(1.0, 1.0, PauliString.single(2, 0, "X"), 0.2),
                     id="coherent-x"),
        pytest.param(1, Depolarizing(0.01), id="n1-depolarizing"),
        pytest.param(1, PauliChannel({"I": 0.99, "X": 0.006, "Z": 0.003, "Y": 0.001}),
                     id="n1-pauli"),
        pytest.param(1, DeltaDepolarizing(1.0, 1.0, PauliString.single(1, 0, "X"), 0.2),
                     id="n1-coherent-x"),
    ])
    def test_bounds_exact_rb_survival_variance(self, n, channel):
        d = 2 ** n
        r = (d - 1) * (1 - depolarizing_parameter(channel, n)) / d
        data = run_standard_rb(RBConfig(n=n, lengths=(5, 10, 20), k_m=300, exact=True,
                                        noise=NoiseModel(gate=channel), seed=5))
        for m, survivals in zip(data.lengths, data.per_sequence):
            assert np.var(survivals, ddof=1) <= variance_bound(m, r, d)
            assert np.var(survivals, ddof=1) <= variance_bound(m, r, d, with_spam=False)

    def test_validation(self):
        with pytest.raises(ValueError):
            variance_bound(0, 0.01, 4)
        with pytest.raises(ValueError):
            variance_bound(2.5, 0.01, 4)
        with pytest.raises(ValueError):
            variance_bound(5, 0.9, 2)  # p would go non-positive


class TestTotalExperiments:
    def test_compositional_oracle(self):
        q, delta, t, lam, ups = 20, 0.05, 0.01, 0.02, 0.005
        got = total_experiments(q, delta, t, lam, ups)
        oracle = mpmath.ceil(-q * mpmath.log(2 / mpmath.mpf(delta))
                             / (mpmath.mpf(t) ** 2 * mpmath.log(h_oracle(lam, ups))))
        assert got == int(oracle)
        assert 3.6e7 < got < 3.7e7

    def test_single_length_matches_product_form(self):
        delta, t, lam, ups = 0.05, 0.01, 0.02, 0.005
        got = total_experiments(1, delta, t, lam, ups)
        product = (1 / t ** 2) * (-math.log(2 / delta) / math.log(h_function(lam, ups)))
        assert abs(got - product) <= 1.0  # ceiling effects only

    def test_monotone_in_accuracy(self):
        assert total_experiments(5, 0.05, 1.0, 0.02, 0.005) <= \
            total_experiments(5, 0.05, 0.5, 0.02, 0.005)

    def test_multiplicative_in_q(self):
        one = total_experiments(1, 0.05, 0.01, 0.02, 0.005)
        ten = total_experiments(10, 0.05, 0.01, 0.02, 0.005)
        assert abs(ten - 10 * one) <= 10


class TestPerfectMeasurement:
    def test_no_noise(self):
        assert perf_probability(0.0, [2, 1, 2]) == 1.0
        assert regime_ok(0.0, 2, 10)

    def test_reference_lower_bound(self):
        got = perf_probability_lower_bound(0.001, 2, 10)
        assert abs(got - 0.999 ** 20) < 1e-12
        # the regime test is strict: 0.001 > 0.01/20
        assert not regime_ok(0.001, 2, 10)

    def test_identity_stabilizers(self):
        assert perf_probability(0.3, [0, 0, 0]) == 1.0

    def test_product_formula(self):
        got = perf_probability(0.01, [2, 1, 2])
        assert abs(got - 0.99 ** 5) < 1e-15

    def test_monotone(self):
        assert perf_probability_lower_bound(0.002, 2, 10) < \
            perf_probability_lower_bound(0.001, 2, 10)
        assert perf_probability_lower_bound(0.001, 4, 10) < \
            perf_probability_lower_bound(0.001, 2, 10)


class TestClassicalCost:
    def test_values(self):
        assert classical_cost(1, 1, 1) == 1
        assert classical_cost(20, 200, 2) == 16_000

    def test_quadratic_in_n(self):
        assert classical_cost(3, 7, 4) == 4 * classical_cost(3, 7, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_cost(0, 1, 1)


class TestResourcePlan:
    def test_evaluate_with_explicit_upsilon(self):
        plan = ResourcePlan(t=0.01, delta=0.05, lam=0.02, upsilon=0.005,
                            q=20, n=2, r_copies=10, p_meas=0.001)
        out = plan.evaluate()
        assert out["N_m"] == 10_000
        assert out["K_m"] == 182
        assert abs(out["P_perf_lower"] - 0.999 ** 20) < 1e-12
        assert out["regime_ok"] is False
        assert out["N_class"] == 20 * 182 * 4

    def test_upsilon_defaults_to_variance_bound(self):
        plan = ResourcePlan(upsilon=None, m=10, r=0.001, n=2)
        out = plan.evaluate()
        assert abs(out["upsilon"] - variance_bound(10, 0.001, 4)) < 1e-15
