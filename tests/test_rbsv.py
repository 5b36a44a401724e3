import math

import numpy as np
import pytest
from conftest import (
    batch_of_one,
    depolarizing_rbsv_curve,
    maximally_mixed_state,
    pinned_offset_infidelity,
    stream_seeds,
)

from rbsim.channels import Depolarizing, NoiseModel, measurement_success_probability
from rbsim.cliffords import compose, random_clifford, stabilizer_group
from rbsim.engines import CompiledSequence, run_sequence_exact
from rbsim.rbsv import (
    DEFAULT_COPY_CAP,
    FailureSignatureError,
    RBSVConfig,
    RPolicy,
    fidelity_lower_bound,
    optimal_copies,
    run_rbsv,
)


LENGTHS = tuple(range(5, 51, 5))
EPSILONS = (1e-4, 1e-3, 5e-3)


def depolarizing_model(eps):
    return NoiseModel(gate=Depolarizing(eps))


class TestFidelityLowerBound:
    def test_direct_substitution(self):
        assert abs(fidelity_lower_bound(1.0, 10.0) - 0.9) < 1e-15

    def test_vacuous_bound_still_returned(self):
        got = fidelity_lower_bound(1.0 / math.e, 1.0)
        assert abs(got - (1.0 - math.e)) < 1e-12

    def test_bound_at_optimal_copies(self):
        p_acc = 0.99
        r, saturated = optimal_copies(p_acc)
        assert not saturated
        got = fidelity_lower_bound(p_acc, r)
        expected = 1.0 - math.e * math.log(1.0 / p_acc)
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.972680) < 5e-7
        # grid maximization oracle
        grid = np.linspace(0.5, 500.0, 20_000)
        vals = 1.0 - 1.0 / (p_acc ** grid * grid)
        assert got >= float(np.max(vals)) - 1e-9

    def test_zero_acceptance_is_failure_signature(self):
        with pytest.raises(FailureSignatureError):
            fidelity_lower_bound(0.0, 10.0)

    def test_invalid_copies_rejected(self):
        with pytest.raises(ValueError):
            fidelity_lower_bound(0.9, 0.0)

    def test_underflowing_acceptance_power_is_failure_signature(self):
        # 0.9^10000 is below the smallest float, so the bound would be -inf
        assert fidelity_lower_bound(0.9, 6000.0) < -1e270
        with pytest.raises(FailureSignatureError, match="R = 10000"):
            fidelity_lower_bound(0.9, 10_000.0)


class TestOptimalCopies:
    def test_exp_point(self):
        r, saturated = optimal_copies(1.0 / math.e)
        assert abs(r - 1.0) < 1e-12 and not saturated

    @pytest.mark.parametrize("p_acc,expected", [(0.99, 99.4992), (0.9, 9.4912)])
    def test_closed_form_values(self, p_acc, expected):
        r, _ = optimal_copies(p_acc)
        assert abs(r - expected) < 5e-5
        # grid-search oracle over the bound
        grid = np.arange(0.01, 500.0, 0.01)
        vals = 1.0 - 1.0 / (p_acc ** grid * grid)
        assert abs(grid[int(np.argmax(vals))] - r) <= 0.01 + 1e-9

    def test_perfect_acceptance_saturates(self):
        r, saturated = optimal_copies(1.0)
        assert saturated and r == DEFAULT_COPY_CAP

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            optimal_copies(0.0)

    def test_maximizes_bound_on_grid(self):
        for p_acc in (0.9, 0.99, 0.999):
            r, _ = optimal_copies(p_acc)
            best = fidelity_lower_bound(p_acc, r)
            for g in np.linspace(0.05, 2000.0, 4001):
                assert best >= fidelity_lower_bound(p_acc, g) - 1e-12


class TestRunRBSVSequence:
    """One sequence's acceptance through ``CompiledSequence``, as the driver
    computes a length's batch."""

    def test_noiseless_always_accepts(self, rng):
        elements = [random_clifford(2, rng) for _ in range(6)]
        compiled = CompiledSequence(batch_of_one(2, elements))
        assert compiled.acceptance_samples(64, stream_seeds(rng))[0] == 64
        assert compiled.acceptance_probability()[0] == 1.0

    def test_exact_acceptance_matches_depolarizing_formula(self, rng):
        eps = 0.01
        for m in (1, 5, 12):
            elements = [random_clifford(2, rng) for _ in range(m)]
            seq = batch_of_one(2, elements, noise=Depolarizing(eps))
            p_acc = CompiledSequence(seq).acceptance_probability()[0]
            q = (1 - eps) ** m
            assert abs(p_acc - (1.0 - (3.0 / 8.0) * (1.0 - q))) < 1e-12

    def test_exact_acceptance_via_projector_oracle(self, rng):
        # independent oracle: average Tr((I+s)/2 rho) over the full group
        elements = [random_clifford(2, rng) for _ in range(4)]
        seq = batch_of_one(2, elements, noise=Depolarizing(0.05))
        rho = run_sequence_exact(seq)
        product = elements[0]
        for e in elements[1:]:
            product = compose(product, e)
        oracle = np.mean([
            float(np.real(np.trace((np.eye(4) + s.to_matrix()) / 2 @ rho)))
            for s in stabilizer_group(product)
        ])
        assert abs(CompiledSequence(seq).acceptance_probability()[0] - oracle) < 1e-12

    def test_maximally_mixed_acceptance(self):
        # I/4 has acceptance 1*(1/4) + 0.5*(3/4) = 0.625 over the group
        rho = maximally_mixed_state(2)
        rng = np.random.default_rng(0)
        c = random_clifford(2, rng)
        group = stabilizer_group(c)
        acc = np.mean([measurement_success_probability(rho, s) for s in group])
        assert abs(acc - 0.625) < 1e-12

    def test_sampled_estimator_matches_exact(self, rng):
        elements = [random_clifford(2, rng) for _ in range(8)]
        compiled = CompiledSequence(batch_of_one(2, elements, noise=Depolarizing(0.02)))
        exact = compiled.acceptance_probability()[0]
        p_acc = compiled.acceptance_samples(50_000, stream_seeds(rng))[0] / 50_000
        sigma = math.sqrt(exact * (1 - exact) / 50_000)
        assert abs(p_acc - exact) < 4 * sigma


class TestRunRBSV:
    def test_exact_bound_below_true_fidelity(self):
        eps = 0.002
        cfg = RBSVConfig(n=2, lengths=(5, 15, 25, 35), k_m=3, exact=True,
                         noise=depolarizing_model(eps), seed=12)
        result = run_rbsv(cfg)
        for m, bounds in zip(result.bounds.lengths, result.bounds.per_sequence):
            q = (1 - eps) ** m
            true_fidelity = q + (1 - q) / 4
            assert np.all(bounds <= true_fidelity + 1e-12)

    def test_acceptance_overestimates_fidelity(self):
        eps = 0.004
        cfg = RBSVConfig(n=2, lengths=(4, 10, 20), k_m=4, exact=True,
                         noise=depolarizing_model(eps), seed=3)
        result = run_rbsv(cfg)
        for m, mean_p in zip(result.bounds.lengths, result.mean_p_acc):
            q = (1 - eps) ** m
            true_fidelity = q + (1 - q) / 4
            assert mean_p >= true_fidelity + 1e-12  # strict when q < 1

    def test_noiseless_run_is_degenerate_with_saturation(self):
        cfg = RBSVConfig(n=2, lengths=(2, 6, 10), k_m=2, exact=True, seed=1)
        result = run_rbsv(cfg)
        assert np.all(result.n_saturated == cfg.k_m)
        assert result.bounds.fit.degenerate
        assert result.bounds.r == 0.0

    def test_ordering_against_rb_exact_mode(self):
        from rbsim.rb import RBConfig, fit_rb_data, run_standard_rb

        for eps in (1e-4, 1e-3, 5e-3):
            lengths = tuple(range(5, 51, 5))
            rb_cfg = RBConfig(n=2, lengths=lengths, k_m=3, exact=True,
                              noise=depolarizing_model(eps), seed=7)
            fit, r_rb = fit_rb_data(run_standard_rb(rb_cfg), 4,
                                    coefficient_bounds=rb_cfg.fit_bounds)
            sv_cfg = RBSVConfig(n=2, lengths=lengths, k_m=3, exact=True,
                                noise=depolarizing_model(eps), seed=7)
            result = run_rbsv(sv_cfg)
            assert result.bounds.r >= r_rb

    def test_fixed_r_policy(self):
        cfg = RBSVConfig(n=2, lengths=(3, 6, 9), k_m=2, exact=True,
                         noise=depolarizing_model(0.01), seed=2,
                         r_policy=RPolicy(kind="fixed", fixed=50.0))
        result = run_rbsv(cfg)
        assert np.allclose(result.mean_copies, 50.0)

    def test_identity_exclusion_switch(self):
        eps = 0.01
        cfg = RBSVConfig(n=2, lengths=(4, 8, 12), k_m=2, exact=True,
                         noise=depolarizing_model(eps), seed=5,
                         include_identity_stabilizer=False)
        result = run_rbsv(cfg)
        for m, mean_p in zip(result.bounds.lengths, result.mean_p_acc):
            q = (1 - eps) ** m
            assert abs(mean_p - (1.0 - 0.5 * (1.0 - q))) < 1e-12

    def test_small_n_m_warns(self):
        with pytest.warns(UserWarning):
            RBSVConfig(n=2, lengths=(2, 4, 6), k_m=1, n_m=3,
                       noise=depolarizing_model(0.01))


def test_rbsv_supports_generator_mode_exact():
    # per-generator depolarizing: acceptance follows 1 - (3/8)(1 - p^(m*b))
    eps, b = 0.003, 5
    cfg = RBSVConfig(n=2, lengths=(2, 4, 6), k_m=2, exact=True,
                     noise=depolarizing_model(eps), seed=23,
                     mode="generator", generator_block=b)
    result = run_rbsv(cfg)
    for m, mean_p in zip(result.bounds.lengths, result.mean_p_acc):
        q = (1 - eps) ** (m * b)
        assert abs(mean_p - (1.0 - 0.375 * (1.0 - q))) < 1e-12


def test_bound_validity_for_arbitrary_channels(rng):
    # the verification inequality holds per sequence for any channel the
    # exact engine supports, not just depolarizing noise
    from rbsim.channels import DeltaDepolarizing, PauliChannel, rotation_unitary
    from rbsim.cliffords import clifford_to_matrix, random_clifford

    channels = [
        PauliChannel({"II": 0.93, "XI": 0.03, "ZZ": 0.03, "YX": 0.01}),
        DeltaDepolarizing(0.02, 0.97, rotation_unitary(2, 1, "Y", 0.15)),
    ]
    r_grid = np.concatenate([np.linspace(0.1, 5, 25), np.linspace(10, 2000, 40)])
    for ch in channels:
        for m in (2, 6, 12):
            elements = [random_clifford(2, rng) for _ in range(m)]
            seq = batch_of_one(2, elements, noise=ch)
            p_acc = CompiledSequence(seq).acceptance_probability()[0]
            rho = run_sequence_exact(seq)
            product = elements[0]
            for e in elements[1:]:
                product = compose(product, e)
            psi = clifford_to_matrix(product)[:, 0]
            fidelity = float(np.real(psi.conj() @ rho @ psi))
            r_opt, _ = optimal_copies(p_acc)
            assert fidelity_lower_bound(p_acc, r_opt) <= fidelity + 1e-12
            bounds = 1.0 - 1.0 / (p_acc ** r_grid * r_grid)
            assert np.all(bounds <= fidelity + 1e-12)


def test_zero_acceptance_raises_failure_signature():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = RBSVConfig(n=2, lengths=(8, 16, 24), k_m=4, n_m=1,
                         noise=depolarizing_model(1.0), seed=0,
                         include_identity_stabilizer=False)
    with pytest.raises(FailureSignatureError):
        run_rbsv(cfg)


@pytest.mark.parametrize("include_identity", [True, False])
@pytest.mark.parametrize("eps", EPSILONS)
def test_exact_run_matches_closed_form_curve(eps, include_identity):
    # depolarizing noise gives every sequence the same acceptance, so two
    # sequences per length pin the whole curve
    cfg = RBSVConfig(n=2, lengths=LENGTHS, k_m=2, exact=True,
                     noise=depolarizing_model(eps), seed=41,
                     include_identity_stabilizer=include_identity)
    result = run_rbsv(cfg)
    p_acc, f_bar = depolarizing_rbsv_curve(eps, LENGTHS, include_identity)
    assert np.all(np.abs(result.mean_p_acc - p_acc) < 1e-12)
    assert np.all(np.abs(result.bounds.mean - f_bar) < 1e-12)
    oracle = pinned_offset_infidelity(LENGTHS, f_bar)
    assert abs(result.bounds.r - oracle) < 1e-6 * oracle

