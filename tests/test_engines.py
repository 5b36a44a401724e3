import numpy as np
import pytest

from rbsim.channels import (
    Depolarizing,
    Ideal,
    PauliChannel,
    SpamModel,
    check_density_matrix,
    maximally_mixed_state,
    measurement_success_probability,
    zero_state,
)
from rbsim.cliffords import (
    CliffordElement,
    compose,
    inverse,
    parse_circuit,
    random_clifford,
    stabilizer_group,
)
from rbsim.engines import (
    CompiledSequence,
    SequenceSpec,
    run_sequence_exact,
    survival_probability,
)

from conftest import circuit_unitary


def random_elements(n, m, rng):
    return [random_clifford(n, rng) for _ in range(m)]


def product_of(elements):
    out = elements[0]
    for e in elements[1:]:
        out = compose(out, e)
    return out


class TestExactEngine:
    def test_noiseless_matches_dense_state(self, rng):
        gates = parse_circuit("H 0\nCNOT 0 1\nP 1\nH 1")
        spec = SequenceSpec(n=2, elements=[[g] for g in gates])
        rho = run_sequence_exact(spec)
        psi = circuit_unitary(gates, 2)[:, 0]
        fidelity = float(np.real(psi.conj() @ rho @ psi))
        assert abs(fidelity - 1.0) < 1e-12

    def test_empty_sequence_returns_prepared_state(self):
        spec = SequenceSpec(n=2, elements=[], spam=SpamModel(prep=Depolarizing(0.4)))
        rho = run_sequence_exact(spec)
        expected = 0.6 * zero_state(2) + 0.4 * maximally_mixed_state(2)
        assert np.allclose(rho, expected, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_depolarizing_closed_form(self, m, rng):
        eps = 0.03
        elements = random_elements(2, m, rng)
        spec = SequenceSpec(n=2, elements=elements, noise=Depolarizing(eps))
        rho = run_sequence_exact(spec)
        # global depolarizing commutes with the unitaries
        from rbsim.cliffords import clifford_to_matrix

        psi = zero_state(2)
        for e in elements:
            u = clifford_to_matrix(e)
            psi = u @ psi @ u.conj().T
        expected = (1 - eps) ** m * psi + (1 - (1 - eps) ** m) * maximally_mixed_state(2)
        assert np.allclose(rho, expected, atol=1e-12)

    def test_trace_and_positivity_preserved_each_step(self, rng):
        elements = random_elements(2, 6, rng)
        rho = zero_state(2)
        from rbsim.cliffords import clifford_to_matrix

        for e in elements:
            u = clifford_to_matrix(e)
            rho = Depolarizing(0.05).apply(u @ rho @ u.conj().T)
            check_density_matrix(rho)

    def test_large_register_rejected(self):
        with pytest.raises(ValueError):
            run_sequence_exact(SequenceSpec(n=7, elements=[]))


class TestSurvivalProbability:
    def test_zero_state_survives(self):
        assert abs(survival_probability(zero_state(3)) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(survival_probability(maximally_mixed_state(2)) - 0.25) < 1e-12

    def test_mixture_oracle(self):
        p = 0.7
        rho = p * zero_state(2) + (1 - p) * maximally_mixed_state(2)
        assert abs(survival_probability(rho) - (p + (1 - p) / 4)) < 1e-12


class TestTrajectoryEngine:
    def test_noiseless_stabilizer_always_accepts(self, rng):
        elements = random_elements(2, 5, rng)
        compiled = CompiledSequence(SequenceSpec(n=2, elements=elements))
        assert np.all(compiled.acceptance_samples(200, rng))
        assert np.all(compiled.acceptance_samples(200, rng, include_identity=False))

    def test_batch_acceptance_matches_exact_group_average(self, rng):
        elements = random_elements(2, 10, rng)
        ch = PauliChannel({"II": 0.97, "XI": 0.02, "ZZ": 0.01})
        spec = SequenceSpec(n=2, elements=elements, noise=ch)
        rho = run_sequence_exact(spec)
        group = stabilizer_group(product_of(elements))
        p_exact = float(np.mean([measurement_success_probability(rho, s) for s in group]))
        compiled = CompiledSequence(spec)
        n_draw = 100_000
        accepts = compiled.acceptance_samples(n_draw, rng)
        sigma = np.sqrt(p_exact * (1 - p_exact) / n_draw)
        assert abs(float(np.mean(accepts)) - p_exact) < 3 * sigma

    def test_batch_acceptance_with_measurement_flips(self, rng):
        elements = random_elements(2, 5, rng)
        spam = SpamModel(meas_flip=0.08)
        spec = SequenceSpec(n=2, elements=elements, noise=Depolarizing(0.02), spam=spam)
        rho = run_sequence_exact(spec)
        group = stabilizer_group(product_of(elements))
        p_exact = float(np.mean(
            [measurement_success_probability(rho, s, spam) for s in group]))
        compiled = CompiledSequence(spec)
        n_draw = 100_000
        accepts = compiled.acceptance_samples(n_draw, rng)
        sigma = np.sqrt(max(p_exact * (1 - p_exact), 1e-4) / n_draw)
        assert abs(float(np.mean(accepts)) - p_exact) < 4 * sigma

    def test_batch_survival_matches_depolarizing_formula(self, rng):
        eps = 0.04
        elements = random_elements(2, 7, rng)
        spec = SequenceSpec(n=2, elements=elements, noise=Depolarizing(eps))
        compiled = CompiledSequence(spec)
        compiled.append_inverse(Depolarizing(eps))
        n_draw = 200_000
        survive = compiled.survival_samples(n_draw, rng)
        p_theory = 0.25 + 0.75 * (1 - eps) ** 8
        sigma = np.sqrt(p_theory * (1 - p_theory) / n_draw)
        assert abs(float(np.mean(survive)) - p_theory) < 3 * sigma

    def test_prep_and_meas_channels_count_in_batch(self, rng):
        spam = SpamModel(prep=Depolarizing(0.1), meas=Depolarizing(0.05))
        elements = random_elements(2, 3, rng)
        spec = SequenceSpec(n=2, elements=elements, noise=Ideal(), spam=spam)
        rho = run_sequence_exact(spec)
        group = stabilizer_group(product_of(elements))
        p_exact = float(np.mean(
            [measurement_success_probability(rho, s, spam) for s in group]))
        compiled = CompiledSequence(spec)
        accepts = compiled.acceptance_samples(100_000, rng)
        assert abs(float(np.mean(accepts)) - p_exact) < 4 * np.sqrt(0.25 / 100_000) + 0.003

    def test_non_pauli_noise_rejected(self, rng):
        from rbsim.channels import DeltaDepolarizing, UnsupportedChannelError, rotation_unitary

        ch = DeltaDepolarizing(0.1, 0.95, rotation_unitary(2, 0, "X", 0.2))
        spec = SequenceSpec(n=2, elements=random_elements(2, 2, rng), noise=ch)
        with pytest.raises(UnsupportedChannelError):
            CompiledSequence(spec)
        spam = SpamModel(prep=ch)
        with pytest.raises(UnsupportedChannelError):
            CompiledSequence(SequenceSpec(n=2, elements=spec.elements, spam=spam))


class TestSequenceSpec:
    def test_per_element_noise_list(self, rng):
        elements = random_elements(2, 3, rng)
        channels = [Depolarizing(0.1), Ideal(), Depolarizing(0.2)]
        spec = SequenceSpec(n=2, elements=elements, noise=channels)
        rho = run_sequence_exact(spec)
        expected_retention = 0.9 * 0.8
        from rbsim.cliffords import clifford_to_matrix

        psi = zero_state(2)
        for e in elements:
            u = clifford_to_matrix(e)
            psi = u @ psi @ u.conj().T
        expected = expected_retention * psi + (1 - expected_retention) * maximally_mixed_state(2)
        assert np.allclose(rho, expected, atol=1e-12)

    def test_per_element_noise_list_in_trajectories(self, rng):
        # three different channels: a fault CDF reused for the wrong element shows
        elements = random_elements(2, 3, rng)
        channels = [Depolarizing(0.1), Ideal(), PauliChannel({"II": 0.7, "XI": 0.3})]
        spec = SequenceSpec(n=2, elements=elements, noise=channels)
        rho = run_sequence_exact(spec)
        group = stabilizer_group(product_of(elements))
        p_acc = float(np.mean([measurement_success_probability(rho, s) for s in group]))
        compiled = CompiledSequence(spec)
        n_draw = 100_000
        accepts = compiled.acceptance_samples(n_draw, rng)
        assert abs(float(np.mean(accepts)) - p_acc) < 4 * np.sqrt(p_acc * (1 - p_acc) / n_draw)

        closing = Depolarizing(0.05)
        closed = SequenceSpec(n=2, elements=elements + [inverse(product_of(elements))],
                              noise=channels + [closing])
        p_surv = survival_probability(run_sequence_exact(closed))
        compiled.append_inverse(closing)
        survive = compiled.survival_samples(n_draw, rng)
        assert abs(float(np.mean(survive)) - p_surv) < 4 * np.sqrt(p_surv * (1 - p_surv) / n_draw)

    def test_noise_list_length_must_match(self, rng):
        with pytest.raises(ValueError):
            SequenceSpec(n=2, elements=random_elements(2, 3, rng),
                         noise=[Ideal(), Ideal()])

    def test_gate_list_elements_are_normalized(self):
        spec = SequenceSpec(n=2, elements=[parse_circuit("H 0"), parse_circuit("CNOT 0 1")])
        assert all(isinstance(e, CliffordElement) for e in spec.elements)
        assert spec.m == 2

