import numpy as np
import pytest

from rbsim.channels import (
    ComposedChannel,
    DeltaDepolarizing,
    Depolarizing,
    Ideal,
    NoiseModel,
    PauliChannel,
    SpamModel,
    UnsupportedChannelError,
    apply_channel,
    channel_from_spec,
    depolarizing_parameter,
    fault_distribution,
    measurement_success_probability,
    pauli_eigenvalues,
    rotation_unitary,
    zero_state,
)
from rbsim.cliffords import clifford_to_matrix, random_clifford, stabilizer_group
from rbsim.paulis import PauliString

from conftest import (
    channel_superoperator,
    check_cptp,
    check_density_matrix,
    choi_matrix,
    dense_depolarizing_parameter,
    maximally_mixed_state,
    pauli_matrix,
)


def random_state(n, rng):
    d = 2 ** n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestApplyChannel:
    def test_zero_strength_is_identity(self, rng):
        rho = random_state(2, rng)
        assert np.allclose(apply_channel(Depolarizing(0.0), rho), rho)

    def test_full_strength_gives_maximally_mixed(self, rng):
        rho = random_state(2, rng)
        assert np.allclose(apply_channel(Depolarizing(1.0), rho),
                           maximally_mixed_state(2), atol=1e-12)

    def test_pauli_channel_hand_oracle(self):
        # {I: 0.9, X: 0.1} on |0><0| -> 0.9|0><0| + 0.1|1><1|
        ch = PauliChannel({"I": 0.9, "X": 0.1})
        out = apply_channel(ch, zero_state(1))
        assert np.allclose(out, np.diag([0.9, 0.1]), atol=1e-12)

    def test_output_is_valid_density_matrix(self, rng):
        for ch in (Depolarizing(0.2), PauliChannel({"XI": 0.25, "II": 0.75}),
                   DeltaDepolarizing(0.1, 0.95, PauliString.single(2, 0, "Y"), 0.3)):
            out = apply_channel(ch, random_state(2, rng))
            check_density_matrix(out)

    def test_invalid_parameters_raise(self):
        # channels check their parameters once, when built
        with pytest.raises(ValueError):
            Depolarizing(1.5)
        with pytest.raises(ValueError):
            PauliChannel({"I": 0.5, "X": 0.4})
        # NaN fails every range check rather than passing them all
        with pytest.raises(ValueError, match="outside"):
            PauliChannel({"I": float("nan"), "X": 0.1})
        with pytest.raises(ValueError, match="outside"):
            Depolarizing(float("nan"))
        for angle in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not finite"):
                DeltaDepolarizing(0.1, 0.9, PauliString.single(1, 0, "X"), angle)
        with pytest.raises(ValueError, match="phase"):
            DeltaDepolarizing(0.1, 0.9, PauliString.from_label("-X"), 0.2)


class TestCPTP:
    @pytest.mark.parametrize("n,ch", [
        (1, Ideal()),
        (1, Depolarizing(0.3)),
        (2, Depolarizing(0.01)),
        (2, PauliChannel({"II": 0.9, "ZZ": 0.06, "XI": 0.04})),
        (1, DeltaDepolarizing(0.2, 0.9, PauliString.single(1, 0, "X"), 0.4)),
        (3, Depolarizing(0.05)),
    ])
    def test_every_variant_is_cptp(self, n, ch):
        check_cptp(ch, n)


# every channel class, two rotations composed, and a mixed composition
ANALYSIS_CHANNELS = {
    "ideal": lambda n: Ideal(),
    "depolarizing": lambda n: Depolarizing(0.07),
    "pauli": lambda n: PauliChannel({"I" * n: 0.9, "X" + "I" * (n - 1): 0.06,
                                     "Z" * n: 0.03, "Y" * n: 0.01}),
    **{f"rotation-{axis}": lambda n, axis=axis: DeltaDepolarizing(
        0.3, 0.95, PauliString.single(n, n - 1, axis), 0.4) for axis in "XYZ"},
    "two-rotations": lambda n: ComposedChannel([
        DeltaDepolarizing(1.0, 1.0, PauliString.single(n, 0, "X"), 0.3),
        DeltaDepolarizing(0.5, 0.9, PauliString.single(n, n - 1, "Y"), 0.7)]),
    "mixed": lambda n: ComposedChannel([
        Depolarizing(0.02),
        DeltaDepolarizing(0.2, 0.97, PauliString.single(n, 0, "Z"), 1.1),
        PauliChannel({"I" * n: 0.95, "Y" + "I" * (n - 1): 0.05}),
        DeltaDepolarizing(0.4, 0.99, PauliString.single(n, n - 1, "X"), 0.5)]),
}


class TestDepolarizingParameter:
    @pytest.mark.parametrize("name", sorted(ANALYSIS_CHANNELS))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_dense_choi_oracle(self, n, name):
        ch = ANALYSIS_CHANNELS[name](n)
        assert abs(depolarizing_parameter(ch, n) - dense_depolarizing_parameter(ch, n)) < 1e-14

    @pytest.mark.parametrize("name", sorted(ANALYSIS_CHANNELS))
    def test_returns_at_eight_qubits(self, name):
        # the dense oracle's d^2 applies of 256 x 256 matrices are out of reach
        # here; the transfer form carries 4^8 coefficients per offset
        p = depolarizing_parameter(ANALYSIS_CHANNELS[name](8), 8)
        assert 0.0 < p <= 1.0 + 1e-12

    def test_depolarizing_gives_one_minus_eps(self):
        for n in (1, 2):
            for eps in (0.0, 0.01, 0.5):
                assert abs(depolarizing_parameter(Depolarizing(eps), n) - (1 - eps)) < 1e-12

    def test_ideal_gives_one(self):
        assert abs(depolarizing_parameter(Ideal(), 2) - 1.0) < 1e-12

    def test_pauli_channel_value_and_monte_carlo_twirl(self):
        ch = PauliChannel({"II": 0.95, "ZZ": 0.05})
        p = depolarizing_parameter(ch, 2)
        # identity weight 0.95: F_e = 0.95, F_avg = (4*.95+1)/5, p = (4F-1)/3
        assert abs(p - (4 * 0.96 - 1) / 3) < 1e-12
        # Monte Carlo Clifford twirl of the channel agrees within 3 sigma
        rng = np.random.default_rng(5150)
        n_samples = 4000
        d = 4
        base = choi_matrix(ch, 2)
        target = choi_matrix(Depolarizing(1 - p), 2)
        mean = np.zeros_like(base)
        sq = np.zeros(base.shape, dtype=float)
        for _ in range(n_samples):
            u = clifford_to_matrix(random_clifford(2, rng)).conj().T
            w = np.kron(u, u.conj())
            sample = w @ base @ w.conj().T
            mean += sample
            sq += np.abs(sample) ** 2
        mean /= n_samples
        var = np.maximum(sq / n_samples - np.abs(mean) ** 2, 0.0)
        dist_sq = float(np.sum(np.abs(mean - target) ** 2))
        assert dist_sq <= 9.0 * float(np.sum(var)) / n_samples

    def test_composition_multiplies_parameters(self):
        p = depolarizing_parameter(ComposedChannel([Depolarizing(0.03), Depolarizing(0.07)]), 2)
        assert abs(p - 0.97 * 0.93) < 1e-12


def _packed_label(idx: int, n: int) -> str:
    """Label of packed fault index ``idx``: bit q = x_q, bit n+q = z_q."""
    return "".join("IXZY"[((idx >> q) & 1) | (((idx >> (n + q)) & 1) << 1)]
                   for q in range(n))


class TestFaultSampling:
    """``fault_distribution`` is the Pauli fault law of a diagonal channel, and
    ``pauli_eigenvalues`` its transform, the form the Pauli engine reads."""

    def test_zero_strength_always_identity(self):
        dist = fault_distribution(Depolarizing(0.0), 2)
        assert dist[0] == 1.0
        assert np.all(dist[1:] == 0.0)

    def test_depolarizing_single_qubit_rates(self):
        eps = 0.2
        dist = fault_distribution(Depolarizing(eps), 1)
        assert [_packed_label(i, 1) for i in range(4)] == ["I", "X", "Z", "Y"]
        assert np.allclose(dist, [1 - eps * 3 / 4, eps / 4, eps / 4, eps / 4], atol=1e-15)

    def test_fifty_fifty_channel(self):
        dist = fault_distribution(PauliChannel({"I": 0.5, "X": 0.5}), 1)
        assert np.array_equal(dist, [0.5, 0.5, 0.0, 0.0])

    def test_trajectory_matches_channel_in_expectation(self, rng):
        # averaging P rho P over the fault law reproduces apply_channel
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        pauli = PauliChannel({"II": 0.8, "XZ": 0.15, "YY": 0.05})
        for ch in (pauli, Depolarizing(0.3),
                   ComposedChannel([pauli, Depolarizing(0.1), Ideal()])):
            dist = fault_distribution(ch, 2)
            assert abs(float(np.sum(dist)) - 1.0) < 1e-12
            avg = np.zeros((4, 4), dtype=complex)
            for idx, prob in enumerate(dist):
                f = pauli_matrix(_packed_label(idx, 2))
                avg += prob * (f @ rho @ f.conj().T)
            assert np.max(np.abs(avg - apply_channel(ch, rho))) < 1e-12

    def test_pauli_eigenvalues_are_the_adjoint_action(self):
        # a Pauli-diagonal channel maps every Pauli P to lambda(P) P
        pauli = PauliChannel({"II": 0.8, "XZ": 0.15, "YY": 0.05})
        for ch in (pauli, Depolarizing(0.3), ComposedChannel([pauli, Depolarizing(0.1)])):
            lam = pauli_eigenvalues(ch, 2)
            for idx in range(16):
                p = pauli_matrix(_packed_label(idx, 2))
                assert np.max(np.abs(apply_channel(ch, p) - lam[idx] * p)) < 1e-12

    def test_non_pauli_channel_rejected(self):
        ch = DeltaDepolarizing(0.1, 0.9, PauliString.single(1, 0, "X"), 0.5)
        with pytest.raises(UnsupportedChannelError):
            fault_distribution(ch, 1)


class TestMeasurementSuccess:
    def test_stabilizer_of_state_always_succeeds(self, rng):
        c = random_clifford(2, rng)
        u = clifford_to_matrix(c)
        rho = u @ zero_state(2) @ u.conj().T
        for s in stabilizer_group(c):
            assert abs(measurement_success_probability(rho, s) - 1.0) < 1e-10

    def test_maximally_mixed_gives_half(self):
        rho = maximally_mixed_state(2)
        s = PauliString.from_label("ZI")
        assert abs(measurement_success_probability(rho, s) - 0.5) < 1e-12

    def test_identity_stabilizer_always_succeeds(self, rng):
        spam = SpamModel(meas=Depolarizing(0.3), meas_flip=0.2)
        rho = random_state(2, rng)
        s = PauliString.identity(2)
        assert abs(measurement_success_probability(rho, s, spam) - 1.0) < 1e-12

    def test_non_hermitian_stabilizer_rejected(self):
        with pytest.raises(ValueError):
            measurement_success_probability(zero_state(1), PauliString.from_label("+iX"))

    def test_measurement_flip_hand_value(self):
        # measuring Z on |0><0| with one-qubit flips: X or Y (2 of 3 choices)
        # flip the outcome, so success = 1 - 2*p/3
        p = 0.3
        spam = SpamModel(meas_flip=p)
        s = PauliString.from_label("Z")
        got = measurement_success_probability(zero_state(1), s, spam)
        assert abs(got - (1 - 2 * p / 3)) < 1e-12


class TestConfigSpecs:
    def test_channel_from_spec_variants(self):
        assert isinstance(channel_from_spec(None, 2), Ideal)
        assert isinstance(channel_from_spec({"kind": "ideal"}, 2), Ideal)
        ch = channel_from_spec({"kind": "depolarizing", "epsilon": 0.01}, 2)
        assert isinstance(ch, Depolarizing) and ch.epsilon == 0.01
        pc = channel_from_spec(
            {"kind": "pauli", "probabilities": {"XI": 0.1, "ZZ": 0.1, "II": 0.8}}, 2)
        assert isinstance(pc, PauliChannel)
        dd = channel_from_spec(
            {"kind": "delta_depolarizing", "delta": 0.05, "p_prime": 0.99, "angle": 0.2}, 1)
        assert isinstance(dd, DeltaDepolarizing)

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError):
            channel_from_spec({"kind": "nope"}, 1)
        with pytest.raises(ValueError):
            channel_from_spec({"kind": "pauli", "probabilities": {"X": 1.0}}, 2)
        with pytest.raises(ValueError):
            channel_from_spec({"kind": "depolarizing", "epsilon": 2.0}, 1)
        with pytest.raises(ValueError, match="epsilon"):
            channel_from_spec({"kind": "depolarizing", "epsilonn": 0.1}, 1)
        with pytest.raises(ValueError, match="p_prime"):
            channel_from_spec({"kind": "delta_depolarizing", "delta": 0.1}, 1)
        with pytest.raises(ValueError, match="unknown channel field 'epsilom'"):
            channel_from_spec({"kind": "depolarizing", "epsilon": 0.01, "epsilom": 0.5}, 1)
        with pytest.raises(ValueError, match="unknown channel field 'epsilon'"):
            channel_from_spec({"kind": "ideal", "epsilon": 0.01}, 1)
        with pytest.raises(ValueError, match="unknown channel field 'qubit'"):
            channel_from_spec({"kind": "pauli", "probabilities": {"X": 1.0}, "qubit": 0}, 1)
        with pytest.raises(ValueError, match="unknown channel field 'axes'"):
            channel_from_spec({"kind": "delta_depolarizing", "delta": 0.1, "p_prime": 0.9,
                               "axes": "Z"}, 1)
        # values of the wrong JSON type name their field
        with pytest.raises(ValueError, match="'epsilon' must be a number, not None"):
            channel_from_spec({"kind": "depolarizing", "epsilon": None}, 1)
        with pytest.raises(ValueError, match="'probabilities' must be an object"):
            channel_from_spec({"kind": "pauli", "probabilities": [1]}, 1)
        with pytest.raises(ValueError, match="'probabilities.X' must be a number"):
            channel_from_spec({"kind": "pauli", "probabilities": {"I": 0.5, "X": [0.5]}}, 1)
        with pytest.raises(ValueError, match="'qubit' must be an integer"):
            channel_from_spec({"kind": "delta_depolarizing", "delta": 0.1, "p_prime": 0.9,
                               "qubit": None}, 1)

    def test_spam_and_noise_model_validation(self):
        NoiseModel(gate=Depolarizing(0.1), spam=SpamModel(meas_flip=0.2))
        with pytest.raises(ValueError):
            SpamModel(meas_flip=1.5)


def test_superoperator_matches_direct_action(rng):
    ch = PauliChannel({"II": 0.85, "XZ": 0.1, "YI": 0.05})
    s = channel_superoperator(ch, 2)
    rho = random_state(2, rng)
    direct = apply_channel(ch, rho)
    via_superop = (s @ rho.reshape(-1, order="F")).reshape(4, 4, order="F")
    assert np.allclose(direct, via_superop, atol=1e-12)


class TestDeltaDepolarizing:
    def test_compares_and_hashes_by_value(self):
        one = DeltaDepolarizing(0.1, 0.9, PauliString.single(2, 1, "Y"), 0.3)
        same = DeltaDepolarizing(0.1, 0.9, PauliString.from_label("IY"), 0.3)
        assert one == same and hash(one) == hash(same)
        assert len({one, same, ComposedChannel([one]), ComposedChannel([same])}) == 2
        assert one != DeltaDepolarizing(0.1, 0.9, PauliString.single(2, 0, "Y"), 0.3)
        assert one != DeltaDepolarizing(0.1, 0.9, PauliString.single(2, 1, "Y"), 0.31)

    @pytest.mark.parametrize("delta, angle", [(0.0, 0.3), (0.2, 0.0), (0.0, 0.0)])
    def test_no_rotation_is_plain_depolarizing(self, delta, angle):
        # delta 0 drops the rotation term and angle 0 makes it rho itself:
        # depolarizing noise of strength (1 - delta)(1 - p')
        for n in (1, 2, 3):
            ch = DeltaDepolarizing(delta, 0.9, PauliString.single(n, n - 1, "Y"), angle)
            assert ch.is_pauli_diagonal
            lam = pauli_eigenvalues(ch, n)
            assert np.array_equal(lam, pauli_eigenvalues(Depolarizing((1 - delta) * (1 - 0.9)), n))
            for idx in range(4 ** n):
                p = pauli_matrix(_packed_label(idx, n))
                assert np.max(np.abs(apply_channel(ch, p) - lam[idx] * p)) < 1e-12
        with pytest.raises(ValueError, match="rotation dimension"):
            fault_distribution(DeltaDepolarizing(delta, 0.9, PauliString.single(1, 0, "Y"),
                                                 angle), 2)
        assert not DeltaDepolarizing(0.2, 0.9, PauliString.single(1, 0, "Y"), 0.3).is_pauli_diagonal

    def test_apply_is_the_rotation(self, rng):
        # delta = 1, p' = 1: rho -> U rho U† with U = cos(a/2) I - i sin(a/2) P
        rotation = PauliString.single(2, 0, "Y")
        u = rotation_unitary(rotation, 0.4)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-15)
        assert np.allclose(u, np.cos(0.2) * np.eye(4) - 1j * np.sin(0.2) * pauli_matrix("YI"))
        rho = random_state(2, rng)
        got = apply_channel(DeltaDepolarizing(1.0, 1.0, rotation, 0.4), rho)
        assert np.allclose(got, u @ rho @ u.conj().T, atol=1e-14)
