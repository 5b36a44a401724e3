import numpy as np
import pytest

from rbsim.paulis import PauliString, pauli_basis, pauli_multiply, symplectic_inner

from conftest import pauli_from_bits, pauli_letters, pauli_matrix


def test_identity_times_z_is_z():
    i = PauliString.from_label("I")
    z = PauliString.from_label("Z")
    assert pauli_multiply(i, z) == z
    assert pauli_multiply(z, i) == z


def test_xz_phases_match_matrix_oracle():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    xz = pauli_multiply(x, z)
    zx = pauli_multiply(z, x)
    assert np.allclose(xz.to_matrix(), pauli_matrix("X") @ pauli_matrix("Z"))
    assert np.allclose(zx.to_matrix(), pauli_matrix("Z") @ pauli_matrix("X"))
    # X Z = -iY and Z X = +iY
    assert xz.label() == "-iY"
    assert zx.label() == "+iY"


def test_two_qubit_square_is_identity():
    s = PauliString.from_label("XZ")
    sq = pauli_multiply(s, s)
    assert sq == PauliString.identity(2)
    assert sq.phase == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiply_matches_dense_oracle(n, rng):
    for _ in range(80):
        a = pauli_from_bits(rng.integers(0, 2, n), rng.integers(0, 2, n), int(rng.integers(4)))
        b = pauli_from_bits(rng.integers(0, 2, n), rng.integers(0, 2, n), int(rng.integers(4)))
        prod = pauli_multiply(a, b)
        assert np.allclose(prod.to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-12)


def test_multiplication_is_associative(rng):
    n = 3
    for _ in range(200):
        a, b, c = (
            pauli_from_bits(rng.integers(0, 2, n), rng.integers(0, 2, n), int(rng.integers(4)))
            for _ in range(3)
        )
        assert pauli_multiply(pauli_multiply(a, b), c) == pauli_multiply(a, pauli_multiply(b, c))


def test_weight_counts_touched_qubits():
    assert PauliString.from_label("IXYZ").weight == 3
    assert PauliString.identity(5).weight == 0
    assert 0 <= PauliString.from_label("YY").weight <= 2


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        pauli_multiply(PauliString.from_label("X"), PauliString.from_label("XX"))


def test_hermitian_iff_real_sign(rng):
    for _ in range(40):
        n = int(rng.integers(1, 4))
        s = pauli_from_bits(rng.integers(0, 2, n), rng.integers(0, 2, n), int(rng.integers(4)))
        m = s.to_matrix()
        is_herm = np.allclose(m, m.conj().T, atol=1e-12)
        assert is_herm == s.is_hermitian == (s.phase in (0, 2))
        # always unitary
        assert np.allclose(m @ m.conj().T, np.eye(2 ** n), atol=1e-12)


def test_label_roundtrip():
    for label in ("+XI", "-iYZ", "+iZ", "-YY", "+III"):
        assert PauliString.from_label(label).label() == label


def test_commutes_with_matches_matrices(rng):
    n = 2
    for _ in range(60):
        a = pauli_from_bits(rng.integers(0, 2, n), rng.integers(0, 2, n), 0)
        b = pauli_from_bits(rng.integers(0, 2, n), rng.integers(0, 2, n), 0)
        comm = a.to_matrix() @ b.to_matrix() - b.to_matrix() @ a.to_matrix()
        commute = bool(np.allclose(comm, 0, atol=1e-12))
        assert symplectic_inner(a.bits, b.bits, n) == (not commute)


def test_product_weight_subadditive(rng):
    n = 4
    for _ in range(100):
        a = pauli_from_bits(rng.integers(0, 2, n), rng.integers(0, 2, n), 0)
        b = pauli_from_bits(rng.integers(0, 2, n), rng.integers(0, 2, n), 0)
        assert pauli_multiply(a, b).weight <= a.weight + b.weight


def _every_pauli(n):
    for bits in range(4 ** n):
        for phase in range(4):
            yield PauliString(n, bits, phase)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_packed_value_matches_dense_oracle(n):
    for s in _every_pauli(n):
        assert PauliString.from_label(s.label()) == s
        letters = pauli_letters(s)
        assert s.label().lstrip("+-i") == letters
        assert np.allclose(s.to_matrix(), pauli_matrix(letters, 1j ** s.phase), atol=1e-12)
        assert s.weight == sum(c != "I" for c in letters)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_to_matrix_equals_the_kron_chain(n):
    # the signed permutation built by index arithmetic is, entry for entry,
    # the phase times the Kronecker product of the letters
    for s in _every_pauli(n):
        got = s.to_matrix()
        assert got.dtype == complex and got.shape == (2 ** n, 2 ** n)
        assert np.array_equal(got, pauli_matrix(pauli_letters(s), 1j ** s.phase)), s


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_pair_commutes_as_matrices(n):
    paulis = [PauliString(n, bits) for bits in range(4 ** n)]
    mats = [pauli_matrix(pauli_letters(s)) for s in paulis]
    for a, ma in zip(paulis, mats):
        for b, mb in zip(paulis, mats):
            commute = bool(np.allclose(ma @ mb, mb @ ma, atol=1e-12))
            assert symplectic_inner(a.bits, b.bits, n) == (not commute)


def test_constructor_rejects_out_of_range_values():
    for n, bits in ((1, 4), (2, 16), (3, 4 ** 3), (2, -1)):
        with pytest.raises(ValueError):
            PauliString(n, bits)
    for n in (0, -1):
        with pytest.raises(ValueError):
            PauliString(n)
    assert PauliString(2, 15, 7).phase == 3


def test_values_are_frozen_and_hashed_by_value():
    s = PauliString.from_label("-XY")
    assert {s: 1}[PauliString(2, 0b1011, 2)] == 1
    with pytest.raises(AttributeError):
        s.bits = 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_basis_is_each_packed_paulis_matrix(n):
    basis = pauli_basis(n)
    assert basis.shape == (4 ** n, 2 ** n, 2 ** n)
    for b in range(4 ** n):
        assert np.array_equal(basis[b], PauliString(n, b).to_matrix()), b
