"""Shared fixtures and independent dense-matrix oracles.

The oracles here are built from first principles (literal 2x2 matrices,
kron chains and basis permutations) so they never share code with the
tableau implementation or the engines they check.  The checks on states
and channels, the Clifford group orders and the dense survival oracle live
here because only the tests use them.
"""

import numpy as np
import pytest

from rbsim.channels import Ideal, SpamModel, choi_matrix
from rbsim.cliffords import CliffordElement
from rbsim.engines import SequenceBatch
from rbsim.paulis import PauliString

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_ATOL = 1e-10

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S2 = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG2 = S2.conj().T

LETTERS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_matrix(label: str, phase: complex = 1.0) -> np.ndarray:
    """Dense matrix of a Pauli label like 'XZ' (leftmost letter on qubit 0)."""
    return phase * kron_chain([LETTERS[c] for c in label])


def pauli_from_bits(x, z, phase: int = 0) -> PauliString:
    """PauliString of two bit arrays, packed as bit q = x[q], bit n+q = z[q]."""
    n = len(x)
    return PauliString(n, sum(int(x[q]) << q | int(z[q]) << (n + q) for q in range(n)), phase)


def pauli_bits(s: PauliString) -> tuple:
    """The (x, z) bit arrays of a PauliString's packed letters."""
    return (np.array([(s.bits >> q) & 1 for q in range(s.n)], dtype=np.uint8),
            np.array([(s.bits >> (s.n + q)) & 1 for q in range(s.n)], dtype=np.uint8))


def pauli_letters(s: PauliString) -> str:
    """Letter string of a PauliString (leftmost letter on qubit 0), phase dropped."""
    table = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    return "".join(table[int(x), int(z)] for x, z in zip(*pauli_bits(s)))


def _phase_exponents(x1, z1, x2, z2) -> np.ndarray:
    """Per-qubit exponent of i picked up when multiplying two Pauli letters.

    Standard Aaronson-Gottesman bookkeeping: e.g. X*Z = -iY contributes -1.
    """
    x1 = x1.astype(np.int64)
    z1 = z1.astype(np.int64)
    x2 = x2.astype(np.int64)
    z2 = z2.astype(np.int64)
    return (
        x1 * z1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    )


def one_qubit_unitary(gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    return kron_chain([gate if q == qubit else I2 for q in range(n)])


def cnot_unitary(control: int, target: int, n: int) -> np.ndarray:
    """Basis-permutation construction (qubit 0 is the most significant bit)."""
    d = 2 ** n
    u = np.zeros((d, d), dtype=complex)
    for b in range(d):
        bits = [(b >> (n - 1 - q)) & 1 for q in range(n)]
        if bits[control]:
            bits[target] ^= 1
        out = 0
        for q in range(n):
            out = (out << 1) | bits[q]
        u[out, b] = 1.0
    return u


def gate_unitary(name: str, qubits, n: int) -> np.ndarray:
    name = name.upper()
    if name == "CNOT":
        return cnot_unitary(qubits[0], qubits[1], n)
    table = {"H": H2, "P": S2, "PDAG": SDG2, "X": X2}
    return one_qubit_unitary(table[name], qubits[0], n)


def circuit_unitary(gates, n: int) -> np.ndarray:
    """Dense unitary of a gate list applied in circuit order."""
    u = np.eye(2 ** n, dtype=complex)
    for g in gates:
        u = gate_unitary(g.name, g.qubits, n) @ u
    return u


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> bool:
    idx = np.unravel_index(int(np.argmax(np.abs(a))), a.shape)
    if abs(a[idx]) < 1e-14:
        return bool(np.allclose(a, b, atol=atol))
    phase = b[idx] / a[idx]
    return abs(abs(phase) - 1.0) < 1e-9 and bool(np.allclose(phase * a, b, atol=atol))


def batch_sequence(batch, k: int) -> list:
    """The signed elements of sequence ``k`` of a ``SequenceBatch``."""
    picks = batch.elements[:, k]
    picks = picks[picks >= 0]  # -1 before an end-aligned sequence starts
    return [CliffordElement(batch.n, rows, phases) for rows, phases
            in zip(batch.rows[picks].tolist(), batch.phases[picks].tolist())]


def batch_of_one(n: int, elements, noise=None, spam=None):
    """The ``SequenceBatch`` of one sequence of ``CliffordElement``s with
    ``noise`` after each: one channel (default ideal), or one per element."""
    m = len(elements)
    rows, phases = (np.array([getattr(e, f) for e in elements], dtype=np.int64)
                    .reshape(m, 2 * n) for f in ("rows", "phases"))
    channels = list(noise) if isinstance(noise, (list, tuple)) else [noise or Ideal()] * m
    return SequenceBatch(n, rows, phases, np.arange(m).reshape(m, 1), channels,
                         spam or SpamModel())


def position_major_batch(n: int, rows, phases, channels, spam=None):
    """A ``SequenceBatch`` of ``(L, K, 2n)`` rows and phases: one table row
    per position and sequence, position-major."""
    rows, phases = np.asarray(rows), np.asarray(phases)
    picks = np.arange(rows.shape[0] * rows.shape[1]).reshape(rows.shape[:2])
    return SequenceBatch(n, rows.reshape(-1, 2 * n), phases.reshape(-1, 2 * n), picks,
                         channels, spam or SpamModel())


def maximally_mixed_state(n: int) -> np.ndarray:
    d = 2 ** n
    return np.eye(d, dtype=complex) / d


def check_density_matrix(rho: np.ndarray, *, herm_atol=HERMITICITY_ATOL,
                         trace_atol=TRACE_ATOL, eig_atol=EIGENVALUE_ATOL):
    """Raise if ``rho`` is not Hermitian, unit-trace and positive within tolerance."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > herm_atol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > trace_atol:
        raise ValueError(f"density matrix trace {np.trace(rho)} != 1")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < -eig_atol:
        raise ValueError("density matrix has a negative eigenvalue")


def check_cptp(ch, n: int, *, eig_atol=1e-10, tp_atol=1e-12):
    """Raise unless the channel is completely positive and trace preserving."""
    d = 2 ** n
    choi = choi_matrix(ch, n)
    if np.min(np.linalg.eigvalsh((choi + choi.conj().T) / (2 * d))) < -eig_atol:
        raise ValueError("channel is not completely positive")
    # trace preservation: Tr ch(|i><j|) = delta_ij, the partial trace of the Choi matrix
    tp = np.einsum("aiaj->ij", choi.reshape(d, d, d, d))
    if np.max(np.abs(tp - np.eye(d))) > tp_atol:
        raise ValueError("channel is not trace preserving")


def symplectic_group_order(n: int) -> int:
    """|Sp(2n, 2)| = 2^(n^2) * prod_{j=1..n} (4^j - 1)."""
    order = 2 ** (n * n)
    for j in range(1, n + 1):
        order *= 4 ** j - 1
    return order


def clifford_group_order(n: int) -> int:
    """Number of n-qubit Clifford elements modulo global phase."""
    return 4 ** n * symplectic_group_order(n)


def survival_probability(rho: np.ndarray, spam: SpamModel | None = None) -> float:
    """Probability that measuring every qubit of ``rho`` in Z returns all zeros,
    after the measurement channel and independent per-qubit flips.

    A flip (X or Y, two of the three depolarizing letters) turns a qubit's
    outcome over with probability 2p/3, so basis state b reads all zeros with
    probability prod_q (1 - 2p/3 if b_q = 0 else 2p/3):
    P = sum_b rho'_bb prod_q (...), with rho' the state after the channel.
    """
    spam = spam or SpamModel()
    diag = np.real(np.diag(spam.meas.apply(rho)))
    n = len(diag).bit_length() - 1
    flip = 2.0 * spam.meas_flip / 3.0
    total = 0.0
    for b, weight in enumerate(diag):
        for q in range(n):
            weight *= flip if (b >> q) & 1 else 1.0 - flip
        total += weight
    return float(total)


def depolarizing_rbsv_curve(eps, lengths, include_identity=True):
    """Closed-form exact-mode RBSV curve at n=2 under Depolarizing(eps).

    The output state is q|psi><psi| + (1 - q)I/4 with q = (1 - eps)^m.  A
    non-identity stabilizer accepts with (1 + q)/2 and the identity always
    accepts, so the group average is (5 + 3q)/8 with the identity included
    and (1 + q)/2 without it.  At the optimal copy count R = 1/ln(1/P) the
    bound 1 - 1/(P^R R) becomes 1 - e ln(1/P).  Returns ``(P, bound)``.
    """
    q = (1.0 - eps) ** np.asarray(lengths, dtype=float)
    p_acc = (5.0 + 3.0 * q) / 8.0 if include_identity else (1.0 + q) / 2.0
    return p_acc, 1.0 - np.e * np.log(1.0 / p_acc)


def pinned_offset_infidelity(lengths, values, d=4):
    """Infidelity (d - 1)(1 - p)/d of an unweighted fit values ~ 1/d + B p^m.

    The drivers' ``auto`` fit model with no SPAM: offset pinned at 1/d and
    B boxed to [0, 1].  For each p the best B is the clipped 1-D least
    squares solution; p is found by zooming a grid over log10(1 - p).
    ``values`` is one curve, or a 2-D array with one curve per row; the
    result is a float or an array to match.
    """
    ms = np.asarray(lengths, dtype=float)
    values = np.asarray(values, dtype=float)
    ys = np.atleast_2d(values) - 1.0 / d
    rows = np.arange(ys.shape[0])
    lo = np.full(ys.shape[0], -9.0)
    hi = np.full(ys.shape[0], -0.5)
    for _ in range(10):
        grid = np.linspace(lo, hi, 101, axis=1)
        x = (1.0 - 10.0 ** grid)[..., None] ** ms
        b = np.clip(np.einsum("cgl,cl->cg", x, ys) / np.einsum("cgl,cgl->cg", x, x),
                    0.0, 1.0)
        sse = ((b[..., None] * x - ys[:, None, :]) ** 2).sum(axis=-1)
        i = np.argmin(sse, axis=1)
        lo = grid[rows, np.maximum(i - 1, 0)]
        hi = grid[rows, np.minimum(i + 1, grid.shape[1] - 1)]
    r = (d - 1) * 10.0 ** ((lo + hi) / 2.0) / d
    return float(r[0]) if values.ndim == 1 else r


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def stream_seeds(rng, k: int = 1) -> np.ndarray:
    """``k`` 64-bit stream seeds drawn from a numpy ``Generator``."""
    return rng.integers(1 << 64, size=k, dtype=np.uint64)


def _unshift(y: int, s: int) -> int:
    """The inverse of ``x -> x ^ (x >> s)`` on 64-bit words."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def seed_with_word(value: int, index: int) -> int:
    """A stream seed whose word ``index`` is ``value``.

    Word i of the stream with seed s is SplitMix64's finalizer of
    s + (i + 1)γ, and the finalizer is a bijection: each xorshift and each
    odd multiplier is undone here, in reverse order.
    """
    mask = (1 << 64) - 1
    v = _unshift(value, 31)
    v = (v * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    v = _unshift(v, 27)
    v = (v * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    v = _unshift(v, 30)
    return (v - (index + 1) * 0x9E3779B97F4A7C15) & mask
