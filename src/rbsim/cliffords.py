"""Clifford elements as conjugation images of the Pauli generators.

A Clifford unitary ``C`` on n qubits is stored by the 2n Pauli strings
``C X_i C†`` and ``C Z_i C†``.  This makes sequence products, inverses and
stabilizer groups O(n^2)-ish bit operations regardless of circuit depth, and
it doubles as an Aaronson-Gottesman style tableau (rows = generator images).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paulis import PauliString, pauli_multiply, _phase_exponents

__all__ = [
    "GeneratorGate",
    "CliffordElement",
    "GENERATOR_GATE_NAMES",
    "conjugate_pauli",
    "compose",
    "inverse",
    "random_clifford",
    "stabilizer_group",
    "stabilizer_generators",
    "random_stabilizer",
    "clifford_to_matrix",
    "parse_circuit",
    "clifford_group_order",
    "symplectic_group_order",
]

GENERATOR_GATE_NAMES = ("H", "P", "PDAG", "CNOT", "X")

_ONE_QUBIT_GATES = {"H", "P", "PDAG", "X"}

MAX_DENSE_QUBITS = 6
MAX_MATERIALIZED_GROUP_QUBITS = 12


@dataclass(frozen=True)
class GeneratorGate:
    """One gate from the Clifford generating set {H, P, P†, CNOT} plus X."""

    name: str
    qubits: tuple

    def __post_init__(self):
        name = self.name.upper()
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if name not in GENERATOR_GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        want = 1 if name in _ONE_QUBIT_GATES else 2
        if len(self.qubits) != want:
            raise ValueError(f"{name} expects {want} qubit(s), got {self.qubits}")
        if name == "CNOT" and self.qubits[0] == self.qubits[1]:
            raise ValueError("CNOT control and target must differ")
        if any(q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative")

    def __repr__(self) -> str:
        return f"{self.name} {' '.join(str(q) for q in self.qubits)}"


def _apply_gate_rows(gate: GeneratorGate, x: np.ndarray, z: np.ndarray, ph: np.ndarray):
    """Conjugate Pauli rows in place by one generator gate: row -> G row G†.

    ``x``/``z`` are (rows, n) bit arrays, ``ph`` the (rows,) phase exponents.
    """
    name = gate.name
    if name == "H":
        (q,) = gate.qubits
        ph += 2 * (x[:, q] & z[:, q])
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
    elif name == "P":
        (q,) = gate.qubits
        ph += 2 * (x[:, q] & z[:, q])
        z[:, q] ^= x[:, q]
    elif name == "PDAG":
        (q,) = gate.qubits
        ph += 2 * (x[:, q] & (z[:, q] ^ 1))
        z[:, q] ^= x[:, q]
    elif name == "X":
        (q,) = gate.qubits
        ph += 2 * z[:, q]
    elif name == "CNOT":
        c, t = gate.qubits
        ph += 2 * (x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1))
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    else:  # pragma: no cover - guarded by GeneratorGate
        raise ValueError(f"unknown gate {name!r}")
    ph %= 4


class CliffordElement:
    """An n-qubit Clifford group element in generator-image form.

    Rows ``0..n-1`` hold the images of ``X_i``, rows ``n..2n-1`` the images
    of ``Z_i``.  All valid elements have Hermitian images (phases 0 or 2).
    """

    __slots__ = ("n", "x_bits", "z_bits", "phases")

    def __init__(self, n: int, x_bits: np.ndarray, z_bits: np.ndarray, phases: np.ndarray):
        self.n = int(n)
        self.x_bits = np.asarray(x_bits, dtype=np.uint8)
        self.z_bits = np.asarray(z_bits, dtype=np.uint8)
        self.phases = np.asarray(phases, dtype=np.uint8) % 4
        if self.x_bits.shape != (2 * n, n) or self.z_bits.shape != (2 * n, n):
            raise ValueError("image bit arrays must have shape (2n, n)")
        if self.phases.shape != (2 * n,):
            raise ValueError("phase vector must have shape (2n,)")

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "CliffordElement":
        if n < 1:
            raise ValueError("need at least one qubit")
        x = np.zeros((2 * n, n), dtype=np.uint8)
        z = np.zeros((2 * n, n), dtype=np.uint8)
        for i in range(n):
            x[i, i] = 1
            z[n + i, i] = 1
        return cls(n, x, z, np.zeros(2 * n, dtype=np.uint8))

    @classmethod
    def from_gates(cls, n: int, gates) -> "CliffordElement":
        """Build the element of a gate list applied in circuit order."""
        elem = cls.identity(n)
        for gate in gates:
            elem.apply_gate(gate)
        return elem

    def copy(self) -> "CliffordElement":
        return CliffordElement(
            self.n, self.x_bits.copy(), self.z_bits.copy(), self.phases.copy()
        )

    # -- mutation (append a gate to the circuit) -------------------------

    def apply_gate(self, gate: GeneratorGate):
        """Left-compose one generator gate: self -> gate ∘ self."""
        if max(gate.qubits) >= self.n:
            raise ValueError(f"gate {gate!r} out of range for n={self.n}")
        ph = self.phases.astype(np.int64)
        _apply_gate_rows(gate, self.x_bits, self.z_bits, ph)
        self.phases = ph.astype(np.uint8)

    # -- row access -------------------------------------------------------

    def image_of_x(self, i: int) -> PauliString:
        return PauliString(self.x_bits[i], self.z_bits[i], int(self.phases[i]))

    def image_of_z(self, i: int) -> PauliString:
        r = self.n + i
        return PauliString(self.x_bits[r], self.z_bits[r], int(self.phases[r]))

    def symplectic(self) -> np.ndarray:
        """(2n, 2n) GF(2) matrix, rows = (x bits | z bits) of the images."""
        return np.concatenate([self.x_bits, self.z_bits], axis=1)

    def key(self) -> tuple:
        """Hashable identity of the element (global phase excluded)."""
        return (self.x_bits.tobytes(), self.z_bits.tobytes(), self.phases.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.n == other.n and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def is_valid(self) -> bool:
        """Check the symplectic condition and Hermitian image phases."""
        if np.any(self.phases % 2):
            return False
        m = self.symplectic().astype(np.int64)
        n = self.n
        omega = np.zeros((2 * n, 2 * n), dtype=np.int64)
        omega[:n, n:] = np.eye(n, dtype=np.int64)
        omega[n:, :n] = np.eye(n, dtype=np.int64)
        return bool(np.array_equal((m @ omega @ m.T) % 2, omega))

    def __repr__(self) -> str:
        rows = [self.image_of_x(i).label() for i in range(self.n)]
        rows += [self.image_of_z(i).label() for i in range(self.n)]
        return f"CliffordElement(n={self.n}, images={rows})"


def conjugate_pauli(c: CliffordElement, s: PauliString) -> PauliString:
    """Exact conjugation ``C s C†`` of a Pauli string by a Clifford element."""
    if c.n != s.n:
        raise ValueError(f"qubit count mismatch: {c.n} != {s.n}")
    n = c.n
    acc_x = np.zeros(n, dtype=np.uint8)
    acc_z = np.zeros(n, dtype=np.uint8)
    # extra i for each Y letter: letter_q = i^{x z} X^x Z^z
    acc_ph = int(s.phase) + int(np.sum(s.x & s.z))
    for q in range(n):
        for row in ((q,) if s.x[q] else ()) + ((n + q,) if s.z[q] else ()):
            rx, rz = c.x_bits[row], c.z_bits[row]
            acc_ph += int(c.phases[row]) + int(np.sum(_phase_exponents(acc_x, acc_z, rx, rz)))
            acc_x ^= rx
            acc_z ^= rz
    return PauliString(acc_x, acc_z, acc_ph % 4)


def compose(first: CliffordElement, then: CliffordElement) -> CliffordElement:
    """Element applying ``first`` and then ``then`` (unitary ``then @ first``)."""
    if first.n != then.n:
        raise ValueError("qubit count mismatch")
    n = first.n
    x = np.empty_like(first.x_bits)
    z = np.empty_like(first.z_bits)
    ph = np.empty_like(first.phases)
    for r in range(2 * n):
        img = conjugate_pauli(then, PauliString(first.x_bits[r], first.z_bits[r], int(first.phases[r])))
        x[r], z[r], ph[r] = img.x, img.z, img.phase
    return CliffordElement(n, x, z, ph)


def inverse(c: CliffordElement) -> CliffordElement:
    """Inverse element: ``compose(c, inverse(c))`` is the identity."""
    n = c.n
    m = c.symplectic().astype(np.uint8)
    # symplectic inverse: M^{-1} = Omega M^T Omega with Omega = [[0,I],[I,0]]
    omega = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    omega[:n, n:] = np.eye(n, dtype=np.uint8)
    omega[n:, :n] = np.eye(n, dtype=np.uint8)
    minv = (omega @ m.T @ omega) % 2
    inv = CliffordElement(n, minv[:, :n], minv[:, n:], np.zeros(2 * n, dtype=np.uint8))
    # fix signs: conjugating each candidate image by c must return the bare generator
    for r in range(2 * n):
        back = conjugate_pauli(c, PauliString(inv.x_bits[r], inv.z_bits[r], 0))
        inv.phases[r] = (-back.phase) % 4
    return inv


# ---------------------------------------------------------------------------
# Uniform sampling via the symplectic transvection construction
# ---------------------------------------------------------------------------


def _symplectic_inner(v: int, w: int, n: int) -> int:
    """Symplectic inner product of interleaved (x1, z1, x2, z2, ...) vectors."""
    t = 0
    for j in range(n):
        t ^= (v >> (2 * j)) & (w >> (2 * j + 1)) & 1
        t ^= (w >> (2 * j)) & (v >> (2 * j + 1)) & 1
    return t


def _transvection(k: int, v: int, n: int) -> int:
    return v ^ (k if _symplectic_inner(k, v, n) else 0)


def _anticommuting_local(u: int) -> int:
    """2-bit local Pauli anticommuting with nonzero local u."""
    return 1 if u == 3 else 3


def _find_transvection(x: int, y: int, n: int) -> tuple:
    """Find h1, h2 with Z_h1 Z_h2 x = y for nonzero x, y (Koenig-Smolin Lemma 2)."""
    if x == y:
        return 0, 0
    if _symplectic_inner(x, y, n):
        return x ^ y, 0
    # find z with <x,z> = <y,z> = 1, then hop x -> z -> y
    z = 0
    for j in range(n):
        u = (x >> (2 * j)) & 3
        w = (y >> (2 * j)) & 3
        if u and w:
            v = u ^ w if u != w else _anticommuting_local(u)
            z = v << (2 * j)
            break
    else:
        for j in range(n):
            u = (x >> (2 * j)) & 3
            if u and not ((y >> (2 * j)) & 3):
                z |= _anticommuting_local(u) << (2 * j)
                break
        for j in range(n):
            w = (y >> (2 * j)) & 3
            if w and not ((x >> (2 * j)) & 3):
                z |= _anticommuting_local(w) << (2 * j)
                break
    return x ^ z, z ^ y


def _random_symplectic_rows(n: int, rng: np.random.Generator) -> list:
    """Rows of a uniformly random element of Sp(2n, 2), interleaved packing.

    Row 2i is the image of x_i, row 2i+1 the image of z_i.  Implements the
    standard row-by-row transvection construction, drawing each step's index
    uniformly instead of decoding one big group-element index.
    """
    nn = 2 * n
    if n == 0:
        return []
    f1 = int(rng.integers(1, 1 << nn))  # image of e1, any nonzero vector
    e1 = 1
    t1, t2 = _find_transvection(e1, f1, n)
    bits = int(rng.integers(0, 1 << (nn - 1)))
    eprime = e1 | ((bits >> 1) << 2)  # e1 with random bits on coords 3..2n
    h0 = _transvection(t1, eprime, n)
    h0 = _transvection(t2, h0, n)
    if bits & 1:
        f1 = 0  # drop the Z_f1 factor
    inner = _random_symplectic_rows(n - 1, rng)
    rows = [e1, 1 << 1] + [v << 2 for v in inner]
    out = []
    for v in rows:
        v = _transvection(t1, v, n)
        v = _transvection(t2, v, n)
        v = _transvection(h0, v, n)
        v = _transvection(f1, v, n)
        out.append(v)
    return out


def random_clifford(n: int, rng: np.random.Generator) -> CliffordElement:
    """Exactly uniform sample from the n-qubit Clifford group (mod global phase).

    A uniformly random symplectic matrix over GF(2) is drawn by the
    transvection construction and dressed with 2n uniform sign bits.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    rows = _random_symplectic_rows(n, rng)
    # interleaved (X_1, Z_1, X_2, Z_2, ...) -> block (all X images, all Z images)
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    arr = np.array([rows[r] for r in order], dtype=np.int64)[:, None]
    shifts = 2 * np.arange(n, dtype=np.int64)
    x = ((arr >> shifts) & 1).astype(np.uint8)
    z = ((arr >> (shifts + 1)) & 1).astype(np.uint8)
    phases = (2 * rng.integers(0, 2, size=2 * n)).astype(np.uint8)
    return CliffordElement(n, x, z, phases)


# ---------------------------------------------------------------------------
# Stabilizer groups and the dense-matrix oracle
# ---------------------------------------------------------------------------


def stabilizer_generators(c: CliffordElement) -> list:
    """The n signed generators of the stabilizer group of ``C|0...0>``."""
    return [c.image_of_z(i) for i in range(c.n)]


def stabilizer_group(c: CliffordElement) -> list:
    """All 2^n signed stabilizers of ``C|0...0>``, identity first.

    Materialized fully only for small registers; use the generators and
    random subset products beyond that.
    """
    n = c.n
    if n > MAX_MATERIALIZED_GROUP_QUBITS:
        raise ValueError(
            f"refusing to materialize 2^{n} stabilizers; use stabilizer_generators"
        )
    gens = stabilizer_generators(c)
    group = [PauliString.identity(n)]
    for g in gens:
        group += [pauli_multiply(s, g) for s in group]
    return group


def random_stabilizer(c: CliffordElement, rng: np.random.Generator) -> PauliString:
    """Uniform element of the stabilizer group of ``C|0...0>`` without
    materializing it: a random subset-product of the n generators."""
    out = PauliString.identity(c.n)
    for i in range(c.n):
        if rng.integers(0, 2):
            out = pauli_multiply(out, c.image_of_z(i))
    return out


def clifford_to_matrix(c: CliffordElement) -> np.ndarray:
    """Dense unitary of the element, fixed up to one global phase.

    Column for basis state ``|b>`` is built as ``prod_i (C X_i C†)^{b_i}``
    applied to ``C|0...0>``, the latter recovered from the stabilizer
    projector.  Intended as a small-n oracle.
    """
    n = c.n
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense matrix limited to n <= {MAX_DENSE_QUBITS}")
    d = 2 ** n
    proj = np.eye(d, dtype=complex)
    for g in stabilizer_generators(c):
        proj = proj @ (np.eye(d, dtype=complex) + g.to_matrix()) / 2
    # any nonzero column of the rank-1 projector is the state
    col = int(np.argmax(np.linalg.norm(proj, axis=0)))
    psi0 = proj[:, col]
    psi0 = psi0 / np.linalg.norm(psi0)
    x_imgs = [c.image_of_x(i).to_matrix() for i in range(n)]
    u = np.empty((d, d), dtype=complex)
    for b in range(d):
        psi = psi0
        for i in range(n):
            if (b >> (n - 1 - i)) & 1:  # qubit 0 is the most significant bit
                psi = x_imgs[i] @ psi
        u[:, b] = psi
    return u


# ---------------------------------------------------------------------------
# Circuit text format: one gate per line, e.g. "H 0" / "CNOT 0 1", # comments
# ---------------------------------------------------------------------------


def parse_circuit(text: str) -> list:
    """Parse the line-based circuit format into a list of GeneratorGates."""
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            gates.append(GeneratorGate(parts[0], tuple(int(p) for p in parts[1:])))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}: {exc}") from exc
    return gates


def symplectic_group_order(n: int) -> int:
    """|Sp(2n, 2)| = 2^(n^2) * prod_{j=1..n} (4^j - 1)."""
    order = 2 ** (n * n)
    for j in range(1, n + 1):
        order *= 4 ** j - 1
    return order


def clifford_group_order(n: int) -> int:
    """Number of n-qubit Clifford elements modulo global phase."""
    return 4 ** n * symplectic_group_order(n)
