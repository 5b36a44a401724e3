"""Phase-tracked n-qubit Pauli strings as immutable packed values.

A Pauli string is one int of 2n bits plus a phase exponent::

    operator = i**phase * (P_0 ⊗ P_1 ⊗ ... ⊗ P_{n-1})

where bit ``q`` of ``bits`` is ``x_q`` and bit ``n+q`` is ``z_q``: qubit
``q`` carries ``X`` iff ``x_q``, ``Z`` iff ``z_q`` and ``Y`` (the Hermitian
Pauli matrix) iff both are set.  With this convention a string is Hermitian
exactly when ``phase`` is even, i.e. the prefactor is ``+1`` or ``-1``.

This is the encoding of the Clifford tableau rows and of the Pauli engine's
stabilizer indices; there are no bit-array views.  Products follow one phase
rule, ``packed_phase_exponent``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PauliString", "pauli_multiply", "packed_phase_exponent", "symplectic_inner",
           "pauli_basis"]

_I2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)

# indexed by the local letter x | z << 1
_LETTER_MATRIX = (_I2, _X2, _Z2, _Y2)
_LETTER_CHAR = "IXZY"
_I_POWERS = (1, 1j, -1, -1j)
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator ``i**phase`` times the letters of ``bits``."""

    n: int
    bits: int = 0
    phase: int = 0

    def __post_init__(self):
        n, bits = int(self.n), int(self.bits)
        if n < 1:
            raise ValueError("need at least one qubit")
        if not 0 <= bits < 1 << (2 * n):
            raise ValueError(f"packed letters {bits} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "phase", int(self.phase) % 4)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, phase: int = 0) -> "PauliString":
        """Single-letter Pauli such as X on one qubit of an n-qubit register."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        u = _LETTER_CHAR.index(letter.upper())
        return cls(n, (u & 1) << qubit | (u >> 1) << (n + qubit), phase)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse labels like ``"XI"``, ``"-YY"`` or ``"+iZX"``.

        The leftmost letter acts on qubit 0.
        """
        s = label.strip()
        phase = 0
        for prefix, ph in (("+i", 1), ("-i", 3), ("+", 0), ("-", 2)):
            if s.startswith(prefix):
                phase = ph
                s = s[len(prefix):]
                break
        s = s.upper()
        if not s or any(c not in _LETTER_CHAR for c in s):
            raise ValueError(f"invalid Pauli label {label!r}")
        n = len(s)
        return cls(n, sum(cls.single(n, q, c).bits for q, c in enumerate(s)), phase)

    # -- basic queries -------------------------------------------------

    def _letter(self, q: int) -> int:
        return (self.bits >> q) & 1 | ((self.bits >> (self.n + q)) & 1) << 1

    @property
    def weight(self) -> int:
        """Number of qubits touched non-trivially."""
        return ((self.bits | self.bits >> self.n) & ((1 << self.n) - 1)).bit_count()

    @property
    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

    # -- algebra -------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_multiply(self, other)

    # -- dense form ------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (qubit 0 is the leftmost tensor factor, the
        top bit of a basis index): the signed permutation ``i^phase X^x Z^z``
        times ``i`` per Y letter, so column c holds ``(-1)^popcount(z & c)``
        times that power of i at row ``c ^ x``."""
        n, bits = self.n, self.bits
        x = sum(((bits >> q) & 1) << (n - 1 - q) for q in range(n))
        z = sum(((bits >> (n + q)) & 1) << (n - 1 - q) for q in range(n))
        columns = np.arange(1 << n)
        out = np.zeros((1 << n, 1 << n), dtype=complex)
        out[columns ^ x, columns] = (_I_POWERS[(self.phase + (x & z).bit_count()) & 3]
                                     * np.where(np.bitwise_count(columns & z) & 1, -1, 1))
        return out

    def label(self) -> str:
        letters = "".join(_LETTER_CHAR[self._letter(q)] for q in range(self.n))
        return _PHASE_PREFIX[self.phase] + letters

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"


def pauli_basis(n: int) -> np.ndarray:
    """The dense matrices of all 4^n packed Paulis, ``(4^n, 2^n, 2^n)``: entry
    b is ``PauliString(n, b).to_matrix()``, built as one batched Kronecker
    product per qubit (qubit 0 leftmost) of the stacked letter matrices."""
    letters = np.stack(_LETTER_MATRIX)
    packed = np.arange(4 ** n)
    basis, index = np.ones((1, 1, 1), dtype=complex), np.zeros_like(packed)
    for q in range(n):
        basis = np.einsum("aij,bkl->abikjl", basis, letters).reshape(
            4 * len(basis), 2 * basis.shape[1], -1)
        index = 4 * index + ((packed >> q) & 1 | ((packed >> (n + q)) & 1) << 1)
    return basis[index]


def symplectic_inner(v, w, n: int):
    """Symplectic inner product of packed strings (ints or int64 arrays,
    broadcast): 1 iff they anticommute."""
    return np.bitwise_count((v & (w >> n)) ^ (w & (v >> n))) & 1


def packed_phase_exponent(v, w, n: int):
    """Exponent of i (mod 4) picked up by the packed product ``v @ w``, for
    ints or, elementwise, int64 arrays (broadcast).

    Aaronson-Gottesman bookkeeping summed over the qubits, one bit mask per
    sign: Y*Z, X*Y and Z*X give +1, Y*X, X*Z and Z*Y give -1.
    """
    mask = (1 << n) - 1
    x1, z1 = v & mask, v >> n
    x2, z2 = w & mask, w >> n
    plus = (x1 & z1 & z2 & ~x2) | (x1 & ~z1 & x2 & z2) | (~x1 & z1 & x2 & ~z2)
    minus = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & z2 & ~x2) | (~x1 & z1 & x2 & z2)
    if isinstance(plus, int):
        return (plus.bit_count() - minus.bit_count()) & 3
    return (np.bitwise_count(plus).astype(np.int64) - np.bitwise_count(minus)) & 3


def pauli_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact product ``a @ b`` of two Pauli strings, phase included."""
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} != {b.n}")
    phase = a.phase + b.phase + packed_phase_exponent(a.bits, b.bits, a.n)
    return PauliString(a.n, a.bits ^ b.bits, phase)
