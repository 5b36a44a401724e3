"""Phase-tracked n-qubit Pauli strings.

A Pauli string is stored as two bit vectors plus a phase exponent::

    operator = i**phase * (P_0 ⊗ P_1 ⊗ ... ⊗ P_{n-1})

where qubit ``q`` carries ``X`` iff ``x[q]``, ``Z`` iff ``z[q]`` and ``Y``
(the Hermitian Pauli matrix) iff both bits are set.  With this convention a
string is Hermitian exactly when ``phase`` is even, i.e. the prefactor is
``+1`` or ``-1``.

The Clifford core and the Pauli engine work on the packed form of the
same letters: one int with bit ``q`` = ``x[q]`` and bit ``n+q`` = ``z[q]``
(``PauliString.packed`` / ``PauliString.from_packed``), and multiply packed
strings with ``packed_phase_exponent``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PauliString", "pauli_multiply", "packed_phase_exponent"]

_I2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)

# indexed by (x, z)
_LETTER_MATRIX = {(0, 0): _I2, (1, 0): _X2, (1, 1): _Y2, (0, 1): _Z2}
_LETTER_CHAR = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_CHAR_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def _as_bits(values, n: int | None = None) -> np.ndarray:
    bits = np.atleast_1d(np.asarray(values, dtype=np.uint8)) & 1
    if n is not None and bits.size != n:
        raise ValueError(f"expected {n} bits, got {bits.size}")
    bits.setflags(write=False)
    return bits


@dataclass(frozen=True, eq=False)
class PauliString:
    """An n-qubit Pauli operator with exact phase bookkeeping."""

    x: np.ndarray
    z: np.ndarray
    phase: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", _as_bits(self.x))
        object.__setattr__(self, "z", _as_bits(self.z, self.x.size))
        object.__setattr__(self, "phase", int(self.phase) % 4)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8), 0)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, phase: int = 0) -> "PauliString":
        """Single-letter Pauli such as X on one qubit of an n-qubit register."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        x = np.zeros(n, dtype=np.uint8)
        z = np.zeros(n, dtype=np.uint8)
        x[qubit], z[qubit] = _CHAR_BITS[letter.upper()]
        return cls(x, z, phase)

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
        try:
            pairs = [_CHAR_BITS[c] for c in s.upper()]
        except KeyError as exc:
            raise ValueError(f"invalid Pauli label {label!r}") from exc
        if not pairs:
            raise ValueError(f"empty Pauli label {label!r}")
        x, z = zip(*pairs)
        return cls(np.array(x, dtype=np.uint8), np.array(z, dtype=np.uint8), phase)

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def weight(self) -> int:
        """Number of qubits touched non-trivially."""
        return int(np.count_nonzero(self.x | self.z))

    @property
    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        anti = int(np.sum(self.x & other.z) + np.sum(self.z & other.x)) % 2
        return anti == 0

    # -- algebra -------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_multiply(self, other)

    def adjoint(self) -> "PauliString":
        # conjugating i^phase flips odd phases; letters are Hermitian
        return PauliString(self.x, self.z, (-self.phase) % 4)

    def with_phase(self, phase: int) -> "PauliString":
        return PauliString(self.x, self.z, phase)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.n == other.n
            and self.phase == other.phase
            and bool(np.array_equal(self.x, other.x))
            and bool(np.array_equal(self.z, other.z))
        )

    def __hash__(self) -> int:
        return hash((self.phase, self.x.tobytes(), self.z.tobytes()))

    def key(self) -> tuple:
        """Hashable identity, phase included."""
        return (self.phase, self.x.tobytes(), self.z.tobytes())

    # -- dense form ------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (qubit 0 is the leftmost tensor factor)."""
        out = np.array([[1j ** self.phase]], dtype=complex)
        for q in range(self.n):
            out = np.kron(out, _LETTER_MATRIX[(int(self.x[q]), int(self.z[q]))])
        return out

    def label(self) -> str:
        letters = "".join(
            _LETTER_CHAR[(int(self.x[q]), int(self.z[q]))] for q in range(self.n)
        )
        return _PHASE_PREFIX[self.phase] + letters

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"

    # -- packed form -----------------------------------------------------

    @classmethod
    def from_packed(cls, v: int, n: int, phase: int = 0) -> "PauliString":
        """String of packed index ``v``: bit q = x_q, bit n+q = z_q."""
        return cls([(v >> q) & 1 for q in range(n)], [(v >> (n + q)) & 1 for q in range(n)], phase)

    def packed(self) -> int:
        """Packed index of the letters (the phase is not part of it)."""
        n = self.n
        return sum((int(self.x[q]) << q) | (int(self.z[q]) << (n + q)) for q in range(n))


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


def packed_phase_exponent(v: int, w: int, n: int) -> int:
    """Exponent of i (mod 4) picked up by the packed product ``v @ w``.

    ``_phase_exponents`` summed over the qubits, one bit mask per sign:
    Y*Z, X*Y and Z*X give +1, Y*X, X*Z and Z*Y give -1.
    """
    mask = (1 << n) - 1
    x1, z1 = v & mask, v >> n
    x2, z2 = w & mask, w >> n
    plus = (x1 & z1 & z2 & ~x2) | (x1 & ~z1 & x2 & z2) | (~x1 & z1 & x2 & ~z2)
    minus = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & z2 & ~x2) | (~x1 & z1 & x2 & z2)
    return (plus.bit_count() - minus.bit_count()) & 3


def pauli_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact product ``a @ b`` of two Pauli strings, phase included."""
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} != {b.n}")
    phase = (a.phase + b.phase + int(np.sum(_phase_exponents(a.x, a.z, b.x, b.z)))) % 4
    return PauliString(a.x ^ b.x, a.z ^ b.z, phase)
