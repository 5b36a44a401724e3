"""Clifford elements as conjugation images of the Pauli generators.

A Clifford unitary ``C`` on n qubits is stored by the 2n Pauli strings
``C X_i C†`` and ``C Z_i C†``, each one packed int (bit q = x_q, bit n+q =
z_q, the layout of the Pauli engine's stabilizer indices) plus its exponent
of i: an Aaronson-Gottesman tableau with one word per row.  Sequence
products, inverses and conjugations are word-level bit operations whose
cost does not depend on circuit depth: the symplectic inner product is one
bit count, and phases follow the Aaronson-Gottesman rule in its bit-mask
form (``paulis.packed_phase_exponent``).  Elements are immutable values:
every operation returns a new element, and the ``PauliString`` images share
the row encoding, so there are no bit-array views.

The uniform sampler, the Koenig-Smolin transvection construction
(arXiv:1406.2170), runs on int64 arrays.  ``random_clifford_table`` reads
each element from 2n + 1 consecutive words of its stream
(``seeding.stream_rows``), derived for the whole batch at once, however
many elements each stream gives: level k
(w = n - k) takes the first nonzero 2w-bit chunk of one word, which is
exactly uniform on [1, 4^w), and the low 2w - 1 bits of the next; the
signs are the low 2n bits of the last word.  A level word whose chunks are
all zero (probability at most 2^-56 for n <= 8) is refilled from the words
past the stream's budget, so an element depends only on its stream.
Levels n - 1 and n - 2 act first, on the identity rows, and their four
draws take only 15·8·3·2 = 720 values (6 at n = 1, which has one level):
``symplectic_rows`` looks their rows up in one table per n, built by the
same level code (``_level``) over every draw combination and indexed by
the draws' mixed radix, then applies levels n - 3 .. 0 by transvection.
``random_clifford`` is the batch of one.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .paulis import PauliString, packed_phase_exponent, pauli_multiply, symplectic_inner
from .seeding import redraw, stream_rows

__all__ = [
    "GeneratorGate",
    "CliffordElement",
    "GENERATOR_GATE_NAMES",
    "conjugate_pauli",
    "compose",
    "inverse",
    "random_clifford",
    "random_clifford_rows",
    "random_clifford_table",
    "symplectic_rows",
    "stabilizer_group",
    "stabilizer_generators",
    "clifford_to_matrix",
    "parse_circuit",
]

GENERATOR_GATE_NAMES = ("H", "P", "PDAG", "CNOT", "X")

# one-qubit gate: local letter (x, z) -> its image's letter and sign flip
_ONE_QUBIT_RULES = {
    "H": lambda x, z: (z, x, x & z),
    "P": lambda x, z: (x, z ^ x, x & z),
    "PDAG": lambda x, z: (x, z ^ x, x & (z ^ 1)),
    "X": lambda x, z: (x, z, z),
}

MAX_DENSE_QUBITS = 6
MAX_MATERIALIZED_GROUP_QUBITS = 12
# the sampler's rows are int64 words of 2n bits, and a level draw takes at
# most 62 bits of one stream word
MAX_SAMPLED_QUBITS = 31

# elements the sampler draws at once
_DRAW_ELEMENTS = 1 << 11


def _integers(values, what: str) -> tuple:
    """``values`` as ints (numpy integers too); a float raises, not truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, not {list(values)}") from None


@dataclass(frozen=True)
class GeneratorGate:
    """One gate from the Clifford generating set {H, P, P†, CNOT} plus X."""

    name: str
    qubits: tuple

    def __post_init__(self):
        name = self.name.upper()
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qubits", _integers(self.qubits, f"{name} qubits"))
        if name not in GENERATOR_GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        want = 1 if name in _ONE_QUBIT_RULES else 2
        if len(self.qubits) != want:
            raise ValueError(f"{name} expects {want} qubit(s), got {self.qubits}")
        if name == "CNOT" and self.qubits[0] == self.qubits[1]:
            raise ValueError("CNOT control and target must differ")
        if any(q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative")

    def __repr__(self) -> str:
        return f"{self.name} {' '.join(str(q) for q in self.qubits)}"


def _identity_rows(n: int) -> list:
    if n < 1:
        raise ValueError("need at least one qubit")
    return [1 << r for r in range(2 * n)]


def _apply_gate_rows(gate: GeneratorGate, n: int, rows: list, phases: list):
    """Conjugate packed Pauli rows in place by one generator gate: row -> G row G†.

    ``rows`` holds packed strings (bit q = x_q, bit n+q = z_q), ``phases``
    their exponents of i.
    """
    name = gate.name
    if name == "CNOT":
        c, t = gate.qubits
        for r, v in enumerate(rows):
            xc, xt = (v >> c) & 1, (v >> t) & 1
            zc, zt = (v >> (n + c)) & 1, (v >> (n + t)) & 1
            if xc & zt & (xt ^ zc ^ 1):
                phases[r] = (phases[r] + 2) & 3
            rows[r] = v ^ (xc << t) ^ (zt << (n + c))
        return
    (q,) = gate.qubits
    rule = _ONE_QUBIT_RULES[name]
    for r, v in enumerate(rows):
        x, z = (v >> q) & 1, (v >> (n + q)) & 1
        new_x, new_z, flip = rule(x, z)
        rows[r] = v ^ ((x ^ new_x) << q) ^ ((z ^ new_z) << (n + q))
        phases[r] = (phases[r] + 2 * flip) & 3


@dataclass(frozen=True, slots=True)
class CliffordElement:
    """An n-qubit Clifford group element in generator-image form.

    ``rows[r]`` is the packed image of ``X_r`` for ``r < n`` and of
    ``Z_{r-n}`` for ``r >= n`` (bit q = x_q, bit n+q = z_q), ``phases[r]``
    its exponent of i.  All valid elements have Hermitian images (phases 0
    or 2).  Elements are immutable and hashed by value.
    """

    n: int
    rows: tuple
    phases: tuple

    def __post_init__(self):
        n = self.n
        rows = _integers(self.rows, "tableau rows")
        phases = tuple(p & 3 for p in _integers(self.phases, "tableau phases"))
        if len(rows) != 2 * n or any(v < 0 or v >> (2 * n) for v in rows):
            raise ValueError("need 2n packed image rows of 2n bits")
        if len(phases) != 2 * n:
            raise ValueError("need one phase per image row")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "phases", phases)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "CliffordElement":
        return cls(n, _identity_rows(n), (0,) * (2 * n))

    @classmethod
    def from_gates(cls, n: int, gates) -> "CliffordElement":
        """Build the element of a gate list applied in circuit order."""
        rows, phases = _identity_rows(n), [0] * (2 * n)
        for gate in gates:
            if max(gate.qubits) >= n:
                raise ValueError(f"gate {gate!r} out of range for n={n}")
            _apply_gate_rows(gate, n, rows, phases)
        return cls(n, rows, phases)

    # -- row access -------------------------------------------------------

    def image_of_x(self, i: int) -> PauliString:
        return PauliString(self.n, self.rows[i], self.phases[i])

    def image_of_z(self, i: int) -> PauliString:
        r = self.n + i
        return PauliString(self.n, self.rows[r], self.phases[r])

    def key(self) -> tuple:
        """Hashable identity of the element (global phase excluded)."""
        return (self.rows, self.phases)

    def is_valid(self) -> bool:
        """Check the symplectic condition and Hermitian image phases."""
        if any(p & 1 for p in self.phases):
            return False
        n, rows = self.n, self.rows
        # images of X_i and Z_i anticommute; every other pair commutes
        return all(
            symplectic_inner(rows[i], rows[j], n) == (j == i + n)
            for i in range(2 * n) for j in range(i, 2 * n)
        )

    def __repr__(self) -> str:
        rows = [self.image_of_x(i).label() for i in range(self.n)]
        rows += [self.image_of_z(i).label() for i in range(self.n)]
        return f"CliffordElement(n={self.n}, images={rows})"


def _conjugate_row(c: CliffordElement, v: int, phase: int) -> tuple:
    """Packed ``C (i^phase v) C†``: the product of the images of v's letters."""
    n, rows, phases = c.n, c.rows, c.phases
    # extra i for each Y letter: letter_q = i^{x z} X^x Z^z; the X letters of
    # v come before its Z letters, which reorders only commuting factors
    phase += (v & (v >> n)).bit_count()
    acc = 0
    b = 0
    while v:
        if v & 1:
            row = rows[b]
            phase += phases[b] + packed_phase_exponent(acc, row, n)
            acc ^= row
        v >>= 1
        b += 1
    return acc, phase & 3


def conjugate_pauli(c: CliffordElement, s: PauliString) -> PauliString:
    """Exact conjugation ``C s C†`` of a Pauli string by a Clifford element."""
    if c.n != s.n:
        raise ValueError(f"qubit count mismatch: {c.n} != {s.n}")
    acc, phase = _conjugate_row(c, s.bits, s.phase)
    return PauliString(c.n, acc, phase)


def compose(first: CliffordElement, then: CliffordElement) -> CliffordElement:
    """Element applying ``first`` and then ``then`` (unitary ``then @ first``)."""
    if first.n != then.n:
        raise ValueError("qubit count mismatch")
    rows, phases = zip(*[_conjugate_row(then, v, p) for v, p in zip(first.rows, first.phases)])
    return CliffordElement(first.n, rows, phases)


def inverse(c: CliffordElement) -> CliffordElement:
    """Inverse element: ``compose(c, inverse(c))`` is the identity."""
    # symplectic part M^{-1} = Omega M^T Omega, Omega = [[0, I], [I, 0]]: row i
    # has bit j set iff row σ(j) of M has bit σ(i), σ swapping x and z halves
    n = c.n
    rows = [0] * (2 * n)
    for r, v in enumerate(c.rows):
        for b in range(2 * n):
            if v >> b & 1:
                rows[(b + n) % (2 * n)] |= 1 << ((r + n) % (2 * n))
    # fix signs: conjugating each candidate image by c must return the bare generator
    phases = tuple(-_conjugate_row(c, v, 0)[1] & 3 for v in rows)
    return CliffordElement(n, rows, phases)


# ---------------------------------------------------------------------------
# Uniform sampling: the Koenig-Smolin transvection construction, batched
# ---------------------------------------------------------------------------


def _clifford_words(n: int, seeds: np.ndarray, counts) -> np.ndarray:
    """Stream k's first ``counts[k] (2n + 1)`` words as ``counts[k]``
    consecutive rows of 2n + 1, one per element, stream after stream: level
    k's two words at 2k and 2k + 1 and the signs last.  A level word whose
    whole 2(n - k)-bit chunks are all zero is refilled by ``seeding.redraw``."""
    width = 2 * n + 1
    # the bits of a level word's whole chunks; 0 marks the words any value suits
    region = np.zeros(width, dtype=np.uint64)
    for k in range(n):
        chunk = 2 * (n - k)
        region[2 * k] = (1 << (chunk * (64 // chunk))) - 1
    words = stream_rows(seeds, counts, width)
    return redraw(seeds, words, lambda w, cols: ((w & region[cols]) != 0) | (region[cols] == 0),
                  counts)


def _level_draws(n: int, words: np.ndarray) -> tuple:
    """The 2n level draws of ``symplectic_rows`` and the ``(N, 2n)`` sign
    bits of N elements, from their ``(N, 2n + 1)`` words.

    Level k (w = n - k) takes its first draw as the first nonzero 2w-bit
    chunk of word 2k, counted from the low end, which is uniform on
    [1, 4^w), and its second as the low 2w - 1 bits of word 2k + 1.  Sign r
    is bit r of the last word.
    """
    one = np.uint64(1)
    draws = []
    for k in range(n):
        chunk = 2 * (n - k)
        word = words[:, 2 * k]
        # the lowest set bit lies in the first nonzero chunk
        below = np.bitwise_count((word & (~word + one)) - one)
        shift = (below // np.uint8(chunk) * np.uint8(chunk)).astype(np.uint64)
        f = (word >> shift) & np.uint64((1 << chunk) - 1)
        second = words[:, 2 * k + 1] & np.uint64((1 << (chunk - 1)) - 1)
        draws += [f.astype(np.int64), second.astype(np.int64)]
    signs = (words[:, 2 * n, None] >> np.arange(2 * n, dtype=np.uint64)) & one
    return draws, signs.astype(np.int64)


def _transvect(t, v, n: int):
    """Transvection Z_t v = v + <t, v> t; t = 0 is the identity."""
    return v ^ (t * symplectic_inner(t, v, n))


def _level(n: int, k: int, first, second) -> tuple:
    """Level k's transvections ``(t1, t2, h0, Z_f or 0)`` from its two draws.

    The first draw is a nonzero string f on qubits k.. (low n - k bits x,
    next n - k bits z).  t1 and t2 map x_k to f (Koenig-Smolin Lemma 2); h0
    maps z_k to a string anticommuting with f picked by bits 1.. of the
    second draw, and bit 0 of the second draw drops the last step Z_f.
    """
    def on_qubits(v, k):
        return ((v & ((1 << (n - k)) - 1)) << k) | ((v >> (n - k)) << (n + k))

    f, x = on_qubits(first, k), np.int64(1) << k
    # z anticommutes with x = X_k and with f where they commute: Y_k, plus,
    # when f misses qubit k, an X or Y on f's lowest qubit that
    # anticommutes with f there
    support = (f | (f >> n)) & ((1 << n) - 1)
    low = support & -support
    y_k = x | (x << n)
    z = np.where(f & x, y_k, y_k | np.where(f & (f >> n) & low, low, low | (low << n)))
    anticommute, same = (f >> (n + k)) & 1, f == x
    t1 = np.where(same, 0, np.where(anticommute, x ^ f, x ^ z))
    t2 = np.where(same | (anticommute == 1), 0, z ^ f)
    h0 = _transvect(t2, _transvect(t1, x | on_qubits(second >> 1, k + 1), n), n)
    return t1, t2, h0, np.where(second & 1, 0, f)


def _apply_levels(n: int, rows: np.ndarray, levels, draws) -> np.ndarray:
    """Apply ``levels`` (ascending; ``draws`` holds their draw pairs in the
    same order) to ``(N, 2n)`` rows, the last level first."""
    for k, first, second in reversed(list(zip(levels, draws[0::2], draws[1::2]))):
        for t in _level(n, k, first, second):
            rows = _transvect(t[:, None], rows, n)
    return rows


def _tail_radices(n: int) -> tuple:
    """Radices of the draws ``(f - 1, second)`` of the last two levels (one
    level at n = 1), level n - 2 first: ``(15, 8, 3, 2)``."""
    return tuple(r for w in range(min(n, 2), 0, -1) for r in ((1 << 2 * w) - 1, 1 << (2 * w - 1)))


@functools.lru_cache(maxsize=None)
def _tail_table(n: int) -> np.ndarray:
    """Read-only ``(720, 2n)`` rows (``(6, 2)`` at n = 1) that the last two
    levels give from the identity, row i for the draws whose mixed radix
    over ``_tail_radices(n)`` is i; built by the sampler's own level code."""
    radices, tail = _tail_radices(n), max(n - 2, 0)
    draws = np.indices(radices, dtype=np.int64).reshape(len(radices), -1)
    draws[0::2] += 1  # a first draw f is its digit + 1
    rows = np.broadcast_to(np.int64(1) << np.arange(2 * n, dtype=np.int64), (draws.shape[1], 2 * n))
    table = _apply_levels(n, rows, range(tail, n), draws)
    table.flags.writeable = False
    return table


def symplectic_rows(n: int, draws) -> np.ndarray:
    """Packed rows ``(N, 2n)`` of N uniformly random elements of Sp(2n, 2).

    ``draws`` holds the 2n level arrays of ``_level_draws``; level k maps
    x_k to the nonzero string f of its first draw and z_k to a string
    anticommuting with f picked by its second (``_level``), and levels are
    composed from the last one down.  The last two levels (qubits n - 2 and
    n - 1) start from the identity, so their result is looked up in
    ``_tail_table(n)``, by the mixed radix ``((f₁ - 1)·8 + s₁)·6 + (f₂ - 1)·2
    + s₂`` of their draws (level n - 2 first; ``(f - 1)·2 + s`` at n = 1);
    levels n - 3 .. 0 follow by transvection.
    """
    tail = max(n - 2, 0)
    digits = [d - 1 if i % 2 == 0 else d for i, d in enumerate(draws[2 * tail:])]  # f - 1, second
    rows = _tail_table(n)[np.ravel_multi_index(digits, _tail_radices(n))]
    return _apply_levels(n, rows, range(tail), draws[:2 * tail])


def random_clifford_table(n: int, seeds, counts) -> tuple:
    """Packed image rows (int64) and phases (0 or 2, int8), each
    ``(sum(counts), 2n)``, of ``counts[k]`` uniformly random elements from
    each stream ``seeds[k]``, stream after stream: its i-th element from its
    words ``i (2n + 1)`` to ``(i + 1)(2n + 1) - 1``.  Streams are drawn in
    blocks of about ``_DRAW_ELEMENTS`` elements, which bounds the sampler's
    temporaries."""
    if not 1 <= n <= MAX_SAMPLED_QUBITS:
        raise ValueError(f"the sampler takes 1 <= n <= {MAX_SAMPLED_QUBITS} qubits")
    seeds = np.asarray(seeds, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.intp)
    ends = np.cumsum(counts)
    rows = np.empty((counts.sum(), 2 * n), dtype=np.int64)
    phases = np.empty(rows.shape, dtype=np.int8)
    # a block is the streams whose first element falls in one window
    firsts = np.flatnonzero(np.diff((ends - counts) // _DRAW_ELEMENTS, prepend=-1))
    for low, high in zip(firsts, [*firsts[1:], len(seeds)]):
        draws, signs = _level_draws(n, _clifford_words(n, seeds[low:high], counts[low:high]))
        block = slice(ends[low] - counts[low], ends[high - 1])
        rows[block] = symplectic_rows(n, draws)
        np.left_shift(signs, 1, out=phases[block])
    return rows, phases


def random_clifford_rows(n: int, seeds, size: int) -> tuple:
    """``random_clifford_table`` with ``size`` elements per stream, each
    ``(size, K, 2n)``, element-major: ``[i, k]`` is stream k's i-th element."""
    k = len(seeds)
    return tuple(a.reshape(k, size, 2 * n).swapaxes(0, 1)
                 for a in random_clifford_table(n, seeds, np.full(k, size)))


def random_clifford(n: int, rng: np.random.Generator) -> CliffordElement:
    """Exactly uniform sample from the n-qubit Clifford group (mod global phase):
    a uniformly random symplectic matrix dressed with 2n uniform signs, from
    the stream whose seed is one 64-bit draw from ``rng``."""
    rows, phases = random_clifford_rows(n, [rng.integers(1 << 64, dtype=np.uint64)], 1)
    return CliffordElement(n, rows[0, 0].tolist(), phases[0, 0].tolist())


# ---------------------------------------------------------------------------
# Stabilizer groups and the dense-matrix oracle
# ---------------------------------------------------------------------------


def stabilizer_generators(c: CliffordElement) -> list:
    """The n signed generators of the stabilizer group of ``C|0...0>``."""
    return [c.image_of_z(i) for i in range(c.n)]


def stabilizer_group(c: CliffordElement) -> list:
    """All 2^n signed stabilizers of ``C|0...0>``, identity first.

    Materialized fully only for small registers; use the generators beyond
    that.
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
