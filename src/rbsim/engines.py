"""Execution engine for noisy Clifford sequences.

``CompiledSequence`` computes, exactly, the expectation of every stabilizer
of the ideal output state after each sequence of a ``SequenceBatch`` (K
sequences with one channel per position), the engine's one input.
Acceptance and RB survival are means over them.  Sampled mode counts,
per sequence, the words of its repetition stream that fall below its
probability (``_binomials``): one Binomial(reps, p) draw, at O(reps) cost.
The sequences of a batch may differ in length: end-aligned and longest
first, those under way at a position are a prefix of the batch, and only
they are stepped.  They are propagated a block at a time, so that the
engine's state stays within ``_STATE_WORDS`` tracked Paulis whatever K.

A batch is a table of element rows plus, per position and sequence, the
table row that sequence applies there: one row per drawn Clifford, or one
per generator gate however many sequences and positions pick it.  The engine
works in the Pauli basis, in the frame of each sequence's ideal product U:
for packed Paulis b (bit q = x_q, bit n+q = z_q) it carries the image
``U P_b U† = i^e P_g``, one lookup per half in the two half tables spanned
from the picked row, and the coefficient ``Tr(U P_b U† rho)``.
A Pauli-diagonal channel scales a coefficient by its eigenvalue at the
image, so Pauli-diagonal noise (``pauli``) tracks only the Z group, whose
coefficients are the stabilizer expectations, with no signs.  Other noise
(``dense``, n <= 6) tracks all 4^n Paulis and e: its channels act
(``channels.pauli_action``) on the signed coefficients scattered to the
images, which are then gathered back.  The inverse returns every image to
its Pauli, so the open (RBSV) and the closed (RB) sequence share the
propagation.  ``run_sequence_exact`` is the dense state of one sequence of
a batch, the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cliffords import CliffordElement, MAX_DENSE_QUBITS, clifford_to_matrix
from .channels import (NoiseChannel, Ideal, SpamModel, apply_channel, pauli_action,
                       pauli_eigenvalues, zero_state)
from .paulis import packed_phase_exponent
from .seeding import stream_words

__all__ = ["run_sequence_exact", "engine_for", "SequenceBatch", "CompiledSequence"]

# the engine holds a 4^n eigenvalue table per channel, the 2^n stabilizers of
# every sequence and, per table row in use, two 2^n-entry half tables (noise
# that is not Pauli-diagonal: 4^n Paulis, up to ``MAX_DENSE_QUBITS``)
MAX_TABLE_QUBITS = 8

# half-table words built at once: the rows of a block of positions, so that
# small batches pay few array calls per position while large ones stay
# cache-sized and bounded
_TABLE_WORDS = 1 << 14

# repetition words counted at once, for the same reason
_COUNT_WORDS = 1 << 13

# tracked Paulis (sequences x Paulis per sequence) propagated at once: bounds
# the engine's state whatever the number and the length of the sequences
_STATE_WORDS = 1 << 13


def engine_for(channels) -> str:
    """``"pauli"`` when every channel is Pauli-diagonal, else ``"dense"``."""
    return "pauli" if all(ch.is_pauli_diagonal for ch in channels) else "dense"


def _flip_factors(group: np.ndarray, n: int, p: float) -> np.ndarray:
    """``(1 - 4p/3)`` per qubit each packed stabilizer touches: per-qubit
    depolarizing flips with probability ``p`` before the measurement."""
    touched = group | (group >> n)
    weight = sum((touched >> q) & 1 for q in range(n))
    return (1.0 - 4.0 * p / 3.0) ** weight


# ---------------------------------------------------------------------------
# Dense state of one sequence
# ---------------------------------------------------------------------------


def run_sequence_exact(batch: SequenceBatch, k: int = 0) -> np.ndarray:
    """Exact output state (Λ_m ∘ C_m) ... (Λ_1 ∘ C_1) Λ_prep(|0..0><0..0|) of
    sequence ``k`` of ``batch``: its elements and the channels of their positions."""
    if batch.n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense state limited to n <= {MAX_DENSE_QUBITS}")
    rho = apply_channel(batch.spam.prep, zero_state(batch.n))
    for t, ch in zip(batch.elements[:, k].tolist(), batch.channels):
        if t < 0:  # before an end-aligned sequence starts
            continue
        u = clifford_to_matrix(CliffordElement(batch.n, batch.rows[t], batch.phases[t]))
        rho = apply_channel(ch, u @ rho @ u.conj().T)
    return rho


# ---------------------------------------------------------------------------
# Stabilizer expectations of a compiled batch
# ---------------------------------------------------------------------------


@dataclass
class SequenceBatch:
    """K noisy sequences of L positions that share one channel per position.

    ``rows[t]`` holds the 2n packed image rows of table entry t (the layout
    of ``CliffordElement.rows``), ``phases[t]`` their exponents of i;
    ``elements[l, k]`` is the entry sequence k applies at position l, and
    ``channels[l]`` acts after position l.  Sequences may be shorter than L:
    ``elements[l, k]`` is -1 before sequence k starts, and they are
    end-aligned, longest first, so that the sequences under way at any
    position are a prefix of the batch and all of them end at position L - 1.
    """

    n: int
    rows: np.ndarray      # (T, 2n)
    phases: np.ndarray    # (T, 2n)
    elements: np.ndarray  # (L, K) table indices
    channels: list
    spam: SpamModel = field(default_factory=SpamModel)

    def __post_init__(self):
        table = (len(self.rows), 2 * self.n)
        if np.shape(self.rows) != table or np.shape(self.phases) != table:
            raise ValueError(f"rows and phases must be (T, 2n) = (T, {2 * self.n})")
        if len(self.channels) != len(self.elements):
            raise ValueError("need one noise channel per position")


@lru_cache(maxsize=8)
def _eigenvalues(ch: NoiseChannel, n: int) -> np.ndarray:
    """``pauli_eigenvalues``, computed once per channel value and register size."""
    table = pauli_eigenvalues(ch, n)
    table.flags.writeable = False
    return table


def _span(words: np.ndarray, n: int, phases: np.ndarray | None = None):
    """The XOR of each subset of the n ``words`` on the last axis, in subset
    index order (bit j of the index selects ``words[..., j]``): ``(..., 2^n)``;
    with the words' ``phases``, also each ascending product's exponent of i."""
    out = np.zeros(words.shape[:-1] + (1 << n,), dtype=np.int64)
    out_phases = None if phases is None else np.zeros_like(out)
    for j in range(n):
        low, word = out[..., :1 << j], words[..., j, None]
        if phases is not None:
            out_phases[..., 1 << j:2 << j] = (out_phases[..., :1 << j] + phases[..., j, None]
                                              + packed_phase_exponent(low, word, n))
        out[..., 1 << j:2 << j] = low ^ word
    return out if phases is None else (out, out_phases)


def _halves(rows: np.ndarray, phases: np.ndarray | None, n: int) -> tuple:
    """The x- and z-half tables of every element in ``rows`` (``(..., 2n)``),
    flat, element after element, and given ``phases``, their exponents of i."""
    rows = rows.reshape(-1, 2, n)
    if phases is None:
        return _span(rows, n).ravel(), None
    return tuple(t.ravel() for t in _span(rows, n, phases.reshape(rows.shape)))


def _started(elements: np.ndarray) -> np.ndarray:
    """Per position, the number of sequences under way: the end-aligned layout
    of ``SequenceBatch``, checked."""
    started = elements >= 0
    widths = started.sum(axis=1)
    if np.any(np.diff(widths) < 0) or not np.array_equal(
            started, np.arange(elements.shape[1]) < widths[:, None]):
        raise ValueError("sequences must be end-aligned, longest first")
    return widths


def _binomials(reps: int, seeds, probabilities: np.ndarray) -> np.ndarray:
    """Per sequence k, the count of the first ``reps`` words of the stream
    seeded by ``seeds[k]`` whose top 53 bits lie below ``p_k 2^53``:
    Binomial(reps, p_k) with p_k rounded up to a multiple of 2^-53, counted
    ``_COUNT_WORDS`` at a time so that memory does not grow with ``reps``."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.shape != probabilities.shape:
        raise ValueError("need one stream seed per sequence")
    threshold = np.ceil(probabilities * 2.0 ** 53).astype(np.uint64)[:, None]
    counts = np.zeros(len(seeds), dtype=np.int64)
    step = max(1, _COUNT_WORDS // len(seeds))
    for start in range(0, reps, step):
        words = stream_words(seeds, start, min(step, reps - start))
        counts += np.count_nonzero(words >> np.uint64(11) < threshold, axis=1)
    return counts


class CompiledSequence:
    """Exact stabilizer expectations of a ``SequenceBatch``.

    ``propagate_faults()`` gives each sequence's ``<s>`` for the 2^n
    stabilizers of its ideal output state; the probabilities average them,
    and the samples draw each sequence's count of ``reps`` repetitions, each
    measuring a uniformly drawn stabilizer, from its own repetition stream.
    Acceptance always reads the open sequences, survival the sequences as
    they stand (closed after ``append_inverse``), so a batch closed before
    its first readout gives both from one propagation.
    """

    def __init__(self, batch: SequenceBatch):
        self.batch = batch
        self.n = batch.n
        self.channels = list(self.batch.channels)
        self.closed = False
        self._engine = None  # the engine of the cached readouts
        self._readouts = {}  # open (False) and closed (True) readouts, see _readout
        self._tables = {}    # eigenvalues or pauli_action by channel identity: no value hash

    @property
    def engine(self) -> str:
        return engine_for(self.channels + [self.batch.spam.prep, self.batch.spam.meas])

    def append_inverse(self, channel: NoiseChannel):
        """Close every sequence: append the inverse of its ideal product as one
        more element, followed by ``channel``.  It needs no rows: the inverse
        returns every tracked Pauli's image to the Pauli itself."""
        if self.closed:
            raise ValueError("the sequence is already closed")
        self.closed = True
        self.channels.append(channel)

    def propagate_faults(self) -> np.ndarray:
        """Expectation of each stabilizer of each sequence's ideal output state
        (``(K, 2^n)``, identity first), measurement flips included."""
        return self._expectations(self.closed)

    def _expectations(self, closed: bool) -> np.ndarray:
        group, expectations = self._readout(closed)
        # a new array: the cached readout is never written
        return expectations * _flip_factors(group, self.n, self.batch.spam.meas_flip)

    def _readout(self, closed: bool):
        """Each open or closed sequence's packed stabilizer group and their
        expectations before the flips.  One propagation per engine reads out
        the open sequences and, once the batch is closed, the closed ones."""
        engine = self.engine
        if self._engine != engine or closed not in self._readouts:
            self._engine, self._readouts = engine, self._propagate(engine == "dense")
        return self._readouts[closed]

    def _apply(self, ch: NoiseChannel, group, phases, coefficients) -> np.ndarray:
        """``coefficients`` on the images ``i^phases P_group`` after ``ch``, as
        a new array unless ``ch`` is ideal."""
        if isinstance(ch, Ideal):
            return coefficients
        if id(ch) not in self._tables:
            self._tables[id(ch)] = (_eigenvalues(ch, self.n) if ch.is_pauli_diagonal
                                    else pauli_action(ch, self.n))
        table = self._tables[id(ch)]
        if ch.is_pauli_diagonal:
            return coefficients * table[group]
        sign = 1 - (phases & 2)
        lab = np.empty_like(coefficients)
        np.put_along_axis(lab, group, sign * coefficients, axis=1)
        for stage in table:
            lab = sum(weights * lab[:, sources] for sources, weights in stage)
        return sign * np.take_along_axis(lab, group, axis=1)

    def _propagate(self, signed: bool) -> dict:
        """The open (key False) and, once closed, the closed (True) readouts:
        each sequence's Z group and its coefficients after the meas channel.

        Each sequence tracks the Z group's Paulis, or all 4^n when ``signed``,
        through prep and its positions: their images, exponents of i (signed
        only) and coefficients.  Sequences are propagated ``_STATE_WORDS``
        tracked Paulis at a time, and the sequences of a block under way at a
        position are a prefix of it (``_started``), which alone is stepped.
        """
        n, batch = self.n, self.batch
        if n > (limit := MAX_DENSE_QUBITS if signed else MAX_TABLE_QUBITS):
            raise ValueError(f"{self.engine} engine limited to n <= {limit}")
        size = 1 << n
        elements = batch.elements
        length, count = elements.shape
        widths = _started(elements)
        # a stabilizer group is the span of its n generators, in subset order;
        # the span is linear, so mapping every element of it keeps that order
        z_group = _span(np.int64(1) << np.arange(n, 2 * n), n)
        paulis = np.arange(size * size) if signed else z_group
        z_columns = z_group if signed else slice(None)
        block = max(1, min(count, _STATE_WORDS // paulis.size))
        # row t's x-half table starts at word t << (n + 1), its z-half table
        # 2^n words later.  A table no larger than a block of positions' rows,
        # or than one 4^n eigenvalue table (the generator gates' always), is
        # spanned once; any other, one block's picked rows at a time
        step = max(1, _TABLE_WORDS // (block << (n + 1)))
        whole = len(batch.rows) <= max(step * block, size >> 1)
        if whole:
            halves = _halves(batch.rows, batch.phases if signed else None, n)
        tails = {False: [batch.spam.meas]}
        if self.closed:  # every image back at its Pauli, unsigned
            tails[True] = [self.channels[-1], batch.spam.meas]
        readouts = {closed: (np.empty((count, size), dtype=np.int64), np.empty((count, size)))
                    for closed in tails}
        for low in range(0, count, block):
            high = min(low + block, count)
            tracked = np.broadcast_to(paulis, (high - low, paulis.size))
            group = tracked.copy()
            phases = np.zeros(group.shape, dtype=np.int64) if signed else None
            # |0..0><0..0| has coefficient 1 on the Z group, 0 elsewhere
            coefficients = self._apply(batch.spam.prep, group, phases,
                                       (group & (size - 1) == 0).astype(float))
            active = np.clip(widths - low, 0, high - low)
            for start in range(np.searchsorted(widths, low, side="right"), length, step):
                stop = min(start + step, length)
                picks = elements[start:stop, low:high]
                picks = picks[picks >= 0]  # each position's prefix, position-major
                if whole:
                    bases = picks << (n + 1)
                else:
                    halves = _halves(batch.rows.take(picks, axis=0),
                                     batch.phases.take(picks, axis=0) if signed else None, n)
                    bases = np.arange(len(picks)) << (n + 1)
                half, half_phases = halves
                widths_here = active[start:stop]
                for first, w, ch in zip(np.cumsum(widths_here) - widths_here, widths_here,
                                        self.channels[start:stop]):
                    x_base = bases[first:first + w, None]
                    x, z = group[:w] & (size - 1), group[:w] >> n
                    if signed:
                        # P_g = i^popcount(x & z) X^x Z^z: its image is the halves' product
                        y = np.bitwise_count(x & z)
                    x += x_base  # the two halves' addresses in the table
                    z += x_base + size
                    x_image, z_image = half[x], half[z]
                    if signed:
                        phases[:w] += (half_phases[x] + half_phases[z] + y
                                       + packed_phase_exponent(x_image, z_image, n))
                    np.bitwise_xor(x_image, z_image, out=group[:w])
                    coefficients[:w] = self._apply(ch, group[:w], None if phases is None
                                                   else phases[:w], coefficients[:w])
            for closed, tail in tails.items():
                images, signs = (tracked, 0) if closed else (group, phases)
                out = coefficients
                for ch in tail:
                    out = self._apply(ch, images, signs, out)
                readout_group, readout = readouts[closed]
                readout_group[low:high] = images[:, z_columns]
                readout[low:high] = out[:, z_columns]
        return readouts

    def acceptance_probability(self, include_identity: bool = True) -> np.ndarray:
        """Per open sequence, the mean of ``(1 + <s>)/2`` over the stabilizers,
        with or without the identity (clipped to [0, 1] against round-off, as
        is the survival)."""
        expectations = self._expectations(False)
        if not include_identity:
            expectations = expectations[:, 1:]
        return np.clip(np.mean((1.0 + expectations) / 2.0, axis=1), 0.0, 1.0)

    def survival_probability(self) -> np.ndarray:
        """Per sequence, the mean ``<s>`` over the stabilizers: the fidelity with
        the ideal output state, after ``append_inverse`` the
        return-to-``|0..0>`` probability."""
        return np.clip(np.mean(self.propagate_faults(), axis=1), 0.0, 1.0)

    def acceptance_samples(self, reps: int, seeds, include_identity: bool = True) -> np.ndarray:
        """Per open sequence, the accept count of ``reps`` repetitions, one fresh
        uniform stabilizer each, drawn from its repetition stream ``seeds[k]``."""
        return _binomials(reps, seeds, self.acceptance_probability(include_identity))

    def survival_samples(self, reps: int, seeds) -> np.ndarray:
        """Per sequence, the return-to-``|0..0>`` count of ``reps`` repetitions
        drawn from its repetition stream ``seeds[k]``."""
        return _binomials(reps, seeds, self.survival_probability())
