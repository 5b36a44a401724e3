"""Execution engine for noisy Clifford sequences.

``CompiledSequence`` computes, exactly, the expectation of every stabilizer
of the ideal output state after each sequence of a ``SequenceBatch`` (K
sequences with one channel per position; a ``SequenceSpec`` is the batch of
one).  Acceptance and RB survival are means over them.  Sampled mode counts,
per sequence, the words of its repetition stream that fall below its
probability (``_binomials``): one Binomial(reps, p) draw, at O(reps) cost.
The noise picks the path.  For Pauli-diagonal noise (``pauli``) each
sequence carries its 2^n packed stabilizers (bit q = x_q, bit n+q = z_q;
signs never enter), starting from the Z group.  Every element's rows are
spanned into two half tables, the images of all 2^n x-halves and all 2^n
z-halves (a block of positions at a time); at each position a stabilizer's
image is one lookup per half, and it then collects the position's channel
eigenvalues, computed once per channel value.  The propagation through the
last element is kept, so the open sequence (RBSV acceptance) and the same
sequence closed by its inverse (RB survival) share it.  For other noise
(``dense``, n <= 6) each sequence's expectations are read off
``run_sequence_exact``, also the tests' oracle.  Both apply ``1 - 4p/3`` per
touched qubit for ``meas_flip``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .cliffords import (
    CliffordElement,
    MAX_DENSE_QUBITS,
    clifford_to_matrix,
    compose,
    inverse,
    stabilizer_group,
)
from .channels import (
    NoiseChannel,
    Ideal,
    SpamModel,
    apply_channel,
    pauli_eigenvalues,
    zero_state,
)
from .seeding import stream_words

__all__ = [
    "SequenceSpec",
    "run_sequence_exact",
    "engine_for",
    "SequenceBatch",
    "CompiledSequence",
]

# the Pauli engine holds a 4^n eigenvalue table per channel, the 2^n
# stabilizers of every sequence and, per sequence and position, two 2^n-entry
# half tables
MAX_TABLE_QUBITS = 8

# half-table words built at once: a block of positions, so that small batches
# pay few array calls per position while large ones stay cache-sized and the
# memory of a call stays bounded
_TABLE_WORDS = 1 << 14

# repetition words counted at once, for the same reason
_COUNT_WORDS = 1 << 16


@dataclass
class SequenceSpec:
    """A noisy Clifford sequence: elements plus one channel per element.

    ``noise`` may be a single channel (applied after every element) or a
    list with one channel per element.  ``elements`` entries may be
    CliffordElements or GeneratorGate lists.
    """

    n: int
    elements: list
    noise: NoiseChannel | list = field(default_factory=Ideal)
    spam: SpamModel = field(default_factory=SpamModel)

    def __post_init__(self):
        self.elements = [e if isinstance(e, CliffordElement)
                         else CliffordElement.from_gates(self.n, e) for e in self.elements]
        if any(e.n != self.n for e in self.elements):
            raise ValueError("element register size mismatch")
        if isinstance(self.noise, (list, tuple)):
            if len(self.noise) != len(self.elements):
                raise ValueError("need one noise channel per element")
            self.noise = list(self.noise)

    @property
    def m(self) -> int:
        return len(self.elements)

    def channel_for(self, i: int) -> NoiseChannel:
        return self.noise[i] if isinstance(self.noise, list) else self.noise


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
# Dense engine
# ---------------------------------------------------------------------------


def run_sequence_exact(spec: SequenceSpec) -> np.ndarray:
    """Exact output state (Λ_m ∘ C_m) ... (Λ_1 ∘ C_1) Λ_prep(|0..0><0..0|)."""
    if spec.n > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense engine limited to n <= {MAX_DENSE_QUBITS}; "
            "larger registers need Pauli-diagonal noise"
        )
    rho = apply_channel(spec.spam.prep, zero_state(spec.n))
    for i, element in enumerate(spec.elements):
        u = clifford_to_matrix(element)
        rho = u @ rho @ u.conj().T
        rho = apply_channel(spec.channel_for(i), rho)
    return rho


# ---------------------------------------------------------------------------
# Stabilizer expectations of a compiled batch
# ---------------------------------------------------------------------------


@dataclass
class SequenceBatch:
    """K noisy sequences of L positions that share one channel per position.

    ``elements[l, k]`` holds the 2n packed image rows of sequence k's element
    at position l (the layout of ``CliffordElement.rows``), ``phases[l, k]``
    their exponents of i; ``channels[l]`` acts after position l.
    """

    n: int
    elements: np.ndarray
    phases: np.ndarray
    channels: list
    spam: SpamModel = field(default_factory=SpamModel)

    @classmethod
    def of(cls, spec: SequenceSpec) -> "SequenceBatch":
        """The batch of one sequence."""
        rows, phases = (np.array([getattr(e, f) for e in spec.elements], dtype=np.int64)
                        .reshape(spec.m, 1, 2 * spec.n) for f in ("rows", "phases"))
        return cls(spec.n, rows, phases, [spec.channel_for(i) for i in range(spec.m)], spec.spam)

    def sequence(self, k: int) -> list:
        """The signed elements of sequence ``k``."""
        return [CliffordElement._trusted(self.n, tuple(rows), tuple(phases)) for rows, phases
                in zip(self.elements[:, k].tolist(), self.phases[:, k].tolist())]


@lru_cache(maxsize=8)
def _eigenvalues(ch: NoiseChannel, n: int) -> np.ndarray:
    """``pauli_eigenvalues``, computed once per channel value and register size."""
    table = pauli_eigenvalues(ch, n)
    table.flags.writeable = False
    return table


def _span(words: np.ndarray, n: int) -> np.ndarray:
    """The XOR of each subset of the n ``words`` on the last axis, in subset
    index order (bit j of the index selects ``words[..., j]``): ``(..., 2^n)``."""
    out = np.zeros(words.shape[:-1] + (1 << n,), dtype=np.int64)
    for j in range(n):
        out[..., 1 << j:2 << j] = out[..., :1 << j] ^ words[..., j, None]
    return out


def _binomials(reps: int, seeds, probabilities: np.ndarray) -> np.ndarray:
    """Per sequence k, the count of the first ``reps`` words of the stream
    seeded by ``seeds[k]`` whose top 53 bits lie below ``p_k 2^53``:
    Binomial(reps, p_k) with p_k rounded up to a multiple of 2^-53.  The
    words are counted ``_COUNT_WORDS`` at a time, so memory does not grow
    with ``reps``; the cost is O(reps) per sequence."""
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
    """Exact stabilizer expectations of a ``SequenceBatch`` (a ``SequenceSpec``
    is the batch of one).

    ``propagate_faults()`` gives each sequence's ``<s>`` for the 2^n
    stabilizers of its ideal output state; the probabilities average them,
    and the samples draw each sequence's count of ``reps`` repetitions from
    its own repetition stream with the binomial law of ``reps`` repetitions
    that each measure a uniformly drawn stabilizer.  The Pauli path keeps its
    propagation through the last element, so a readout after
    ``append_inverse`` multiplies only the closing channel, meas and flips
    onto the open sequence's.
    """

    def __init__(self, spec: SequenceSpec | SequenceBatch):
        self.batch = spec if isinstance(spec, SequenceBatch) else SequenceBatch.of(spec)
        self.n = spec.n
        self.channels = list(self.batch.channels)
        self.closed = False
        self._prefix = None  # the Pauli path's propagation through the last element
        self._tables = {}    # eigenvalue tables by channel identity: no value hash per position

    @property
    def engine(self) -> str:
        return engine_for(self.channels + [self.batch.spam.prep, self.batch.spam.meas])

    def append_inverse(self, channel: NoiseChannel):
        """Close every sequence: append the inverse of its ideal product as one
        more element, followed by ``channel``.

        The Pauli path needs no rows for it: the inverse without its signs (a
        Pauli frame, which Pauli-diagonal noise cannot tell apart) returns
        every stabilizer to the prepared Z group.  The dense path appends
        the signed inverse.
        """
        if self.closed:
            raise ValueError("the sequence is already closed")
        self.closed = True
        self.channels.append(channel)

    def propagate_faults(self) -> np.ndarray:
        """Expectation of each stabilizer of each sequence's ideal output state
        (``(K, 2^n)``, identity first), measurement flips included."""
        if self.engine == "pauli":
            group, factors = self._pauli_factors()
        else:
            group, expectations = self._dense_expectations()
            factors = [expectations]
        factors.append(_flip_factors(group, self.n, self.batch.spam.meas_flip))
        # multiplied in the order the noise acts; the first product is a new
        # array, so a kept prefix is never written
        expectations = factors[0] * factors[1]
        for factor in factors[2:]:
            expectations *= factor
        return expectations

    def _eigenvalues(self, ch: NoiseChannel) -> np.ndarray:
        if id(ch) not in self._tables:
            self._tables[id(ch)] = _eigenvalues(ch, self.n)
        return self._tables[id(ch)]

    def _pauli_factors(self):
        """The final group and the factors whose product, in order, is each
        stabilizer's expectation: the expectations through the last element,
        computed once per instance, then the closing and meas channels'
        eigenvalues."""
        if self._prefix is None:
            self._prefix = self._pauli_prefix()
        z_group, group, expectations = self._prefix
        tail = [self.batch.spam.meas]
        if self.closed:
            group = z_group
            tail.insert(0, self.channels[-1])
        return group, [expectations] + [self._eigenvalues(ch)[group] for ch in tail
                                        if not isinstance(ch, Ideal)]

    def _pauli_prefix(self):
        """The Z group, and each sequence's group and stabilizer expectations
        after the prep channel and every position with its channel."""
        n, batch = self.n, self.batch
        if n > MAX_TABLE_QUBITS:
            raise ValueError(f"Pauli engine limited to n <= {MAX_TABLE_QUBITS}")
        k_m = batch.elements.shape[1]
        size = 1 << n
        # a stabilizer group is the span of its n generators, in subset order;
        # the span is linear, so mapping every element of it keeps that order
        z_group = np.broadcast_to(_span(np.int64(1) << np.arange(n, 2 * n), n), (k_m, size))
        expectations = np.ones(z_group.shape)

        def collect(ch, group):  # a channel acts on the stabilizers of the state it follows
            if not isinstance(ch, Ideal):
                expectations[...] *= self._eigenvalues(ch)[group]

        collect(batch.spam.prep, z_group)
        # position l's half tables: sequence k's x-half table starts at
        # base[k], its z-half table at z_base[k]
        base = np.arange(k_m)[:, None] << (n + 1)
        z_base = base + size
        step = max(1, _TABLE_WORDS // (k_m << (n + 1)))
        group = z_group
        for start in range(0, len(batch.elements), step):
            block = batch.elements[start:start + step]
            halves = _span(block.reshape(len(block), k_m, 2, n), n).reshape(len(block), -1)
            for half, ch in zip(halves, self.channels[start:start + step]):
                group = half[base + (group & (size - 1))] ^ half[z_base + (group >> n)]
                collect(ch, group)
        return z_group, group, expectations

    def _dense_expectations(self):
        n, spam = self.n, self.batch.spam
        groups, expectations = [], []
        for k in range(self.batch.elements.shape[1]):
            elements = self.batch.sequence(k)
            product = reduce(compose, elements, CliffordElement.identity(n))
            if self.closed:
                elements.append(inverse(product))
                product = CliffordElement.identity(n)
            spec = SequenceSpec(n, elements, self.channels, spam)
            rho = apply_channel(spam.meas, run_sequence_exact(spec))
            group = stabilizer_group(product)
            # Tr(s rho) = sum_ij conj(s_ij) rho_ij for each signed (Hermitian) stabilizer s
            expectations.append([np.real(np.vdot(s.to_matrix(), rho)) for s in group])
            groups.append([s.bits for s in group])
        return np.array(groups, dtype=np.int64), np.array(expectations)

    def acceptance_probability(self, include_identity: bool = True) -> np.ndarray:
        """Per sequence, the mean of ``(1 + <s>)/2`` over the stabilizers, with
        or without the identity (clipped to [0, 1] against round-off, as is
        the survival)."""
        expectations = self.propagate_faults()
        if not include_identity:
            expectations = expectations[:, 1:]
        return np.clip(np.mean((1.0 + expectations) / 2.0, axis=1), 0.0, 1.0)

    def survival_probability(self) -> np.ndarray:
        """Per sequence, the mean ``<s>`` over the stabilizers: the fidelity with
        the ideal output state, after ``append_inverse`` the
        return-to-``|0..0>`` probability."""
        return np.clip(np.mean(self.propagate_faults(), axis=1), 0.0, 1.0)

    def acceptance_samples(self, reps: int, seeds, include_identity: bool = True) -> np.ndarray:
        """Per sequence, the accept count of ``reps`` repetitions, one fresh
        uniform stabilizer each, drawn from its repetition stream ``seeds[k]``."""
        return _binomials(reps, seeds, self.acceptance_probability(include_identity))

    def survival_samples(self, reps: int, seeds) -> np.ndarray:
        """Per sequence, the return-to-``|0..0>`` count of ``reps`` repetitions
        drawn from its repetition stream ``seeds[k]``."""
        return _binomials(reps, seeds, self.survival_probability())
