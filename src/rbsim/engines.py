"""Execution engine for noisy Clifford sequences.

``CompiledSequence`` computes, exactly, the expectation of every stabilizer
of the ideal output state after the noisy sequence; the acceptance
probability and the RB survival are means over them, and sampled mode is
one binomial draw.  The noise picks the path: for Pauli-diagonal noise
(``pauli``) the n Z-generators are pushed through each element's packed
rows (bit q = x_q, bit n+q = z_q; signs never enter) and each stabilizer
collects the channels' Pauli eigenvalues; for other noise (``dense``, n <= 6)
the expectations are read off ``run_sequence_exact``, also the tests'
oracle.  Both apply ``1 - 4p/3`` per touched qubit for ``meas_flip``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .cliffords import (
    CliffordElement,
    MAX_DENSE_QUBITS,
    _symplectic_inverse_rows,
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
    walsh_hadamard,
    zero_state,
)

__all__ = [
    "SequenceSpec",
    "run_sequence_exact",
    "survival_probability",
    "engine_for",
    "CompiledSequence",
]

# the Pauli engine holds a 4^n eigenvalue table per channel and enumerates
# the 2^n stabilizers after every element
MAX_TABLE_QUBITS = 8


def _normalize_element(n: int, entry) -> CliffordElement:
    if isinstance(entry, CliffordElement):
        if entry.n != n:
            raise ValueError("element register size mismatch")
        return entry
    return CliffordElement.from_gates(n, entry)


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
        self.elements = [_normalize_element(self.n, e) for e in self.elements]
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


def survival_probability(rho: np.ndarray, spam: SpamModel | None = None) -> float:
    """Probability that measuring every qubit of ``rho`` in Z returns all zeros,
    after the measurement channel and the per-qubit measurement flips."""
    spam = spam or SpamModel()
    n = rho.shape[0].bit_length() - 1
    diag = np.real(np.diag(apply_channel(spam.meas, rho)))
    # <Z_A> for every subset A of the qubits
    z_expectations = walsh_hadamard(diag)
    z_group = np.arange(1 << n, dtype=np.int64) << n
    return float(np.mean(z_expectations * _flip_factors(z_group, n, spam.meas_flip)))


# ---------------------------------------------------------------------------
# Stabilizer expectations of a compiled sequence
# ---------------------------------------------------------------------------


def _image(rows, v: int) -> int:
    """Unsigned image of packed Pauli ``v``: the XOR of the rows of its set bits."""
    acc = 0
    while v:
        low = v & -v
        acc ^= rows[low.bit_length() - 1]
        v ^= low
    return acc


def _spans(gens: np.ndarray, n: int) -> np.ndarray:
    """All XOR combinations of each row's n generators, subset index order."""
    groups = np.zeros((gens.shape[0], 1 << n), dtype=np.int64)
    for i in range(n):
        step = 1 << i
        groups[:, step:2 * step] = groups[:, :step] ^ gens[:, i:i + 1]
    return groups


class CompiledSequence:
    """Exact stabilizer expectations of one noisy sequence.

    ``propagate_faults()`` returns ``<s>`` for the 2^n stabilizers ``s`` of
    the ideal output state, identity first.  ``acceptance_probability`` and
    ``survival_probability`` average them; ``acceptance_samples`` and
    ``survival_samples`` draw the count of ``reps`` repetitions from that
    probability in one binomial draw, which has the law of ``reps``
    i.i.d. repetitions that each measure a uniformly drawn stabilizer.
    """

    def __init__(self, spec: SequenceSpec):
        self.n = spec.n
        self.spec = spec
        self.elements = list(spec.elements)
        self.channels = [spec.channel_for(i) for i in range(spec.m)]
        self.closed = False

    @property
    def engine(self) -> str:
        return engine_for(self.channels + [self.spec.spam.prep, self.spec.spam.meas])

    def append_inverse(self, channel: NoiseChannel):
        """Close the sequence: append the inverse of the ideal product as one
        more element, followed by ``channel``.

        The Pauli engine appends it without signs (the inverse up to a Pauli
        frame, which Pauli-diagonal noise cannot tell apart); the dense
        engine appends the signed inverse.
        """
        if self.closed:
            raise ValueError("the sequence is already closed")
        self.closed = True
        self.channels.append(channel)
        n = self.n
        if self.engine == "pauli":
            rows = [1 << b for b in range(2 * n)]
            for e in self.elements:
                rows = [_image(e.rows, v) for v in rows]
            rows = tuple(_symplectic_inverse_rows(rows, n))
            self.elements.append(CliffordElement._trusted(n, rows, (0,) * (2 * n)))
        else:
            self.elements.append(
                inverse(reduce(compose, self.elements, CliffordElement.identity(n))))

    def propagate_faults(self) -> np.ndarray:
        """Expectation of each stabilizer of the ideal output state (identity
        first), measurement flips included."""
        if self.engine == "pauli":
            group, expectations = self._pauli_expectations()
        else:
            group, expectations = self._dense_expectations()
        return expectations * _flip_factors(group, self.n, self.spec.spam.meas_flip)

    def _pauli_expectations(self):
        n = self.n
        if n > MAX_TABLE_QUBITS:
            raise ValueError(f"Pauli engine limited to n <= {MAX_TABLE_QUBITS}")
        gens = [1 << (n + q) for q in range(n)]
        track = [gens]
        for e in self.elements:
            gens = [_image(e.rows, g) for g in gens]
            track.append(gens)
        # row 0: the prepared state's stabilizers; row i: those after element i
        groups = _spans(np.array(track, dtype=np.int64), n)
        rows_of = {}
        for row, ch in [(0, self.spec.spam.prep), *enumerate(self.channels, 1),
                        (len(self.elements), self.spec.spam.meas)]:
            if not isinstance(ch, Ideal):
                rows_of.setdefault(id(ch), (ch, []))[1].append(row)
        expectations = np.ones(1 << n)
        for ch, rows in rows_of.values():
            expectations *= np.prod(pauli_eigenvalues(ch, n)[groups[rows]], axis=0)
        return groups[-1], expectations

    def _dense_expectations(self):
        spec = SequenceSpec(self.n, self.elements, self.channels, self.spec.spam)
        rho = apply_channel(spec.spam.meas, run_sequence_exact(spec))
        product = reduce(compose, self.elements, CliffordElement.identity(self.n))
        group = stabilizer_group(product)
        # Tr(s rho) = sum_ij conj(s_ij) rho_ij for each signed (Hermitian) stabilizer s
        expectations = np.array([np.real(np.vdot(s.to_matrix(), rho)) for s in group])
        return np.array([s.bits for s in group], dtype=np.int64), expectations

    def acceptance_probability(self, include_identity: bool = True) -> float:
        """Mean of ``(1 + <s>)/2`` over the stabilizers, with or without the
        identity (clipped to [0, 1] against round-off, as is the survival)."""
        expectations = self.propagate_faults()
        if not include_identity:
            expectations = expectations[1:]
        return float(np.clip(np.mean((1.0 + expectations) / 2.0), 0.0, 1.0))

    def survival_probability(self) -> float:
        """Mean ``<s>`` over the stabilizers: the fidelity with the ideal output
        state, after ``append_inverse`` the return-to-``|0..0>`` probability."""
        return float(np.clip(np.mean(self.propagate_faults()), 0.0, 1.0))

    def acceptance_samples(self, reps: int, rng: np.random.Generator,
                           include_identity: bool = True) -> int:
        """Accept count of ``reps`` repetitions, one fresh uniform stabilizer each."""
        return int(rng.binomial(reps, self.acceptance_probability(include_identity)))

    def survival_samples(self, reps: int, rng: np.random.Generator) -> int:
        """Return-to-``|0..0>`` count of ``reps`` repetitions."""
        return int(rng.binomial(reps, self.survival_probability()))
