"""Execution backends for noisy Clifford sequences.

Two engines with matched semantics:

* an exact density-matrix engine (small registers, no shot noise), which
  is also the oracle the tests check the other engine against, and
* ``CompiledSequence``, a vectorized Pauli-fault trajectory engine
  (Pauli-diagonal noise only, cheap enough for large shot counts) that
  propagates a batch of packed fault indices through precomputed
  per-element conjugation tables.  The tables are built straight from each
  element's packed rows (the fault-index layout: bit q = x_q, bit n+q =
  z_q), and fault propagation is sign-blind, so the phases are not read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cliffords import (
    CliffordElement,
    MAX_DENSE_QUBITS,
    _symplectic_inverse_rows,
    clifford_to_matrix,
)
from .channels import (
    NoiseChannel,
    Ideal,
    SpamModel,
    apply_channel,
    fault_distribution,
    zero_state,
)

__all__ = [
    "SequenceSpec",
    "run_sequence_exact",
    "survival_probability",
    "CompiledSequence",
]

MAX_TABLE_QUBITS = 8

_PARITY_256 = np.array([bin(v).count("1") & 1 for v in range(256)], dtype=np.uint8)


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


# ---------------------------------------------------------------------------
# Exact engine
# ---------------------------------------------------------------------------


def run_sequence_exact(spec: SequenceSpec) -> np.ndarray:
    """Exact output state (Λ_m ∘ C_m) ... (Λ_1 ∘ C_1) Λ_prep(|0..0><0..0|)."""
    if spec.n > MAX_DENSE_QUBITS:
        raise ValueError(
            f"exact engine limited to n <= {MAX_DENSE_QUBITS}; use the trajectory engine"
        )
    rho = apply_channel(spec.spam.prep, zero_state(spec.n))
    for i, element in enumerate(spec.elements):
        u = clifford_to_matrix(element)
        rho = u @ rho @ u.conj().T
        rho = apply_channel(spec.channel_for(i), rho)
    return rho


def survival_probability(rho: np.ndarray, spam: SpamModel | None = None) -> float:
    """Return-to-start observable Tr(Λ_m(rho) |0..0><0..0|)."""
    spam = spam or SpamModel()
    out = apply_channel(spam.meas, rho)
    return float(np.real(out[0, 0]))


# ---------------------------------------------------------------------------
# Trajectory engine: vectorized batches on packed Pauli indices
# ---------------------------------------------------------------------------


def _conjugation_table(rows, n: int) -> np.ndarray:
    """Unsigned conjugation map on all 4^n packed Pauli indices.

    ``rows`` are the packed images of the 2n generators; the image of index
    ``f`` is the XOR of the rows of its set bits.
    """
    table = np.zeros(4 ** n, dtype=np.int64)
    for b in range(2 * n):
        step = 1 << b
        table[step:2 * step] = table[:step] ^ rows[b]
    return table


def _stabilizer_indices(rows: np.ndarray, n: int) -> np.ndarray:
    """Packed stabilizer group of product|0..0>: all XOR combinations of z-rows."""
    group = np.zeros(2 ** n, dtype=np.int64)
    for i in range(n):
        step = 1 << i
        group[step:2 * step] = group[:step] ^ rows[n + i]
    return group


def _anticommutation(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Symplectic parity between packed index arrays (1 = anticommute)."""
    mask = (1 << n) - 1
    t = ((a & mask) & (b >> n)) ^ ((a >> n) & (b & mask))
    out = np.zeros(t.shape, dtype=np.uint8)
    while True:
        out ^= _PARITY_256[t & 0xFF]
        t = t >> 8
        if not np.any(t):
            return out


class CompiledSequence:
    """Per-sequence precomputation for vectorized trajectory batches.

    Holds one unsigned conjugation table per element, built from the
    element's packed rows, the packed stabilizer group of the ideal product,
    and the fault CDF per element (computed once per distinct channel).
    """

    def __init__(self, spec: SequenceSpec):
        n = spec.n
        if n > MAX_TABLE_QUBITS:
            raise ValueError(f"batch trajectories limited to n <= {MAX_TABLE_QUBITS}")
        self.n = n
        self.spec = spec
        self.tables = [_conjugation_table(e.rows, n) for e in spec.elements]
        # ideal product as a GF(2) matrix on packed rows
        rows = 1 << np.arange(2 * n, dtype=np.int64)
        for t in self.tables:
            rows = t[rows]
        self.product_rows = rows
        self.stabilizer_indices = _stabilizer_indices(rows, n)
        self._cdfs = {}
        self._fault_cdfs = [self._cdf(spec.channel_for(i)) for i in range(spec.m)]
        self._prep_cdf = self._cdf_or_none(spec.spam.prep)
        self._meas_cdf = self._cdf_or_none(spec.spam.meas)

    def _cdf(self, ch: NoiseChannel) -> np.ndarray:
        """Fault CDF of a channel, computed once per channel object."""
        hit = self._cdfs.get(id(ch))
        if hit is None:
            # the channel is kept alongside so its id stays unique while cached
            hit = self._cdfs[id(ch)] = (ch, np.cumsum(fault_distribution(ch, self.n)))
        return hit[1]

    def _cdf_or_none(self, ch: NoiseChannel):
        return None if isinstance(ch, Ideal) else self._cdf(ch)

    def _sample_faults(self, cdf: np.ndarray, reps: int, rng: np.random.Generator) -> np.ndarray:
        return np.searchsorted(cdf, rng.random(reps), side="right").astype(np.int64)

    def propagate_faults(self, reps: int, rng: np.random.Generator) -> np.ndarray:
        """Cumulative packed fault after the full noisy sequence, per repetition."""
        f = np.zeros(reps, dtype=np.int64)
        if self._prep_cdf is not None:
            f ^= self._sample_faults(self._prep_cdf, reps, rng)
        for table, cdf in zip(self.tables, self._fault_cdfs):
            f = table[f]
            f ^= self._sample_faults(cdf, reps, rng)
        if self._meas_cdf is not None:
            f ^= self._sample_faults(self._meas_cdf, reps, rng)
        return f

    def _measurement_flips(self, s_idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorized per-qubit X/Y/Z flip parity for per-repetition stabilizers."""
        p = self.spec.spam.meas_flip
        reps = s_idx.size
        flips = np.zeros(reps, dtype=np.uint8)
        events = rng.random((reps, self.n)) < p
        codes = rng.integers(1, 4, size=(reps, self.n))  # 1=X, 2=Z, 3=Y
        for q in range(self.n):
            sx = (s_idx >> q) & 1
            sz = (s_idx >> (self.n + q)) & 1
            touched = (sx | sz).astype(bool)
            ex = codes[:, q] & 1
            ez = codes[:, q] >> 1
            anti = ((ex & sz) ^ (ez & sx)).astype(bool)
            flips ^= (events[:, q] & touched & anti).astype(np.uint8)
        return flips

    def acceptance_samples(self, reps: int, rng: np.random.Generator,
                           include_identity: bool = True) -> np.ndarray:
        """Accept/reject samples, one fresh uniform stabilizer per repetition."""
        f = self.propagate_faults(reps, rng)
        group = self.stabilizer_indices
        if include_identity:
            picks = rng.integers(0, group.size, size=reps)
        else:
            picks = rng.integers(1, group.size, size=reps)
        s_idx = group[picks]
        accept = _anticommutation(f, s_idx, self.n) == 0
        if self.spec.spam.meas_flip:
            accept ^= self._measurement_flips(s_idx, rng).astype(bool)
        return accept

    def append_inverse(self, channel: NoiseChannel):
        """Append the (unsigned) inverse of the current product as one more
        noisy element, turning the ideal circuit into the identity."""
        n = self.n
        table = _conjugation_table(_symplectic_inverse_rows(self.product_rows.tolist(), n), n)
        self.tables.append(table)
        self._fault_cdfs.append(self._cdf(channel))
        self.product_rows = table[self.product_rows]
        self.stabilizer_indices = _stabilizer_indices(self.product_rows, n)

    def survival_samples(self, reps: int, rng: np.random.Generator) -> np.ndarray:
        """Return-to-|0..0> samples (the plain-RB observable)."""
        f = self.propagate_faults(reps, rng)
        fx = f & ((1 << self.n) - 1)
        if self.spec.spam.meas_flip:
            # measuring Z on every qubit: X or Y errors flip that qubit's outcome
            events = rng.random((reps, self.n)) < self.spec.spam.meas_flip
            codes = rng.integers(1, 4, size=(reps, self.n))
            for q in range(self.n):
                fx ^= (events[:, q] & ((codes[:, q] & 1) == 1)).astype(np.int64) << q
        return fx == 0
