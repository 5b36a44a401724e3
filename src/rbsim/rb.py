"""Standard Clifford randomized benchmarking (with inverse step) and the
generator-sequence variant; produces per-length average survival data.

A run draws the elements of every sequence of every length in one pass and
compiles them into one ``SequenceBatch``, end-aligned: ordered longest
first, a sequence of L_k positions starts at position L - L_k, so the
sequences under way at any position are a prefix of the batch and all of
them close at the last one.  Each sequence still draws only from its own
streams, so its survival does not depend on the others.

Every fitted per-length curve of the drivers is an ``RBData``: survivals
here and in ``irbgs``, fidelity bounds in ``rbsv``.  ``RBData.fitted`` is
the one fit rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channels import NoiseModel
from .cliffords import MAX_DENSE_QUBITS, CliffordElement, GeneratorGate, random_clifford_table
from .engines import MAX_TABLE_QUBITS, CompiledSequence, SequenceBatch, engine_for
from .fitting import DecayFit, fit_decay, r_from_p
from .seeding import redraw, run_ensemble, stream_rows

__all__ = ["RBConfig", "RBData", "run_standard_rb"]

# a per-length standard error at or below this is floating-point round-off
# (exact mode with sequence-independent values), not a statistical spread
ROUNDOFF_STDERR = 1e-12


def fit_lengths(lengths) -> tuple:
    """``lengths`` as ints, each m >= 1, with the 3 distinct ones a fit needs;
    a length that is not integral raises rather than being truncated."""
    given = tuple(lengths)
    lengths = tuple(int(m) for m in given)
    if lengths != given:
        raise ValueError(f"lengths must be integers, not {list(given)}")
    if not lengths or any(m < 1 for m in lengths):
        raise ValueError("lengths must be a non-empty list of m >= 1")
    if len(set(lengths)) < 3:
        raise ValueError("need at least 3 points with 3 distinct lengths")
    return lengths


@dataclass(frozen=True)
class RBConfig:
    """Configuration shared by the benchmarking drivers.

    ``k_m`` is the number of random sequences per length, ``shots`` the
    repetitions per sequence in sampled mode.  ``mode`` selects full-Clifford
    elements or blocks of ``generator_block`` uniformly random generator
    gates per fitted element.
    """

    n: int
    lengths: tuple
    k_m: int = 100
    shots: int = 100
    exact: bool = False
    noise: NoiseModel = field(default_factory=NoiseModel)
    mode: str = "clifford"
    generator_block: int = 10
    seed: int = 0
    fit_strategy: str = "auto"

    def __post_init__(self):
        object.__setattr__(self, "lengths", fit_lengths(self.lengths))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k_m < 1:
            raise ValueError("k_m must be >= 1")
        if not self.exact and self.shots < 1:
            raise ValueError("shots must be >= 1 in sampled mode")
        if self.mode not in ("clifford", "generator"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "generator" and self.generator_block < 1:
            raise ValueError("generator mode requires a block length b >= 1")
        if self.fit_strategy not in ("auto", "box", "free"):
            raise ValueError(f"unknown fit strategy {self.fit_strategy!r}")
        engine = engine_for(self.noise.channels)
        limit = MAX_TABLE_QUBITS if engine == "pauli" else MAX_DENSE_QUBITS
        if self.n > limit:
            raise ValueError(f"n = {self.n} exceeds the {engine} engine's limit of {limit} qubits")


@dataclass
class RBData:
    """A fitted per-length curve: the per-length mean and standard error of
    per-sequence values (RB survivals, RBSV fidelity bounds) and the decay
    fit A0 + B0 p^m of the means, with the infidelity r read off p."""

    lengths: list
    mean: np.ndarray
    stderr: np.ndarray
    per_sequence: np.ndarray  # (L, K), one row of per-sequence values per length
    engine: str  # "pauli" or "dense", see engines.engine_for
    fit: DecayFit
    r: float

    @classmethod
    def fitted(cls, config: RBConfig, per_sequence, engine: str | None = None) -> "RBData":
        """The curve of ``(L, K)`` values run under ``config`` (by default on
        its noise's engine), fitted by the drivers' one rule (d = 2^n).

        ``config.fit_strategy`` bounds the coefficients: ``auto`` pins A0 to
        its no-SPAM value 1/d when the SPAM model is trivial (a
        three-parameter exponential is not identifiable on a shallow decay
        arc) and else boxes A0 and B0 to [0, 1], the scale of survivals and
        fidelity bounds; ``box`` always boxes; ``free`` leaves them free.
        The means are weighted by 1/stderr^2 only when every stderr is above
        round-off.
        """
        per_sequence = np.asarray(per_sequence, dtype=float)
        k = per_sequence.shape[1]
        mean = per_sequence.mean(axis=1)
        stderr = per_sequence.std(axis=1, ddof=1) / np.sqrt(k) if k > 1 else np.zeros(len(mean))
        d = 2 ** config.n
        bounds = ((0.0, 1.0), (0.0, 1.0))
        if config.fit_strategy == "free":
            bounds = None
        elif config.fit_strategy == "auto" and config.noise.spam.is_trivial:
            bounds = ((1.0 / d, 1.0 / d), (0.0, 1.0))
        weights = 1.0 / stderr ** 2 if np.all(stderr > ROUNDOFF_STDERR) else None
        fit = fit_decay(zip(config.lengths, mean), weights=weights, coefficient_bounds=bounds)
        return cls(lengths=list(config.lengths), mean=mean, stderr=stderr,
                   per_sequence=per_sequence, engine=engine or engine_for(config.noise.channels),
                   fit=fit, r=r_from_p(fit.p, d))


def generator_gate_set(n: int) -> list:
    """The inversion-closed generating set {H_i, P_i, P†_i, CNOT_ij}."""
    gates = []
    for q in range(n):
        gates += [GeneratorGate("H", (q,)), GeneratorGate("P", (q,)), GeneratorGate("PDAG", (q,))]
    for c in range(n):
        for t in range(n):
            if c != t:
                gates.append(GeneratorGate("CNOT", (c, t)))
    return gates


@lru_cache(maxsize=None)
def _generator_table(n: int) -> tuple:
    """Packed rows and phases ``(G, 2n)`` of the gates of ``generator_gate_set(n)``."""
    gates = [CliffordElement.from_gates(n, [g]) for g in generator_gate_set(n)]
    rows, phases = (np.array([getattr(g, f) for g in gates], dtype=np.int64)
                    for f in ("rows", "phases"))
    rows.flags.writeable = phases.flags.writeable = False  # shared by every caller
    return rows, phases


def _end_aligned(spans: np.ndarray) -> np.ndarray:
    """``(L, K)`` indices, L = max(spans), into the positions of K sequences
    laid out one after another (sequence k's ``spans[k]`` of them): sequence
    k's at positions L - spans[k] .. L - 1, -1 before it starts."""
    length = spans.max()
    position = np.arange(length)[:, None] - (length - spans)
    waiting = position < 0
    position += np.cumsum(spans) - spans
    position[waiting] = -1
    return position


def _draw_elements(config: RBConfig, lengths, seeds) -> tuple:
    """One sequence per element stream in ``seeds``, of ``lengths[k]``
    elements (one length for all, or one per stream, longest first), as a
    ``SequenceBatch``'s table: packed rows and phases ``(T, 2n)`` and the
    ``(L, K)`` end-aligned row each sequence picks at each position (-1
    before it starts).  Clifford mode draws ``lengths[k]`` random Cliffords
    per stream, one table row each, stream after stream; generator mode
    picks ``generator_block`` gates per element (L_k = m_k b) from the G
    gates of ``generator_gate_set``.

    Generator gate l of a stream is its word l mod G; a word at or above
    2^64 - (2^64 mod G) is refilled by ``seeding.redraw``, so each pick is
    exactly uniform.
    """
    lengths = np.broadcast_to(np.asarray(lengths, dtype=np.int64), (len(seeds),))
    if config.mode == "clifford":
        rows, phases = random_clifford_table(config.n, seeds, lengths)
        return rows, phases, _end_aligned(lengths)
    table_rows, table_phases = _generator_table(config.n)
    g = len(table_rows)
    last = np.uint64((1 << 64) - (1 << 64) % g - 1)  # the last word kept
    words = redraw(seeds, stream_rows(seeds, lengths, config.generator_block),
                   lambda w, cols: w <= last, lengths)
    words %= np.uint64(g)
    at = _end_aligned(lengths * config.generator_block)
    picks = words.view(np.int64).ravel()[at]  # every pick is below G: the same value
    picks[at < 0] = -1
    return table_rows, table_phases, picks


def _compile(config: RBConfig, rows: np.ndarray, phases: np.ndarray, picks: np.ndarray,
             channels=None, close: bool = False) -> CompiledSequence:
    """The drawn sequences (a table and its ``(L, K)`` picks, see
    ``_draw_elements``) as one compiled batch, with one channel per position
    (default: the gate channel everywhere) and the config's SPAM; with
    ``close``, each closed by the inverse of its product and the gate channel."""
    channels = channels or [config.noise.gate] * len(picks)
    compiled = CompiledSequence(SequenceBatch(config.n, rows, phases, picks, channels,
                                              config.noise.spam))
    if close:
        compiled.append_inverse(config.noise.gate)
    return compiled


def _survivals(config: RBConfig, compiled: CompiledSequence, seeds) -> np.ndarray:
    """Survival of each closed sequence of ``compiled``: exact, or the
    surviving fraction of ``config.shots`` repetitions drawn from its
    repetition stream ``seeds[k]``."""
    if config.exact:
        return compiled.survival_probability()
    return compiled.survival_samples(config.shots, seeds) / config.shots


def run_standard_rb(config: RBConfig) -> RBData:
    """Run the full protocol, average survival over k_m sequences per length
    and fit the decay.

    Every sequence of every length is drawn, propagated and counted in one
    batch (``seeding.run_ensemble``).  Each sequence's survival is exact in
    exact mode and, in sampled mode, the count of ``shots`` repetitions drawn
    from its repetition stream.  The inverse element carries one noise
    application.
    """

    def run_units(lengths, seeds, units):
        compiled = _compile(config, *_draw_elements(config, lengths, seeds[0]), close=True)
        return _survivals(config, compiled, seeds[1])

    return RBData.fitted(config, run_ensemble(config.seed, config.lengths, config.k_m, run_units))
