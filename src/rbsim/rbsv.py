"""Inverse-free randomized benchmarking via stabilizer verification.

For each random sequence the driver estimates the acceptance probability of
a single-copy stabilizer measurement, exponentiates it to the chosen copy
count R and converts it to a fidelity lower bound.  The bounds are a fitted
per-length curve like any other, an ``rb.RBData`` (``RBData.fitted``).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rb import RBConfig, RBData, _compile, _draw_elements, _survivals
from .seeding import run_ensemble

__all__ = [
    "FailureSignatureError",
    "RBSVResult",
    "RPolicy",
    "RBSVConfig",
    "fidelity_lower_bound",
    "optimal_copies",
    "run_rbsv",
    "DEFAULT_COPY_CAP",
]

DEFAULT_COPY_CAP = 1.0e4


class FailureSignatureError(RuntimeError):
    """Acceptance hit zero: the device is too noisy for verification to proceed."""


def fidelity_lower_bound(p_acc: float, r_copies: float) -> float:
    """Lower bound 1 - 1/(p_acc^R * R) on the average sequence fidelity.

    May be negative (vacuous but valid) for small acceptance.  Raises
    ``FailureSignatureError`` when the acceptance is zero, or when
    ``p_acc^R`` underflows so far that the bound overflows.
    """
    if r_copies <= 0:
        raise ValueError("copy count must be positive")
    if p_acc < 0 or p_acc > 1:
        raise ValueError("acceptance probability outside [0, 1]")
    if p_acc == 0.0:
        raise FailureSignatureError(
            "acceptance probability is zero; too noisy to verify"
        )
    weight = p_acc ** r_copies * r_copies
    if weight <= 1.0 / sys.float_info.max:
        raise FailureSignatureError(
            f"P_acc^R underflows at P_acc = {p_acc:.6g}, R = {r_copies:.6g}: the bound "
            "1 - 1/(P_acc^R R) is below the float range; use a smaller R"
        )
    return 1.0 - 1.0 / weight


def optimal_copies(p_acc: float, cap: float = DEFAULT_COPY_CAP):
    """Copy count R = 1/ln(1/p_acc) maximizing the fidelity lower bound.

    Returns ``(R, saturated)``; perfect acceptance has no finite optimum and
    returns the cap with ``saturated=True``.
    """
    if p_acc <= 0.0:
        raise ValueError("acceptance probability must be positive")
    if p_acc >= 1.0:
        return float(cap), True
    r = 1.0 / math.log(1.0 / p_acc)
    if r >= cap:
        return float(cap), True
    return r, False


@dataclass(frozen=True)
class RPolicy:
    """How to pick the copy count per sequence: per-sequence optimum (capped)
    or a fixed value."""

    kind: str = "optimal"
    fixed: float = 100.0
    cap: float = DEFAULT_COPY_CAP

    def __post_init__(self):
        if self.kind not in ("optimal", "fixed"):
            raise ValueError(f"unknown R policy {self.kind!r}")
        if self.kind == "fixed" and self.fixed <= 0:
            raise ValueError("fixed R must be positive")
        if self.cap <= 0:
            raise ValueError("R cap must be positive")

    def choose(self, p_acc: float):
        if self.kind == "fixed":
            return float(self.fixed), False
        return optimal_copies(p_acc, self.cap)


@dataclass
class RBSVResult:
    """The fitted curve of fidelity lower bounds and the acceptances behind it."""

    bounds: RBData                   # per-sequence bounds, per-length F_bar_m, fit, r_rbsv
    per_sequence_p_acc: np.ndarray   # (L, K), one row per length
    mean_p_acc: np.ndarray
    mean_copies: np.ndarray
    n_saturated: np.ndarray     # sequences at the copy cap, per length
    rb: RBData | None = None    # RB survivals of the same sequences, see run_rbsv


@dataclass(frozen=True)
class RBSVConfig(RBConfig):
    """RB configuration extended with the verification knobs."""

    n_m: int = 100
    r_policy: RPolicy = field(default_factory=RPolicy)
    include_identity_stabilizer: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.n_m < 1:
            raise ValueError("N_m must be >= 1")
        if self.n_m < 2 ** self.n:
            warnings.warn(
                f"N_m={self.n_m} is below the stabilizer-group size 2^{self.n}; "
                "the acceptance estimate may converge poorly",
                stacklevel=2,
            )


def _acceptances(config: RBSVConfig, lengths, seeds, units, close: bool = False) -> np.ndarray:
    """Acceptance of each sequence: exact, or the accepted fraction of
    ``n_m`` repetitions.  Unit ``units[k]`` has ``lengths[k]`` elements
    (longest first, see ``rb._draw_elements``), drawn from the stream seeded
    by ``seeds[0, k]``, and its repetitions from ``seeds[1, k]``.  A zero
    acceptance raises ``FailureSignatureError`` naming the lowest such unit.

    With ``close`` the same batch is also closed by its inverse and the gate
    channel, and row k holds sequence k's acceptance and its RB survival
    (``rb._survivals``, from the same repetition stream and propagation).
    """
    compiled = _compile(config, *_draw_elements(config, lengths, seeds[0]), close=close)
    include = config.include_identity_stabilizer
    if config.exact:
        p_acc = compiled.acceptance_probability(include)
    else:
        p_acc = compiled.acceptance_samples(config.n_m, seeds[1], include) / config.n_m
    zero = np.flatnonzero(p_acc == 0.0)
    if zero.size:
        k = zero[np.argmin(units[zero])]
        raise FailureSignatureError(
            f"sequence {units[k]} (m={lengths[k]}) accepted 0/{config.n_m} repetitions; "
            "the noise is too strong for verification to proceed"
        )
    if not close:
        return p_acc
    return np.stack([p_acc, _survivals(config, compiled, seeds[1])], axis=1)


def run_rbsv(config: RBSVConfig, *, with_rb: bool = False) -> RBSVResult:
    """Full verification-based benchmarking run: sample sequences, estimate
    acceptance per sequence and convert it to a fidelity lower bound, whose
    fitted per-length curve is ``result.bounds``.

    Every sequence of every length is drawn, propagated and counted in one
    batch (``seeding.run_ensemble``).  With ``with_rb`` the run also closes
    the sequences by their inverse and sets ``result.rb`` to their standard
    RB data, equal to ``run_standard_rb(config)``: one draw and one
    propagation serve both protocols.
    """

    p_acc = run_ensemble(
        config.seed, config.lengths, config.k_m,
        lambda lengths, seeds, units: _acceptances(config, lengths, seeds, units, close=with_rb))
    if with_rb:  # (lengths, K, 2) -> two contiguous (lengths, K) arrays
        p_acc, survivals = np.array(np.moveaxis(p_acc, 2, 0))
    copies, saturated = np.array(  # (lengths, K, 2) -> two (lengths, K) arrays
        [[config.r_policy.choose(p) for p in row] for row in p_acc.tolist()]).transpose(2, 0, 1)
    return RBSVResult(
        bounds=RBData.fitted(config, np.vectorize(fidelity_lower_bound)(p_acc, copies)),
        per_sequence_p_acc=p_acc,
        mean_p_acc=p_acc.mean(axis=1),
        mean_copies=copies.mean(axis=1),
        n_saturated=saturated.sum(axis=1).astype(int),
        rb=RBData.fitted(config, survivals) if with_rb else None,
    )
