"""Closed-form resource and noise-regime formulas for planning a run.

Everything here is a pure function of scalar inputs: Hoeffding repetition
counts, the sequence-count bound through H(lambda, upsilon), the variance
upper bounds (with and without SPAM terms), total experiment counts, the
perfect-measurement probability and the classical tableau cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "hoeffding_shots",
    "hoeffding_failure_probability",
    "h_function",
    "sequences_needed",
    "variance_bound",
    "total_experiments",
    "perf_probability",
    "regime_ok",
    "classical_cost",
    "ResourcePlan",
    "REGIME_CONSTANT",
]

REGIME_CONSTANT = 0.01


def hoeffding_shots(t: float) -> int:
    """Repetitions N_m = ceil(1/t^2) to estimate an acceptance probability to
    accuracy t with failure probability at most e^-2."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"accuracy t must lie in (0, 1], got {t}")
    return math.ceil(1.0 / (t * t))


def hoeffding_failure_probability(n_m: int, t: float) -> float:
    """exp(-2 N_m t^2): the deviation probability the bound guarantees."""
    if n_m < 1:
        raise ValueError("N_m must be >= 1")
    return math.exp(-2.0 * n_m * t * t)


def h_function(lam: float, upsilon: float) -> float:
    """H(lambda, upsilon) entering the sequence-count bound; in (0, 1)."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    if upsilon <= 0.0:
        raise ValueError(f"upsilon must be positive, got {upsilon}")
    first = (1.0 / (1.0 - lam)) ** ((1.0 - lam) / (upsilon + 1.0))
    second = (upsilon / (upsilon + lam)) ** ((upsilon + lam) / (upsilon + 1.0))
    return first * second


def sequences_needed(delta: float, lam: float, upsilon: float) -> int:
    """K_m = ceil(-log(2/delta) / log H) random sequences per length."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"confidence delta must lie in (0, 1), got {delta}")
    h = h_function(lam, upsilon)
    if h >= 1.0:
        raise ValueError("H >= 1: the sequence-count bound diverges")
    return math.ceil(-math.log(2.0 / delta) / math.log(h))


def variance_bound(m: int, r: float, d: int, eta: float = 0.0,
                   with_spam: bool = True) -> float:
    """Upper bound on the per-sequence fidelity variance.

    Evaluates the quoted bounds with p = 1 - d r/(d-1) and unitarity
    u = (p^2 + 1)/2; ``with_spam=False`` selects the SPAM-free variant.  The
    with-SPAM geometric factor is sum_{j<m} j q^(j-1) with q = p^2/u, whose
    closed form divides by (1-q)^2; the quoted single (1-q) tends to 0 as
    r -> 0 and undercuts the SPAM-free bound.
    """
    if m < 1 or int(m) != m:
        raise ValueError(f"sequence length must be an integer >= 1, got {m}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"average error rate r must lie in [0, 1), got {r}")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    p = 1.0 - d * r / (d - 1.0)
    if p <= 0.0:
        raise ValueError(f"r={r} gives non-positive depolarizing parameter p={p}")
    if r == 0.0:
        return 0.0
    u = (p * p + 1.0) / 2.0
    if not with_spam:
        term1 = p ** (m - 1) * (d * d - 1.0) * m / (4.0 * (d - 1.0) ** 2) * r * r
        term2 = u ** (m - 2) * d * d * m * (m - 1.0) / (2.0 * (d - 1.0) ** 2) * r * r
        return term1 + term2
    term1 = (d * d - 2.0) / (4.0 * (d - 1.0) ** 2) * r * r * m * p ** (m - 1)
    q = p * p / u
    # sum_{j<m} j q^(j-1) = ((m-1) q^m - m q^(m-1) + 1) / (1-q)^2, summed term
    # by term: the ratio cancels catastrophically as q -> 1, where the sum
    # tends to m(m-1)/2
    geometric = math.fsum(j * q ** (j - 1) for j in range(1, int(m)))
    term2 = d * d * (1.0 + 4.0 * eta) * r * r / (d - 1.0) ** 2 * geometric * u ** (m - 2)
    term3 = 2.0 * eta * d * m * r / (d - 1.0) * p ** (m - 1)
    return term1 + term2 + term3


def total_experiments(q: int, delta: float, t: float, lam: float, upsilon: float) -> int:
    """Total number of experiments ceil(-q log(2/delta) / (t^2 log H)).

    The source's bare "log(/delta)" is read as log(2/delta) for consistency
    with the sequence-count formula.
    """
    if q < 1:
        raise ValueError("number of lengths q must be >= 1")
    if not 0.0 < t <= 1.0:
        raise ValueError(f"accuracy t must lie in (0, 1], got {t}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"confidence delta must lie in (0, 1), got {delta}")
    h = h_function(lam, upsilon)
    if h >= 1.0:
        raise ValueError("H >= 1: the bound diverges")
    return math.ceil(-q * math.log(2.0 / delta) / (t * t * math.log(h)))


def perf_probability(p_meas: float, weights) -> float:
    """P_perf = prod_i (1 - p_meas)^{|s_i|}: no measurement error in a run."""
    if not 0.0 <= p_meas < 1.0:
        raise ValueError(f"p_meas must lie in [0, 1), got {p_meas}")
    total = 0
    for w in weights:
        if w < 0:
            raise ValueError("stabilizer weights must be non-negative")
        total += int(w)
    return (1.0 - p_meas) ** total


def perf_probability_lower_bound(p_meas: float, n: int, r_copies: float) -> float:
    """(1 - p_meas)^(n R): the weight-independent lower bound."""
    if not 0.0 <= p_meas < 1.0:
        raise ValueError(f"p_meas must lie in [0, 1), got {p_meas}")
    return (1.0 - p_meas) ** (n * r_copies)


def regime_ok(p_meas: float, n: int, r_copies: float,
              constant: float = REGIME_CONSTANT) -> bool:
    """Whether p_meas << 1/(n R) holds, with << read as <= constant/(n R)."""
    if n < 1 or r_copies <= 0:
        raise ValueError("need n >= 1 and R > 0")
    return p_meas <= constant / (n * r_copies)


def classical_cost(q: int, k_m: int, n: int) -> int:
    """Tableau-update cost q * K_m * n^2 (unit-free operation count)."""
    if q < 1 or k_m < 1 or n < 1:
        raise ValueError("q, K_m and n must be positive")
    return q * k_m * n * n


@dataclass(frozen=True)
class ResourcePlan:
    """Scalar knobs in, resource counts out; see ``evaluate``."""

    t: float = 0.01
    delta: float = 0.05
    lam: float = 0.02
    upsilon: float | None = None
    q: int = 20
    n: int = 2
    r_copies: float = 100.0
    p_meas: float = 0.0
    m: int = 10
    r: float = 0.001
    eta: float = 0.0
    with_spam: bool = True
    regime_constant: float = REGIME_CONSTANT
    stabilizer_weights: tuple = ()

    def evaluate(self) -> dict:
        """All derived quantities; upsilon defaults to the variance bound."""
        ups = self.upsilon
        if ups is None:
            ups = variance_bound(self.m, self.r, 2 ** self.n, self.eta, self.with_spam)
        n_m = hoeffding_shots(self.t)
        k_m = sequences_needed(self.delta, self.lam, ups)
        out = {
            "N_m": n_m,
            "hoeffding_failure_probability": hoeffding_failure_probability(n_m, self.t),
            "H": h_function(self.lam, ups),
            "K_m": k_m,
            "upsilon": ups,
            "N_exp": total_experiments(self.q, self.delta, self.t, self.lam, ups),
            "N_class": classical_cost(self.q, k_m, self.n),
            "P_perf_lower": perf_probability_lower_bound(self.p_meas, self.n, self.r_copies),
            "regime_ok": regime_ok(self.p_meas, self.n, self.r_copies, self.regime_constant),
        }
        if self.stabilizer_weights:
            out["P_perf"] = perf_probability(self.p_meas, self.stabilizer_weights)
        return out
