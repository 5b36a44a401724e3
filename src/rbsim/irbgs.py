"""Interleaved benchmarking with synthesized Clifford elements.

Covers the controlled-phase rotation family CP(k), dense verification of
synthesis recipes, the interleaved estimators (plain ratio and L-th root)
and the three closed-form error bounds on the non-Clifford estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .channels import (
    ComposedChannel,
    Depolarizing,
    DeltaDepolarizing,
    Ideal,
    NoiseChannel,
    PauliChannel,
    config_integer,
    config_json,
    config_value,
    reject_unknown_fields,
)
from .cliffords import CliffordElement
from .paulis import pauli_basis
from .rb import RBConfig, RBData, _rb_ensemble

__all__ = [
    "cp_matrix",
    "p_matrix",
    "RecipeGate",
    "SynthesisRecipe",
    "VerificationReport",
    "verify_synthesis",
    "builtin_recipes",
    "load_recipes",
    "rotation_expansion_recipe",
    "irb_estimate",
    "irbgs_estimate",
    "error_bound",
    "IrbEstimate",
    "IRBGSConfig",
    "run_irbgs",
    "clifford_element_from_unitary",
]

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_P = np.array([[1, 0], [0, 1j]], dtype=complex)
_I = np.eye(2, dtype=complex)

_ONE_QUBIT = {"H": _H, "P": _P, "PDAG": _P.conj().T, "X": _X, "I": _I}

VERIFY_ATOL = 1e-12


def p_matrix(k: int) -> np.ndarray:
    """Single-qubit rotation P(k) = diag(1, exp(i 2 pi / 2^k)); P(2) is the phase gate.
    Its angle is ``math.ldexp``'s 2 pi 2^-k, which takes any k (0.0 from k = 1078 on)."""
    if k < 1:
        raise ValueError("rotation index k must be >= 1")
    return np.diag([1.0, np.exp(1j * math.ldexp(2 * math.pi, -k))]).astype(complex)


def cp_matrix(k: int) -> np.ndarray:
    """Controlled-P(k): diag(1, 1, 1, exp(i 2 pi / 2^k)); Clifford only for k = 1."""
    if k < 1:
        raise ValueError("rotation index k must be >= 1")
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * math.ldexp(2 * math.pi, -k))]).astype(complex)


@dataclass(frozen=True)
class RecipeGate:
    """One gate of a synthesis recipe on a two-qubit register."""

    gate: str
    qubits: tuple
    k: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "gate", self.gate.upper())
        what = f"recipe gate {self.gate}:"
        object.__setattr__(self, "qubits", tuple(config_value(q, config_integer, f"{what} qubit")
                                                 for q in self.qubits))
        if self.k is not None:
            object.__setattr__(self, "k", config_value(self.k, config_integer, f"{what} k"))
        if any(q not in (0, 1) for q in self.qubits):
            raise ValueError(f"recipe gate {self.gate}: qubits must be 0 or 1, not "
                             f"{list(self.qubits)}")
        if self.gate in ("CP", "CPDAG"):
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("CP gates need two distinct qubits")
            if self.k is None or self.k < 1:
                raise ValueError("CP gates need a rotation index k >= 1")
        elif self.gate in _ONE_QUBIT:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.gate} acts on one qubit")
            if self.k is not None:
                raise ValueError(f"{self.gate} takes no rotation index k")
        else:
            raise ValueError(f"unknown recipe gate {self.gate!r}")

    def matrix(self) -> np.ndarray:
        """Dense 4x4 matrix on the two-qubit register (qubit 0 leftmost)."""
        if self.gate in ("CP", "CPDAG"):
            m = cp_matrix(self.k)
            return m if self.gate == "CP" else m.conj().T
        q = self.qubits[0]
        g = _ONE_QUBIT[self.gate]
        return np.kron(g, _I) if q == 0 else np.kron(_I, g)


# the generator targets a recipe may name instead of a 4x4 literal
_NAMED_TARGETS = {
    "IxP": np.kron(_I, _P),
    "PxP": np.kron(_P, _P),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "IxH": np.kron(_I, _H),
    "HxH": np.kron(_H, _H),
    "IxPdag": np.kron(_I, _P.conj().T),
    "PdagxPdag": np.kron(_P.conj().T, _P.conj().T),
}


def _target_matrix(spec) -> np.ndarray:
    """Accept a named generator target ('IxP', 'CNOT', ...) or a 4x4 literal
    of [re, im] pairs."""
    if isinstance(spec, str):
        name = spec.strip()
        if name not in _NAMED_TARGETS:
            raise ValueError(f"unknown target name {name!r}")
        return _NAMED_TARGETS[name].copy()
    try:
        arr = np.asarray(spec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"target must be a name or a 4x4 grid of [re, im] pairs, "
                         f"not {spec!r}") from exc
    if arr.shape != (4, 4, 2):
        raise ValueError("matrix target must be a 4x4 grid of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


@dataclass(frozen=True)
class SynthesisRecipe:
    """A target two-qubit Clifford and the gate list synthesizing it.

    Gates are listed in circuit order (first entry applied first).
    """

    name: str
    target: np.ndarray = field(repr=False)
    gates: tuple
    target_name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if np.asarray(self.target).shape != (4, 4):
            raise ValueError("target must be a 4x4 unitary")

    @property
    def nonclifford_count(self) -> int:
        """L: number of CP/CP† instances (counting k = 1, which is Clifford,
        as an instance too, matching the construction's bookkeeping)."""
        return sum(1 for g in self.gates if g.gate in ("CP", "CPDAG"))

    def product(self) -> np.ndarray:
        """Dense product of the gate matrices, rightmost factor applied first."""
        out = np.eye(4, dtype=complex)
        for g in self.gates:
            out = g.matrix() @ out
        return out

    @classmethod
    def from_json(cls, entry: dict) -> "SynthesisRecipe":
        """Parse one recipe object; an unknown, missing or mistyped field
        raises ``ValueError`` naming it."""
        if not isinstance(entry, dict):
            raise ValueError(f"a recipe must be an object, not {entry!r}")
        reject_unknown_fields(entry, ("name", "target", "gates"), "recipe")
        missing = [key for key in ("gates", "target") if key not in entry]
        if missing:
            raise ValueError(f"recipe needs field(s) {', '.join(map(repr, missing))}")
        if not isinstance(entry["gates"], list):
            raise ValueError(f"recipe field 'gates' must be a list, not {entry['gates']!r}")
        for i, g in enumerate(entry["gates"]):
            if not (isinstance(g, dict) and isinstance(g.get("gate"), str)
                    and isinstance(g.get("qubits"), list)):
                raise ValueError(f"recipe gate {i} must be an object with a 'gate' name "
                                 f"and a 'qubits' list, not {g!r}")
            reject_unknown_fields(g, ("gate", "qubits", "k"), f"recipe gate {i}")
        gates = tuple(
            RecipeGate(g["gate"], tuple(g["qubits"]), g.get("k")) for g in entry["gates"]
        )
        target_spec = entry["target"]
        return cls(
            name=str(entry.get("name", "recipe")),
            target=_target_matrix(target_spec),
            gates=gates,
            target_name=target_spec if isinstance(target_spec, str) else None,
        )


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    max_deviation: float


def verify_synthesis(recipe: SynthesisRecipe, atol: float = VERIFY_ATOL) -> VerificationReport:
    """Check the recipe's gate product against its target modulo one global phase."""
    product = recipe.product()
    target = np.asarray(recipe.target, dtype=complex)
    idx = np.unravel_index(int(np.argmax(np.abs(product))), product.shape)
    if abs(product[idx]) < 1e-14:
        return VerificationReport(False, float("inf"))
    phase = target[idx] / product[idx]
    if abs(abs(phase) - 1.0) > 1e-12:
        phase = phase / abs(phase) if abs(phase) > 0 else 1.0 + 0j
    deviation = float(np.max(np.abs(phase * product - target)))
    return VerificationReport(deviation <= atol, deviation)


# ---------------------------------------------------------------------------
# Recipes: the bundled 7-row synthesis of the symmetric generator set
# ---------------------------------------------------------------------------


def _cp(i, j, k=2):
    return RecipeGate("CP", (i, j), k)


def _g(name, q):
    return RecipeGate(name, (q,))


def builtin_recipes() -> list:
    """Synthesis of the symmetric two-qubit generator set, two CP gates each
    (the bundled ``data/clifford_generator_recipes.json``)."""
    return load_recipes()


def rotation_expansion_recipe(k: int) -> SynthesisRecipe:
    """I ⊗ P(k) from two CP(k) gates: (X⊗I) CP(k) (X⊗I) CP(k).

    Conjugating one CP(k) by X on the control moves its phase to the other
    control branch, so the pair applies P(k) on the target unconditionally.
    """
    if k < 1:
        raise ValueError("rotation index k must be >= 1")
    return SynthesisRecipe(
        name=f"rotation-pair-k{k}",
        target=np.kron(_I, p_matrix(k)),
        gates=( _cp(0, 1, k), _g("X", 0), _cp(0, 1, k), _g("X", 0) ),
    )


def load_recipes(path=None) -> list:
    """Load recipes from a JSON file; defaults to the bundled 7-recipe set."""
    if path is None:
        text = resources.files("rbsim").joinpath(
            "data", "clifford_generator_recipes.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    entries = config_json(text)
    if not isinstance(entries, list):
        raise ValueError("recipe file must hold a JSON list")
    return [SynthesisRecipe.from_json(e) for e in entries]


# ---------------------------------------------------------------------------
# Estimators and error bounds
# ---------------------------------------------------------------------------


def irb_estimate(p: float, p_bar_c: float, d: int) -> float:
    """Interleaved estimate r_C = (d-1)(1 - p_bar_c/p)/d for a fixed Clifford."""
    if p <= 0:
        raise ValueError("baseline depolarizing parameter must be positive")
    ratio = p_bar_c / p
    if ratio > 1.0:
        warnings.warn(f"interleaved ratio {ratio} exceeds 1; estimate is negative",
                      stacklevel=2)
    return (d - 1) * (1.0 - ratio) / d


def irbgs_estimate(p: float, p_bar_c: float, d: int, nonclifford_count: int) -> float:
    """Per-non-Clifford estimate r_N = (d-1)/d (1 - (p_bar_c/p)^(1/L)).

    L = 2 reproduces the square-root special case exactly.
    """
    if nonclifford_count < 1:
        raise ValueError("need at least one non-Clifford instance")
    if p <= 0:
        raise ValueError("baseline depolarizing parameter must be positive")
    ratio = p_bar_c / p
    if ratio <= 0:
        raise ValueError("interleaved/baseline ratio must be positive")
    return (d - 1) / d * (1.0 - ratio ** (1.0 / nonclifford_count))


def error_bound(noise_class: str, p: float, d: int, delta: float | None = None) -> float:
    """Upper bound on |r_N - r_N^est| for the stated noise class of the
    non-Clifford gate: 'depolarizing', 'delta' or 'pauli'."""
    if p <= 0 or p > 1:
        raise ValueError("depolarizing parameter must lie in (0, 1]")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    e_prime = 2 * (d * d - 1) * (1 - p) / (d * d) + 4 * math.sqrt(1 - p) * math.sqrt(d * d - 1)
    if noise_class == "depolarizing":
        inner = e_prime
    elif noise_class == "delta":
        if delta is None or not 0 <= delta <= 1:
            raise ValueError("delta class needs a delta in [0, 1]")
        inner = e_prime + 2 * delta
    elif noise_class == "pauli":
        inner = 6 * (d * d - 1) * (1 - p) / (d * d) + 4 * math.sqrt(1 - p) * math.sqrt(d * d - 1)
    else:
        raise ValueError(f"unknown noise class {noise_class!r}")
    return math.sqrt((d - 1) / d * inner / p)


def _noise_class_of(ch: NoiseChannel):
    if isinstance(ch, (Depolarizing, Ideal)):
        return "depolarizing", None
    if isinstance(ch, PauliChannel):
        return "pauli", None
    if isinstance(ch, DeltaDepolarizing):
        return "delta", ch.delta
    raise ValueError(f"no error bound for channel {type(ch).__name__}")


# ---------------------------------------------------------------------------
# The interleaved protocol
# ---------------------------------------------------------------------------


def clifford_element_from_unitary(u: np.ndarray, n: int) -> CliffordElement:
    """Tableau of a dense Clifford unitary; raises if ``u`` is not Clifford.

    Every row's image U P_r U† has Pauli coefficients Tr(P_b† U P_r U†)/d,
    read in one contraction; for a Clifford they are ±1 at one b, else 0.
    """
    d = 2 ** n
    if u.shape != (d, d):
        raise ValueError("unitary dimension mismatch")
    paulis = pauli_basis(n)
    r = np.arange(2 * n)  # packed bit r is X_r for r < n and Z_{r-n} above
    coefficients = np.einsum("bij,rij->rb", paulis.conj(), u @ paulis[1 << r] @ u.conj().T) / d
    rows = np.argmax(np.abs(coefficients), axis=1)
    signs = np.rint(coefficients[r, rows].real)
    coefficients[r, rows] -= signs  # what is left must vanish
    if not (np.all(np.abs(signs) == 1) and np.all(np.abs(coefficients) <= 1e-9)):
        raise ValueError("unitary does not map Paulis to Paulis; not a Clifford")
    elem = CliffordElement(n, rows, np.where(signs < 0, 2, 0))
    if not elem.is_valid():
        raise ValueError("recovered tableau is not symplectically valid")
    return elem


@dataclass(frozen=True)
class IrbEstimate:
    """Interleaved-run outputs and the applicable error bound."""

    p: float
    p_bar_c: float
    d: int
    nonclifford_count: int
    r_c_est: float
    r_n_est: float
    bound: float
    noise_class: str
    baseline_data: RBData | None = None      # the plain run, with its fit
    interleaved_data: RBData | None = None   # the interleaved run, with its fit


@dataclass(frozen=True, kw_only=True)
class IRBGSConfig(RBConfig):
    """Two exact-mode runs of Clifford elements on two qubits, both under
    this config: baseline RB and the interleaved variant, whose fixed element
    is the recipe's Clifford product with ``noise_n`` once per CP gate."""

    n: int = 2
    k_m: int = 30
    exact: bool = True
    noise_n: NoiseChannel = field(default_factory=Ideal)
    recipe: SynthesisRecipe = None

    def __post_init__(self):
        if self.n != 2:
            raise ValueError("the synthesis construction targets two qubits")
        super().__post_init__()
        if self.recipe is None:
            raise ValueError("an interleaved run needs a synthesis recipe")
        if not self.exact:
            raise ValueError("interleaved runs are exact")
        if self.mode != "clifford":
            raise ValueError("interleaved runs draw Clifford elements")


def run_irbgs(config: IRBGSConfig) -> IrbEstimate:
    """Baseline RB and interleaved RB in exact mode (``rb._rb_ensemble``,
    the baseline's survivals as ``run_standard_rb`` draws them; both curves
    fitted in one ``RBData.fitted`` call), estimate and bound.

    The fixed element is the recipe's ideal Clifford product; its channel is
    ``noise_n`` once per CP or CP† instance of the recipe, whose single-qubit
    gates are noiseless.
    """
    report = verify_synthesis(config.recipe)
    if not report.passed:
        raise ValueError(
            f"recipe {config.recipe.name!r} failed verification "
            f"(max deviation {report.max_deviation:.3g}); refusing to run"
        )
    d, n_cp = 2 ** config.n, config.recipe.nonclifford_count
    target = np.asarray(config.recipe.target, dtype=complex)
    fixed = (clifford_element_from_unitary(target, config.n),
             ComposedChannel([config.noise_n] * n_cp))
    baseline = _rb_ensemble(config)
    # its own stream, so the interleaved sequences are not the baseline's
    interleaved = _rb_ensemble(config, config.seed ^ 0x1B9, fixed)
    # both curves in one fit call
    baseline, interleaved = RBData.fitted(config, np.stack([baseline, interleaved]))

    p, p_bar_c = baseline.fit.p, interleaved.fit.p
    noise_class, delta = _noise_class_of(config.noise_n)
    return IrbEstimate(p=p, p_bar_c=p_bar_c, d=d, nonclifford_count=n_cp,
                       r_c_est=irb_estimate(p, p_bar_c, d),
                       r_n_est=irbgs_estimate(p, p_bar_c, d, n_cp),
                       bound=error_bound(noise_class, p, d, delta), noise_class=noise_class,
                       baseline_data=baseline, interleaved_data=interleaved)
