"""Noise channels, SPAM models and density-matrix helpers.

Channels act on dense density matrices (the tests' oracle) and, for the
engine and the channel analysis, on Pauli coefficients ``Tr(P rho)``
(``pauli_action``): by their Pauli eigenvalues when Pauli-diagonal.  No
channel holds a dense matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .paulis import PauliString, packed_phase_exponent

__all__ = [
    "NoiseChannel",
    "Ideal",
    "Depolarizing",
    "PauliChannel",
    "DeltaDepolarizing",
    "ComposedChannel",
    "SpamModel",
    "NoiseModel",
    "UnsupportedChannelError",
    "zero_state",
    "apply_channel",
    "depolarizing_parameter",
    "measurement_success_probability",
    "pauli_action",
    "channel_from_spec",
    "config_integer",
    "config_json",
    "config_number",
    "config_value",
    "reject_unknown_fields",
    "rotation_unitary",
]

class UnsupportedChannelError(ValueError):
    """Raised when a channel cannot be used on the requested execution path."""


# ---------------------------------------------------------------------------
# Density-matrix helpers (plain complex ndarrays)
# ---------------------------------------------------------------------------


def zero_state(n: int) -> np.ndarray:
    """|0...0><0...0| on n qubits."""
    d = 2 ** n
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def rotation_unitary(rotation: PauliString, angle: float) -> np.ndarray:
    """The dense exp(-i*angle/2 * rotation) on the full register."""
    d = 2 ** rotation.n
    return (math.cos(angle / 2) * np.eye(d, dtype=complex)
            - 1j * math.sin(angle / 2) * rotation.to_matrix())


# ---------------------------------------------------------------------------
# Channel variants
# ---------------------------------------------------------------------------


class NoiseChannel:
    """Base class; concrete channels implement ``apply``.

    Channels are frozen values that check their parameters once, when
    built, so every later use can trust them.
    """

    def apply(self, rho: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def is_pauli_diagonal(self) -> bool:
        return False


@dataclass(frozen=True)
class Ideal(NoiseChannel):
    def apply(self, rho: np.ndarray) -> np.ndarray:
        return rho

    @property
    def is_pauli_diagonal(self) -> bool:
        return True


@dataclass(frozen=True)
class Depolarizing(NoiseChannel):
    """rho -> (1 - epsilon) rho + epsilon * I/d."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"depolarizing strength {self.epsilon} outside [0, 1]")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d = rho.shape[0]
        return (1.0 - self.epsilon) * rho + self.epsilon * np.trace(rho) * np.eye(d) / d

    @property
    def is_pauli_diagonal(self) -> bool:
        return True


@dataclass(frozen=True)
class PauliChannel(NoiseChannel):
    """rho -> sum_P prob[P] P rho P with Hermitian, phase-free Pauli keys."""

    probabilities: tuple  # tuple of (PauliString, float)

    def __init__(self, probabilities):
        if isinstance(probabilities, dict):
            probabilities = tuple(probabilities.items())
        items = []
        for key, prob in probabilities:
            if isinstance(key, str):
                key = PauliString.from_label(key)
            items.append((key, float(prob)))
        object.__setattr__(self, "probabilities", tuple(items))
        total = 0.0
        n = None
        for key, prob in items:
            if key.phase != 0:
                raise ValueError(f"Pauli key {key.label()} must carry phase +1")
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"probability {prob} outside [0, 1]")
            n = key.n if n is None else n
            if key.n != n:
                raise ValueError("Pauli keys act on different register sizes")
            total += prob
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"Pauli probabilities sum to {total}, not 1")

    @property
    def n(self) -> int:
        return self.probabilities[0][0].n

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho, dtype=complex)
        for key, prob in self.probabilities:
            if prob == 0.0:
                continue
            p = key.to_matrix()
            out += prob * (p @ rho @ p.conj().T)
        return out

    @property
    def is_pauli_diagonal(self) -> bool:
        return True


@dataclass(frozen=True)
class DeltaDepolarizing(NoiseChannel):
    """rho -> (1-delta) (p' rho + (1-p') I/d) + delta U rho U†.

    The perturbation is the Pauli rotation U = exp(-i angle/2 P) about the
    Hermitian, phase-free ``rotation`` P (one constructive choice of the
    residual term); :func:`channel_from_spec` builds a single-qubit one.
    With ``delta`` or ``angle`` 0 it is plain depolarizing noise of strength
    (1 - delta)(1 - p'), and Pauli-diagonal.
    """

    delta: float
    p_prime: float
    rotation: PauliString
    angle: float

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta {self.delta} outside [0, 1]")
        if not 0.0 <= self.p_prime <= 1.0:
            raise ValueError(f"p' {self.p_prime} outside [0, 1]")
        if self.rotation.phase != 0:
            raise ValueError(f"rotation {self.rotation.label()} must carry phase +1")
        if not math.isfinite(self.angle):
            raise ValueError(f"rotation angle {self.angle} is not finite")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d = rho.shape[0]
        if 2 ** self.rotation.n != d:
            raise ValueError("rotation dimension does not match state")
        dep = self.p_prime * rho + (1 - self.p_prime) * np.trace(rho) * np.eye(d) / d
        u = rotation_unitary(self.rotation, self.angle)
        return (1 - self.delta) * dep + self.delta * (u @ rho @ u.conj().T)

    @property
    def is_pauli_diagonal(self) -> bool:
        return self.delta == 0 or self.angle == 0


@dataclass(frozen=True)
class ComposedChannel(NoiseChannel):
    """Sequential composition: the first listed channel acts first."""

    channels: tuple

    def __init__(self, channels):
        object.__setattr__(self, "channels", tuple(channels))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        for ch in self.channels:
            rho = ch.apply(rho)
        return rho

    @property
    def is_pauli_diagonal(self) -> bool:
        return all(ch.is_pauli_diagonal for ch in self.channels)


@dataclass(frozen=True)
class SpamModel:
    """State-preparation and measurement noise bundle.

    ``prep`` acts once on the initial state, ``meas`` once before any
    measurement, and ``meas_flip`` is the per-qubit depolarizing probability
    applied to the qubits touched non-trivially by a measured stabilizer.
    """

    prep: NoiseChannel = Ideal()
    meas: NoiseChannel = Ideal()
    meas_flip: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.meas_flip <= 1.0:
            raise ValueError(f"meas_flip {self.meas_flip} outside [0, 1]")

    @property
    def is_trivial(self) -> bool:
        return (
            isinstance(self.prep, Ideal)
            and isinstance(self.meas, Ideal)
            and self.meas_flip == 0.0
        )


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate channel plus SPAM; the unit handed to the protocol drivers."""

    gate: NoiseChannel = Ideal()
    spam: SpamModel = SpamModel()

    @property
    def channels(self) -> tuple:
        """Every channel of the model: gate, preparation and measurement."""
        return (self.gate, self.spam.prep, self.spam.meas)


# ---------------------------------------------------------------------------
# The Pauli transfer form: fault distribution, eigenvalues, action and p
# ---------------------------------------------------------------------------


def walsh_hadamard(values) -> np.ndarray:
    """``out[..., x] = sum_y values[..., y] (-1)^popcount(x & y)`` along the
    last axis, whose length is a power of 2."""
    out = np.array(values, dtype=float)
    h = 1
    while h < out.shape[-1]:
        pairs = out.reshape(-1, 2, h)
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
        h *= 2
    return out


def fault_distribution(ch: NoiseChannel, n: int) -> np.ndarray:
    """Probabilities over all 4^n Pauli fault indices for a diagonal channel."""
    if isinstance(ch, Ideal):
        probs = np.zeros(4 ** n)
        probs[0] = 1.0
        return probs
    if isinstance(ch, Depolarizing):
        # I/d is the uniform Pauli twirl: every non-identity Pauli gets eps/d^2
        probs = np.full(4 ** n, ch.epsilon / 4 ** n)
        probs[0] = 1.0 - ch.epsilon * (4 ** n - 1) / 4 ** n
        return probs
    if isinstance(ch, PauliChannel):
        if ch.n != n:
            raise ValueError("channel register size mismatch")
        probs = np.zeros(4 ** n)
        for key, prob in ch.probabilities:
            probs[key.bits] += prob
        return probs
    if isinstance(ch, DeltaDepolarizing) and ch.is_pauli_diagonal:
        if ch.rotation.n != n:
            raise ValueError("rotation dimension does not match state")
        return fault_distribution(Depolarizing((1 - ch.delta) * (1 - ch.p_prime)), n)
    if isinstance(ch, ComposedChannel):
        # XOR convolution of the component distributions: a product after the transform
        spectrum = np.ones(4 ** n)
        for comp in ch.channels:
            spectrum *= walsh_hadamard(fault_distribution(comp, n))
        return walsh_hadamard(spectrum) / 4 ** n
    raise UnsupportedChannelError(
        f"{type(ch).__name__} is not Pauli-diagonal; it has no Pauli fault distribution"
    )


def pauli_eigenvalues(ch: NoiseChannel, n: int) -> np.ndarray:
    """Eigenvalue ``λ(s)`` of the adjoint channel on every packed Pauli ``s``.

    A Pauli-diagonal channel maps ``s`` to ``λ(s) s`` with
    ``λ(s) = sum_P p(P) (-1)^<s, P>`` (symplectic product): the
    Walsh–Hadamard transform of the fault distribution read at ``s`` with
    its x and z halves swapped.
    """
    spectrum = walsh_hadamard(fault_distribution(ch, n))
    idx = np.arange(4 ** n)
    low = (1 << n) - 1
    return spectrum[((idx & low) << n) | (idx >> n)]


_I_POWERS = np.array([1, 1j, -1, -1j])


def pauli_action(ch: NoiseChannel, n: int) -> list:
    """The channel on Pauli coefficients ``c_b = Tr(P_b rho)`` (packed ``b``):
    stages applied in order, each a list of ``(sources, weights)`` pairs that
    maps ``c`` to ``sum(weights * c[..., sources])``, with ``sources`` the
    Paulis at one offset ``t`` (``b ^ t``).  A Pauli-diagonal channel is one
    stage of its eigenvalues, a ``ComposedChannel`` its parts' stages, a
    ``DeltaDepolarizing`` the ``(1, p', ..., p')`` diagonal mixed with
    ``U rho U†`` over the two terms ``u_j P_j`` of its rotation, one gather
    per offset ``j ^ k`` (``P_j P_a P_k`` is ``P_(j^a^k)`` times a power of
    i).  Other channels raise ``UnsupportedChannelError``."""
    paulis = np.arange(4 ** n)
    if ch.is_pauli_diagonal:
        return [[(paulis, pauli_eigenvalues(ch, n))]]
    if isinstance(ch, ComposedChannel):
        return [stage for part in ch.channels for stage in pauli_action(part, n)]
    if not isinstance(ch, DeltaDepolarizing):
        raise UnsupportedChannelError(f"{type(ch).__name__} has no Pauli-basis action")
    if ch.rotation.n != n:
        raise ValueError("rotation dimension does not match state")
    # U = cos(angle/2) I - i sin(angle/2) P, identity term first
    terms = [(0, math.cos(ch.angle / 2)), (ch.rotation.bits, -1j * math.sin(ch.angle / 2))]
    diagonal = np.full(4 ** n, ch.p_prime)
    diagonal[0] = 1.0
    weights = {0: (1.0 - ch.delta) * diagonal}
    for j, u_j in terms:
        for k, u_k in terms:
            a = paulis ^ j ^ k
            power = packed_phase_exponent(j, a, n) + packed_phase_exponent(j ^ a, k, n)
            term = ch.delta * u_j * np.conj(u_k) * _I_POWERS[power & 3]
            weights[j ^ k] = weights.get(j ^ k, 0.0) + term
    return [[(paulis ^ t, np.real(w)) for t, w in weights.items()]]


def depolarizing_parameter(ch: NoiseChannel, n: int) -> float:
    """Retention p of the depolarizing channel with the same average fidelity,
    ``(Tr R - 1)/(4^n - 1)`` for the Pauli transfer matrix R of
    :func:`pauli_action`.  R is never built: each unit vector ``e_b`` is
    carried through the stages as its coefficients at the offsets ``o`` it
    reaches (at ``b ^ o``), and Tr R sums those left at offset 0."""
    paulis = np.arange(4 ** n)
    reached = {0: np.ones(4 ** n)}
    for stage in pauli_action(ch, n):
        moved = {}
        for sources, weights in stage:
            t = int(sources[0])  # sources[b] = b ^ t
            for o, coefficients in reached.items():
                # c'[a] gathers c[a ^ t]: e_b's entry at b ^ o lands at b ^ o ^ t
                moved[o ^ t] = moved.get(o ^ t, 0.0) + weights[paulis ^ o ^ t] * coefficients
        reached = moved
    return float((np.sum(reached.get(0, 0.0)) - 1.0) / (4 ** n - 1))


# ---------------------------------------------------------------------------
# Stabilizer measurement with measurement noise
# ---------------------------------------------------------------------------


def _single_qubit_depolarizing_on(rho: np.ndarray, n: int, qubit: int, p: float) -> np.ndarray:
    """Apply X/Y/Z each with probability p/3 on one qubit of the register."""
    if p == 0.0:
        return rho
    out = (1.0 - p) * rho
    for letter in "XYZ":
        m = PauliString.single(n, qubit, letter).to_matrix()
        out += (p / 3.0) * (m @ rho @ m)
    return out


def measurement_success_probability(rho: np.ndarray, s: PauliString,
                                    spam: SpamModel | None = None) -> float:
    """Probability that measuring stabilizer ``s`` returns +1.

    The measurement channel acts first, then independent single-qubit
    depolarizing flips on each qubit touched by ``s``, then the projection
    onto the +1 eigenspace of ``s``.
    """
    if not s.is_hermitian:
        raise ValueError(f"stabilizer {s.label()} is not Hermitian")
    d = rho.shape[0]
    if 2 ** s.n != d:
        raise ValueError("state and stabilizer dimensions differ")
    spam = spam or SpamModel()
    out = spam.meas.apply(rho)
    if spam.meas_flip:
        for q in range(s.n):
            if (s.bits >> q | s.bits >> (s.n + q)) & 1:
                out = _single_qubit_depolarizing_on(out, s.n, q, spam.meas_flip)
    proj = (np.eye(d, dtype=complex) + s.to_matrix()) / 2
    return float(np.real(np.trace(proj @ out)))


# ---------------------------------------------------------------------------
# Config-file channel specs
# ---------------------------------------------------------------------------


# required and optional fields of each channel kind, besides "kind"
_CHANNEL_FIELDS = {
    "ideal": ((), ()),
    "depolarizing": (("epsilon",), ()),
    "pauli": (("probabilities",), ()),
    "delta_depolarizing": (("delta", "p_prime"), ("qubit", "axis", "angle")),
}


def config_integer(value) -> int:
    """A JSON integer, or a float with no fractional part (``40.0``), as an
    ``int``; anything else raises ``ValueError`` rather than being truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


def config_number(value) -> float:
    """A JSON number as a ``float``; a string, a boolean or null raises
    ``ValueError`` rather than being converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def reject_unknown_fields(obj: dict, known, what: str, prefix: str = ""):
    """Raise ``ValueError`` naming every key of ``obj`` not in ``known``
    (``unknown <what> field '<prefix><key>'``): a misspelt field of a config
    or recipe file never falls back to a default."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} field " + ", ".join(repr(prefix + k) for k in unknown))


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"config number {text} is not finite")
    return value


def config_json(text: str):
    """A config or recipe file's ``text`` parsed as JSON; ``NaN``,
    ``Infinity`` and numbers that overflow a float (``1e400``), which
    Python's json reads, raise ``ValueError``."""
    return json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)


# what each converter expects, for ``config_value``'s message
config_integer.expected, config_number.expected = "an integer", "a number"


def config_value(value, kind, what: str):
    """``kind(value)`` for a config converter that names what it ``expected``
    (``config_integer``, ``config_number``, ...); a value it refuses raises
    ``ValueError``: ``<what> must be <expected>, not <value>``."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be {kind.expected}, not {value!r}") from exc


def channel_from_spec(spec: dict | None, n: int) -> NoiseChannel:
    """Build a channel from its JSON config form.

    Kinds: ``ideal``, ``depolarizing`` {epsilon}, ``pauli`` {probabilities:
    {"XI": 0.01, ...}}, ``delta_depolarizing`` {delta, p_prime, qubit?,
    axis?, angle?}.  Any other field is rejected.
    """
    if spec is None:
        return Ideal()
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"channel spec must be an object with a 'kind': {spec!r}")
    kind = spec["kind"]
    if kind not in _CHANNEL_FIELDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    required, optional = _CHANNEL_FIELDS[kind]
    missing = [key for key in required if key not in spec]
    if missing:
        raise ValueError(f"channel kind {kind!r} needs field(s) {', '.join(missing)}")
    reject_unknown_fields(spec, {"kind", *required, *optional}, "channel")
    if kind == "ideal":
        return Ideal()
    if kind == "depolarizing":
        return Depolarizing(config_value(spec["epsilon"], config_number, "channel field 'epsilon'"))
    if kind == "pauli":
        if not isinstance(spec["probabilities"], dict):
            raise ValueError("channel field 'probabilities' must be an object of "
                             f"label: probability pairs, not {spec['probabilities']!r}")
        probs = {}
        for label, prob in spec["probabilities"].items():
            key = PauliString.from_label(label)
            if key.n != n:
                raise ValueError(f"Pauli key {label!r} does not act on {n} qubits")
            probs[key] = config_value(prob, config_number,
                                      f"channel field 'probabilities.{label}'")
        return PauliChannel(probs)
    axis = spec.get("axis", "X")
    if not isinstance(axis, str) or axis.upper() not in ("X", "Y", "Z"):
        raise ValueError(f"channel field 'axis' must be one of 'X', 'Y', 'Z', not {axis!r}")
    qubit = config_value(spec.get("qubit", 0), config_integer, "channel field 'qubit'")
    delta, p_prime, angle = (
        config_value(spec.get(name, default), config_number, f"channel field {name!r}")
        for name, default in (("delta", None), ("p_prime", None), ("angle", 1e-2)))
    return DeltaDepolarizing(delta, p_prime, PauliString.single(n, qubit, axis), angle)


def apply_channel(ch: NoiseChannel, rho: np.ndarray) -> np.ndarray:
    """CPTP action of a channel on a density matrix."""
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise ValueError("state must be a square matrix")
    out = ch.apply(rho)
    if out.shape != rho.shape:
        raise ValueError("channel changed the state dimension")
    return out
