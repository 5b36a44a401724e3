"""Clifford randomized-benchmarking simulator and analysis toolkit.

Subpackages cover exact Pauli/Clifford algebra, noise channels, an exact
noise engine, the benchmarking protocols (standard, verification-based
and interleaved with gate synthesis), decay fitting and resource planning.
"""

from .paulis import PauliString, pauli_multiply
from .cliffords import (
    CliffordElement,
    GeneratorGate,
    compose,
    conjugate_pauli,
    inverse,
    random_clifford,
    stabilizer_group,
    clifford_to_matrix,
)
from .channels import (
    Depolarizing,
    DeltaDepolarizing,
    Ideal,
    NoiseModel,
    PauliChannel,
    SpamModel,
    apply_channel,
    depolarizing_parameter,
    measurement_success_probability,
)
from .engines import SequenceSpec, run_sequence_exact
from .fitting import DecayFit, fit_decay, r_from_p

__version__ = "0.1.0"
