"""Finite-temperature observables of spin models via thermal pure quantum states.

The workflow: build a Heisenberg Hamiltonian on a 1D/2D lattice, prepare an
approximately Haar-random state with a layered random circuit, apply the
imaginary-time filter e^{-beta H / 2} with one of several interchangeable
backends (exact dense, dilated unitary, FABLE block encoding, QITE), and
average the measured observable over realizations.
"""

from .errors import (
    ConfigError,
    DimensionOverflow,
    DomainTooSmallWarning,
    EntryOutOfRange,
    SingularSystem,
    ZeroProbability,
)
from .lattice import LatticeSpec, build_heisenberg, magnetization_x, nearest_neighbor_pairs
from .pauli import DenseHermitian, PauliSum, PauliTerm, to_dense
from .random_state import (
    RandomCircuitSpec,
    build_random_circuit,
    haar_entropy_reference,
    sample_haar_state,
    state_entropy,
)
from .circuit import Circuit, Gate
from .statevector import (
    StateVector,
    apply_circuit,
    expectations,
    sample_expectations,
    zero_state,
)
from .nonunitary import (
    DilationSpec,
    ThermalOperator,
    apply_dilated,
    dilated_cnot_count,
    dilated_omega,
)
from .fable import fable_encode
from .qite import QiteSpec, qite_circuit, qite_evolve
from .estimator import (
    TpqEstimate,
    TpqRunSpec,
    ensemble_expectation,
    run_ensemble,
    squared_error_scan,
)

__all__ = [
    "ConfigError",
    "DimensionOverflow",
    "DomainTooSmallWarning",
    "EntryOutOfRange",
    "SingularSystem",
    "ZeroProbability",
    "LatticeSpec",
    "build_heisenberg",
    "magnetization_x",
    "nearest_neighbor_pairs",
    "DenseHermitian",
    "PauliSum",
    "PauliTerm",
    "to_dense",
    "RandomCircuitSpec",
    "build_random_circuit",
    "haar_entropy_reference",
    "sample_haar_state",
    "state_entropy",
    "Circuit",
    "Gate",
    "StateVector",
    "apply_circuit",
    "expectations",
    "sample_expectations",
    "zero_state",
    "DilationSpec",
    "ThermalOperator",
    "apply_dilated",
    "dilated_cnot_count",
    "dilated_omega",
    "fable_encode",
    "QiteSpec",
    "qite_circuit",
    "qite_evolve",
    "TpqEstimate",
    "TpqRunSpec",
    "ensemble_expectation",
    "run_ensemble",
    "squared_error_scan",
]
