"""The imaginary-time filter Q = e^{-beta H / 2}: exact and dilated-unitary forms.

All downstream quantities are normalized ratios, so Q may be rescaled freely;
internally the spectrum is shifted by the ground-state energy before
exponentiating to keep weights in (0, 1].

Both forms are simulated in the eigenbasis V of H, which is real for the
real-symmetric Hamiltonians built here: a state enters as c = V^dagger psi,
is weighted per eigenvalue, and leaves as V times the weighted coefficients.
The dilated unitary Omega is only built by `dilated_omega`, the unitarity
oracle and the artifact whose synthesis the `resources` subcommand times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ZeroProbability
from .pauli import DenseHermitian
from .statevector import StateVector


@dataclass
class ThermalOperator:
    """e^{-beta H / 2} over a dense Hamiltonian's cached eigenbasis.

    `scaled` holds Q/s with max-abs entry 1, the form consumed by the
    block-encoding and dilation backends; every filter normalizes its
    output, so the literal Q is never needed.
    """

    beta: float
    hamiltonian: DenseHermitian

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")

    @property
    def n_qubits(self) -> int:
        return self.hamiltonian.n_qubits

    def shifted_weights(self) -> np.ndarray:
        """e^{-beta (lambda - lambda_min) / 2}, all in (0, 1]."""
        vals = self.hamiltonian.eigenvalues
        return np.exp(-self.beta * (vals - vals[0]) / 2.0)

    @cached_property
    def _shifted_matrix(self) -> np.ndarray:
        vals, vecs = self.hamiltonian.eig
        return (vecs * self.shifted_weights()) @ vecs.conj().T

    @cached_property
    def _shifted_scale(self) -> float:
        return float(np.max(np.abs(self._shifted_matrix)))

    @cached_property
    def scaled(self) -> np.ndarray:
        """Q/s, real symmetric for the real-symmetric Hamiltonians used here."""
        return self._shifted_matrix / self._shifted_scale

    def scaled_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of `scaled`, sharing the Hamiltonian's eigenvectors."""
        return self.shifted_weights() / self._shifted_scale


def exact_thermal_operator(h: DenseHermitian, beta: float) -> ThermalOperator:
    return ThermalOperator(beta, h)


def _basis_change(vecs: np.ndarray, amps: np.ndarray,
                  adjoint: bool = False) -> np.ndarray:
    """V amps, or V^dagger amps when `adjoint`.

    A real V is never cast to complex: it multiplies the real and imaginary
    parts of amps, interleaved as two columns, in one real product.
    """
    if np.iscomplexobj(vecs):
        return (amps.conj() @ vecs).conj() if adjoint else vecs @ amps
    parts = np.ascontiguousarray(amps, dtype=complex).view(float).reshape(-1, 2)
    return ((vecs.T if adjoint else vecs) @ parts).view(complex).ravel()


def apply_exact(op: ThermalOperator, psi: StateVector) -> StateVector:
    """Normalized Q psi via the eigenbasis; never materializes Q."""
    vecs = op.hamiltonian.eigenvectors
    coeffs = op.shifted_weights() * _basis_change(vecs, psi.amps, adjoint=True)
    return StateVector(psi.n, _basis_change(vecs, coeffs)).normalized()


@dataclass(frozen=True)
class DilationSpec:
    """Single-ancilla dilation of Q with performance parameter epsilon."""

    epsilon: float
    operator: ThermalOperator

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")


def dilated_omega(spec: DilationSpec) -> np.ndarray:
    """exp(i eps [[0, -iQ'], [iQ', 0]]) = [[cos(eps Q'), sin(eps Q')],
    [-sin(eps Q'), cos(eps Q')]], with the ancilla as the most significant qubit."""
    vecs = spec.operator.hamiltonian.eigenvectors
    angles = spec.epsilon * spec.operator.scaled_eigenvalues()
    cos_b = (vecs * np.cos(angles)) @ vecs.conj().T
    sin_b = (vecs * np.sin(angles)) @ vecs.conj().T
    return np.block([[cos_b, sin_b], [-sin_b, cos_b]])


def apply_dilated(spec: DilationSpec, psi: StateVector) -> tuple[StateVector, float, float]:
    """Dilated application of Q: returns (post-selected state, P0, fidelity F).

    The ancilla starts in |1>, Omega is applied, and the ancilla is
    post-selected in |0>; the surviving branch is b = sin(eps Q') psi, which
    is diagonal in H's eigenbasis, so Omega itself is never built.  P0 is
    ||b||^2 and F the overlap magnitude with the exact filtered state, in
    [0, 1].
    Raises ZeroProbability when P0 underflows.
    """
    op = spec.operator
    vecs = op.hamiltonian.eigenvectors
    coeffs = _basis_change(vecs, psi.amps, adjoint=True)
    branch = np.sin(spec.epsilon * op.scaled_eigenvalues()) * coeffs
    p0 = float(np.vdot(branch, branch).real)
    if p0 < 1e-14:
        raise ZeroProbability(f"outcome probability {p0:.3e} underflows")
    exact = op.shifted_weights() * coeffs
    fid = abs(np.vdot(branch, exact)) / (math.sqrt(p0) * np.linalg.norm(exact))
    out = StateVector(psi.n, _basis_change(vecs, branch / math.sqrt(p0)))
    # Cauchy-Schwarz bounds F by 1; round-off must not push it past
    return out, p0, min(1.0, float(fid))


def dilated_cnot_count(n_system: int) -> int:
    """CNOT count for a generic dense (n_system + 1)-qubit unitary.

    Quantum-Shannon-style recurrence: an n-qubit unitary costs four
    (n-1)-qubit unitaries plus three multiplexed rotations of 2^{n-1} CNOTs
    each.  Implementation-specific; reported for resource comparison only.
    """
    count = 0
    for n in range(2, n_system + 2):
        count = 4 * count + 3 * (1 << (n - 1))
    return count
