"""The imaginary-time filter Q = e^{-beta H / 2}: exact and dilated-unitary forms.

All downstream quantities are normalized ratios, so Q may be rescaled freely;
internally the spectrum is shifted by the ground-state energy before
exponentiating to keep weights in (0, 1], and the circuit backends see Q/s,
scaled by its largest entry s, which is read off the eigenbasis diagonal.

Every filter whose post-selected branch is a function of Q is diagonal in the
eigenbasis V of H, which is real for the real-symmetric Hamiltonians built
here: the exact filter, the dilation's sin(eps Q/s), and an exact FABLE
encoding's (Q/s) / 2^N.  They are simulated on a (2^n, R) batch of column
states: the batch enters once as C = V^dagger Psi, each filter (a beta, or an
epsilon) only rescales the rows of C, and a filtered batch leaves as V times
the rescaled coefficients, or not at all when only its energy is wanted.
`apply_exact` and `apply_dilated` are the one-state case.  No dense matrix
but H's eigenvectors is built on this path: the dilated unitary Omega only by
`dilated_omega`, the unitarity oracle and the artifact whose synthesis the
`resources` subcommand times, and Q/s only by `ThermalOperator.scaled`.
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

    Every filter normalizes its output, so the literal Q is never needed: the
    filters use the eigenvalues of Q/s, the scale s being the largest entry
    of the shifted Q.  `scaled`, the dense Q/s with max-abs entry 1, is built
    only when asked for, by the block-encoding synthesis and the tests.
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
    def _shifted_scale(self) -> float:
        # the shifted Q is positive definite, so |Q_ij| <= sqrt(Q_ii Q_jj) and
        # its largest entry is its largest diagonal one, sum_k |V_ik|^2 w_k,
        # summed in O(4^n) without a 2^n x 2^n temporary
        vecs = self.hamiltonian.eigenvectors
        diagonal = np.einsum("ik,ik,k->i", vecs, vecs.conj(),
                             self.shifted_weights())
        return float(np.max(diagonal.real))

    @cached_property
    def scaled(self) -> np.ndarray:
        """Q/s, real symmetric for the real-symmetric Hamiltonians used here."""
        vecs = self.hamiltonian.eigenvectors
        q = (vecs * self.shifted_weights()) @ vecs.conj().T
        return q / self._shifted_scale

    def scaled_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of `scaled`, sharing the Hamiltonian's eigenvectors."""
        return self.shifted_weights() / self._shifted_scale


# below these squared norms a filtered state is lost: ||Q psi|| under 1e-14
# cannot be normalized, and a post-selection under 1e-14 never succeeds
NORM_FLOOR = 1e-28
P0_FLOOR = 1e-14


def _basis_change(vecs: np.ndarray, amps: np.ndarray,
                  adjoint: bool = False) -> np.ndarray:
    """V amps, or V^dagger amps when `adjoint`, for a (2^n, m) batch of
    column states.

    A real V is never cast to complex: it multiplies the real and imaginary
    parts of amps, interleaved as column pairs, in one real product.
    """
    if np.iscomplexobj(vecs):
        return vecs.conj().T @ amps if adjoint else vecs @ amps
    parts = np.ascontiguousarray(amps, dtype=complex).view(float)
    out = (vecs.T if adjoint else vecs) @ parts.reshape(len(amps), -1)
    return out.view(complex).reshape(amps.shape)


def eigen_coefficients(h: DenseHermitian, amps: np.ndarray) -> np.ndarray:
    """C = V^dagger amps in H's eigenbasis, for a (2^n, R) batch of states."""
    return _basis_change(h.eigenvectors, amps, adjoint=True)


def check_norms(sq_norms: np.ndarray, floor: float) -> None:
    """Raise ZeroProbability when a squared norm (or P0) is below `floor`."""
    low = float(np.min(sq_norms))
    if low < floor:
        raise ZeroProbability(f"filtered squared norm {low:.3e} underflows")


def filter_states(h: DenseHermitian, weights: np.ndarray, coeffs: np.ndarray,
                  floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized V (weights * c) for each column c of the (2^n, R)
    coefficients, and each column's squared norm ||weights * c||^2.

    Raises ZeroProbability when a squared norm is below `floor`.
    """
    branch = weights[:, None] * coeffs
    sq_norms = np.einsum("ij,ij->j", branch.conj(), branch).real
    check_norms(sq_norms, floor)
    return _basis_change(h.eigenvectors, branch / np.sqrt(sq_norms)), sq_norms


def filter_energies(h: DenseHermitian, weights: np.ndarray, coeffs: np.ndarray,
                    floor: float) -> np.ndarray:
    """<H> of the normalized V (w * c) for each row w of `weights` and each
    column c of the (2^n, R) coefficients, as a (rows, R) array.

    <H> = sum_k lambda_k w_k^2 |c_k|^2 / sum_k w_k^2 |c_k|^2 never leaves the
    eigenbasis.  Raises ZeroProbability when a denominator is below `floor`.
    """
    probs = np.abs(coeffs) ** 2
    w2 = weights**2
    sq_norms = w2 @ probs
    check_norms(sq_norms, floor)
    return (w2 * h.eigenvalues) @ probs / sq_norms


def apply_exact(op: ThermalOperator, psi: StateVector) -> StateVector:
    """Normalized Q psi via the eigenbasis; never materializes Q."""
    h = op.hamiltonian
    coeffs = eigen_coefficients(h, psi.amps[:, None])
    states, _ = filter_states(h, op.shifted_weights(), coeffs, NORM_FLOOR)
    return StateVector(psi.n, states[:, 0])


@dataclass(frozen=True)
class DilationSpec:
    """Single-ancilla dilation of Q with performance parameter epsilon."""

    epsilon: float
    operator: ThermalOperator

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")

    def branch_weights(self) -> np.ndarray:
        """sin(eps q) per eigenvalue q of Q': the post-selected branch."""
        return np.sin(self.epsilon * self.operator.scaled_eigenvalues())


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
    h = op.hamiltonian
    coeffs = eigen_coefficients(h, psi.amps[:, None])
    weights = spec.branch_weights()
    states, p0 = filter_states(h, weights, coeffs, P0_FLOOR)
    p0 = float(p0[0])
    branch = weights * coeffs[:, 0]
    exact = op.shifted_weights() * coeffs[:, 0]
    fid = abs(np.vdot(branch, exact)) / (math.sqrt(p0) * np.linalg.norm(exact))
    # Cauchy-Schwarz bounds F by 1; round-off must not push it past
    return StateVector(psi.n, states[:, 0]), p0, min(1.0, float(fid))


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
