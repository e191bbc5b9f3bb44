"""The imaginary-time filter Q = e^{-beta H / 2}: exact and dilated-unitary forms.

All downstream quantities are normalized ratios, so Q may be rescaled freely;
internally the spectrum is shifted by the ground-state energy before
exponentiating to keep weights in (0, 1], and the circuit backends see Q/s,
scaled by its largest entry s, which is read off the eigenbasis diagonal.

Every filter whose post-selected branch is a function of Q is diagonal in the
eigenbasis V of H, which is real for the real-symmetric Hamiltonians built
here, so each is one array of weights on H's spectrum, one row per beta:
`thermal_weights` is the exact filter, and `scaled_weights` turns it into the
eigenvalues q of Q/s, from which the dilation's branch is sin(eps q) and an
exact FABLE encoding's q / 2^N.  They are simulated on a (2^n, R) batch of
column states: the batch enters once as C = V^dagger Psi, each row of weights
only rescales the rows of C, and a filtered batch leaves as V times the
rescaled coefficients, or not at all when only its energy is wanted.  Both
transforms go through H's symmetry blocks (`DenseHermitian.to_eigenbasis` and
`from_eigenbasis`), so the exact filter builds no 2^n x 2^n matrix.
`apply_dilated` filters one state and also returns its post-selection
probability and fidelity.  The full V is assembled only for the scale s of
Q/s, which the dilated and FABLE filters need; the dilated unitary Omega is
built only by `dilated_omega`, the unitarity oracle and the artifact whose
synthesis the `resources` subcommand times, and the dense Q/s only by
`scaled_filter`, the matrix that `resources` block-encodes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroProbability
from .pauli import DenseHermitian, _check_budget
from .statevector import StateVector


def thermal_weights(h: DenseHermitian, betas) -> np.ndarray:
    """e^{-beta (lambda - lambda_min) / 2} on H's ascending spectrum, all in
    (0, 1]: the exact filter, one row per beta of a 1-D `betas` (one row for
    a scalar)."""
    betas = np.asarray(betas, dtype=float)
    if np.any(betas < 0):
        raise ValueError("beta must be >= 0")
    vals = h.eigenvalues
    return np.exp(np.multiply.outer(-betas, vals - vals[0]) / 2.0)


def scaled_weights(h: DenseHermitian, weights: np.ndarray) -> np.ndarray:
    """Each row w of `weights` divided by its scale s = max_i sum_k |V_ik|^2
    w_k: for the exact filter's rows, the eigenvalues of Q/s.

    The shifted Q = V diag(w) V^dagger is positive definite, so |Q_ij| <=
    sqrt(Q_ii Q_jj) and its largest entry s is its largest diagonal one,
    summed in O(4^n) per row without a 2^n x 2^n temporary.
    """
    vecs = h.eigenvectors
    scales = [np.max(np.einsum("ik,ik,k->i", vecs, vecs.conj(), w).real)
              for w in np.reshape(weights, (-1, h.dim))]
    return weights / np.reshape(scales, np.shape(weights)[:-1] + (1,))


def scaled_filter(h: DenseHermitian, beta: float) -> np.ndarray:
    """The dense Q/s, max-abs entry 1; real symmetric for the real-symmetric
    Hamiltonians used here."""
    vecs = h.eigenvectors
    return (vecs * scaled_weights(h, thermal_weights(h, beta))) @ vecs.conj().T


# below these squared norms a filtered state is lost: ||Q psi|| under 1e-14
# cannot be normalized, and a post-selection under 1e-14 never succeeds
NORM_FLOOR = 1e-28
P0_FLOOR = 1e-14


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
    return h.from_eigenbasis(branch / np.sqrt(sq_norms)), sq_norms


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


def dilated_omega(h: DenseHermitian, beta: float, epsilon: float) -> np.ndarray:
    """exp(i eps [[0, -iQ'], [iQ', 0]]) = [[cos(eps Q'), sin(eps Q')],
    [-sin(eps Q'), cos(eps Q')]] for Q' = Q/s, with the ancilla as the most
    significant qubit.

    Each block is computed into its quadrant of the preallocated Omega.
    Raises ValueError unless epsilon > 0, and DimensionOverflow, before
    allocating, when V and what builds Omega (at most 6.6 matrices of H's
    size at 7 and 8 sites, Omega being 4) exceed physical memory.
    """
    weights = thermal_weights(h, beta)
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    _check_budget(7 * h.blocks[0].itemsize * h.dim**2,
                  f"the dilated unitary on n={h.n_qubits} + 1 qubits")
    vecs = h.eigenvectors
    angles = epsilon * scaled_weights(h, weights)
    omega = np.empty((2 * h.dim, 2 * h.dim), vecs.dtype)
    cos_b, sin_b = omega[:h.dim, :h.dim], omega[:h.dim, h.dim:]
    np.matmul(vecs * np.cos(angles), vecs.conj().T, out=cos_b)
    np.matmul(vecs * np.sin(angles), vecs.conj().T, out=sin_b)
    omega[h.dim:, h.dim:] = cos_b
    np.negative(sin_b, out=omega[h.dim:, :h.dim])
    return omega


def apply_dilated(h: DenseHermitian, psi: StateVector, branch: np.ndarray,
                  exact: np.ndarray) -> tuple[StateVector, float, float]:
    """Dilated application of Q to one state: returns (post-selected state,
    P0, fidelity F).

    The ancilla starts in |1>, Omega is applied, and the ancilla is
    post-selected in |0>; the surviving branch is b = sin(eps Q') psi, which
    is diagonal in H's eigenbasis, so Omega itself is never built: `branch`
    holds sin(eps q) for the eigenvalues q of Q' and `exact` the exact
    filter's weights.  P0 is ||b||^2 and F the overlap magnitude with the
    exact filtered state, in [0, 1].
    Raises ZeroProbability when P0 underflows.
    """
    coeffs = h.to_eigenbasis(psi.amps[:, None])
    states, p0 = filter_states(h, branch, coeffs, P0_FLOOR)
    p0 = float(p0[0])
    filtered = branch * coeffs[:, 0]
    ideal = exact * coeffs[:, 0]
    fid = abs(np.vdot(filtered, ideal)) / (math.sqrt(p0) * np.linalg.norm(ideal))
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
