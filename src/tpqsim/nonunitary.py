"""The imaginary-time filter Q = e^{-beta H / 2}: exact and dilated-unitary forms.

All downstream quantities are normalized ratios, so Q may be rescaled freely;
internally the spectrum is shifted by the ground-state energy before
exponentiating to keep weights in (0, 1], and the circuit backends see Q/s,
scaled by its largest entry s, which is read off the eigenbasis diagonal.

Every filter whose post-selected branch is a function of Q is diagonal in the
eigenbasis V of H, which is real for the real-symmetric Hamiltonians built
here, so each is one array of weights on H's spectrum, in the block order
of `DenseHermitian`, one row per beta: `thermal_weights` is the exact
filter, and `scaled_weights` turns it into the eigenvalues q of Q/s, from
which the dilation's branch is sin(eps q) and an exact FABLE encoding's
q / 2^N.  They are simulated on a (2^n, R) batch of column states: the batch
enters once as C = V^dagger Psi, each row of weights only rescales the rows
of C, and a filtered batch leaves as V times the rescaled coefficients, or
not at all when only its energy is wanted.  Both transforms go through H's
symmetry blocks (`DenseHermitian.to_eigenbasis` and `from_eigenbasis`), so
the exact filter builds no 2^n x 2^n matrix.  `apply_dilated` reads one
state's dilated energy, post-selection probability and fidelity off its
coefficients, and forms no filtered state.  The scale s of Q/s, which the
dilated and FABLE filters need, is read from V a slab of columns at a
time; the full V is assembled only with the dense artifacts that are 4^n
themselves: the dilated unitary Omega, built only by `dilated_omega`, the
unitarity oracle and the artifact whose synthesis the `resources`
subcommand times, and the dense Q/s, built only by `scaled_filter`, the
matrix that `resources` block-encodes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroProbability
from .pauli import DenseHermitian, _check_budget
from .statevector import StateVector


def thermal_weights(h: DenseHermitian, betas) -> np.ndarray:
    """e^{-beta (lambda - lambda_min) / 2} on H's spectrum in block order, all
    in (0, 1]: the exact filter, one row per beta of a 1-D `betas` (one row
    for a scalar)."""
    betas = np.asarray(betas, dtype=float)
    if np.any(betas < 0):
        raise ValueError("beta must be >= 0")
    vals = h.eigenvalues
    # a huge beta overflows the exponent to -inf off the ground space, whose
    # weight e^-inf = 0 is already the limit, so the overflow is not an error
    with np.errstate(over="ignore"):
        exponents = np.multiply.outer(-betas, vals - vals.min())
    return np.exp(exponents / 2.0)


def scaled_weights(h: DenseHermitian, weights: np.ndarray) -> np.ndarray:
    """Each row w of `weights` divided by its scale s = max_i sum_k |V_ik|^2
    w_k: for the exact filter's rows, the eigenvalues of Q/s.

    The shifted Q = V diag(w) V^dagger is positive definite, so |Q_ij| <=
    sqrt(Q_ii Q_jj) and its largest entry s is its largest diagonal one.
    Every row's diagonal is summed at once, slab by slab of V's columns
    (`DenseHermitian.slabs`): each slab is squared in place and multiplied
    by its columns of the rows, in one product, so V is never whole.
    """
    rows = np.reshape(weights, (-1, h.dim))
    diagonals = np.zeros((h.dim, len(rows)))
    for cols, slab in h.slabs():
        probs = np.abs(slab) if np.iscomplexobj(slab) else slab
        diagonals += np.square(probs, out=probs) @ rows[:, cols].T
    scales = diagonals.max(axis=0)
    return weights / np.reshape(scales, np.shape(weights)[:-1] + (1,))


def scaled_filter(h: DenseHermitian, beta: float) -> np.ndarray:
    """The dense Q/s, real symmetric for the real-symmetric Hamiltonians used
    here: Q is positive definite, so its max-abs entry s is on its diagonal."""
    vecs = h.eigenvectors
    q = (vecs * thermal_weights(h, beta)) @ vecs.conj().T
    return q / q.diagonal().real.max()


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
                    floor: float) -> tuple[np.ndarray, np.ndarray]:
    """<H> of the normalized V (w * c) for each row w of `weights` and each
    column c of the (2^n, R) coefficients, and its squared norm
    ||w * c||^2, as two (rows, R) arrays.

    <H> = sum_k lambda_k w_k^2 |c_k|^2 / sum_k w_k^2 |c_k|^2 never leaves the
    eigenbasis.  Raises ZeroProbability when a denominator is below `floor`.
    """
    probs = np.abs(coeffs) ** 2
    w2 = weights**2
    sq_norms = w2 @ probs
    check_norms(sq_norms, floor)
    return (w2 * h.eigenvalues) @ probs / sq_norms, sq_norms


def check_omega_fits(n: int, dtype: np.dtype) -> None:
    """Raise DimensionOverflow when `dilated_omega` on n system qubits, with
    H's eigenvectors of `dtype`, would exceed physical memory: V and what
    builds Omega take at most 6.6 matrices of H's size at 7 and 8 sites,
    Omega being 4."""
    _check_budget(7 * np.dtype(dtype).itemsize * 4**n,
                  f"the dilated unitary on n={n} + 1 qubits")


def dilated_omega(h: DenseHermitian, beta: float, epsilon: float) -> np.ndarray:
    """exp(i eps [[0, -iQ'], [iQ', 0]]) = [[cos(eps Q'), sin(eps Q')],
    [-sin(eps Q'), cos(eps Q')]] for Q' = Q/s, with the ancilla as the most
    significant qubit.

    Each block is computed into its quadrant of the preallocated Omega.
    Raises ValueError unless epsilon > 0, and DimensionOverflow, before
    allocating, when Omega does not fit (`check_omega_fits`).
    """
    weights = thermal_weights(h, beta)
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    check_omega_fits(h.n_qubits, h.dtype)
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
                  exact: np.ndarray) -> tuple[float, float, float]:
    """Dilated application of Q to one state: the (energy, P0, fidelity F)
    of its post-selected state.

    The ancilla starts in |1>, Omega is applied, and the ancilla is
    post-selected in |0>; the surviving branch b = sin(eps Q') psi is
    diagonal in H's eigenbasis, so neither Omega nor b is built: `branch`
    holds sin(eps q) for the eigenvalues q of Q' and `exact` the exact
    filter's weights e.  With p_k = |c_k|^2 of psi's coefficients c,
    `filter_energies` gives the energy and P0 = sum_k b_k^2 p_k, and F =
    |sum_k b_k e_k p_k| / sqrt(P0 sum_k e_k^2 p_k) is the overlap magnitude
    with the exact filtered state.  Raises ZeroProbability when P0 underflows.
    """
    coeffs = h.to_eigenbasis(psi.amps[:, None])
    [[energy]], [[p0]] = filter_energies(h, branch[None], coeffs, P0_FLOOR)
    probs = np.abs(coeffs[:, 0]) ** 2
    fid = abs((branch * exact) @ probs) / math.sqrt(p0 * (exact**2 @ probs))
    # Cauchy-Schwarz bounds F by 1; round-off must not push it past
    return float(energy), float(p0), min(1.0, float(fid))


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
