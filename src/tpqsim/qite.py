"""Quantum imaginary time evolution: unitary approximation of e^{-beta H / 2}.

The half-beta evolution is split into n_steps Trotter steps.  Within a step,
each Hamiltonian term h is handled in construction order: the normalized
target (e^{-dtau h} psi)/|| || - psi is fitted, in least squares, by the
action of -i dtau A psi with A expanded in the non-identity Pauli strings on a
bounded qubit window around h's support.  The fitted exponential is a
product of Pauli rotations exp(-i x P) = cos(x) I - i sin(x) P (first-order
split within the window, Motta et al., Nat. Phys. 16, 205, 2020), which is
multiplied out into one 2^d x 2^d window unitary and applied to the state.
`qite_evolve` evolves a whole (2^n, R) batch of states at once, every column
with its own fit, and returns each column's kept rotations with the batch.
No gate is built during the evolution: `qite_circuit` emits the rotations as
CNOT-ladder gadgets, for resource counts and replay, and replaying that
circuit reproduces the evolution.

Sign convention: the coefficients x minimize ||delta + i sum_J x_J P_J psi||^2
+ _REG |x|^2 / 2, and each string then contributes exp(-i x_J P_J).  With
the window's qubits first, psi and delta are 2^d x 2^(n-d) matrices M and D;
the normal equations (Re S + Re S^T + _REG I) x = 2 b, S_IJ = <psi| P_I P_J
|psi> and b_J = Im <delta| P_J psi>, read only rho = M M^dagger and
C = -i (M D^dagger - D M^dagger).  They say that A = sum_J x_J P_J solves
A rho + rho A + (_REG / 2^d) A = C + mu I with Tr A = 0, which the
eigenbasis rho = U diag(p) U^dagger solves entry by entry:
(U^dagger A U)_ij = ((U^dagger C U)_ij + mu delta_ij) / (p_i + p_j + _REG / 2^d),
mu fixing the trace, and x_J = Tr(P_J A) / 2^d.  A window whose rho is
rank-deficient at round-off (p_min <= (4^d - 1) eps p_max) instead solves the
normal equations in the eigenbasis of their symmetric matrix, dropping
eigen-directions at round-off level: b has no component there, so keeping
them would only turn round-off into coefficients near the pruning threshold.
Validated against the exact dense filter, not against any external QITE code.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import DomainTooSmallWarning, SingularSystem
from .lattice import LatticeSpec
from .pauli import PauliSum, PauliTerm, _check_budget, apply_pauli_sum

# Tikhonov term of the least-squares solve, and the rotation angle at or
# below which a rotation is dropped
_REG = 1e-8
_PRUNE_TOL = 1e-10


@dataclass(frozen=True)
class QiteSpec:
    beta: float
    n_steps: int = 10
    domain: int | None = None  # defaults to min(N, 3)

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.domain is not None and self.domain < 1:
            raise ValueError("domain must be >= 1")

    def resolved_domain(self, n: int) -> int:
        d = self.domain if self.domain is not None else min(n, 3)
        if d > n:
            raise ValueError(f"domain {d} exceeds system size {n}")
        return d


def _term_window(term: PauliTerm, n: int, d: int,
                 lattice: LatticeSpec | None) -> tuple[int, ...]:
    """Qubit window of size d covering (as far as possible) the term support."""
    support = term.support
    if lattice is not None and lattice.dimension == 2:
        # d sites nearest the support in Manhattan distance, ties by index
        def dist(q):
            qc = lattice.site_coords(q)
            return min(abs(qc[0] - lattice.site_coords(s)[0])
                       + abs(qc[1] - lattice.site_coords(s)[1]) for s in support)

        ranked = sorted(range(n), key=lambda q: (dist(q), q))
        return tuple(sorted(ranked[:d]))
    lo, hi = min(support), max(support)
    center = (lo + hi) / 2.0
    start = int(round(center - (d - 1) / 2.0))
    start = max(0, min(start, n - d))
    return tuple(range(start, start + d))


def qite_circuit(rotations, n: int) -> Circuit:
    """The gadget circuit of `rotations` on n qubits, for counts and replay.

    `rotations` is a pair of equal-length lists, Pauli strings and angles.
    Each string `placed`, listing (qubit, letter) pairs in ascending qubit
    order as `PauliTerm.operators` does, with its angle theta becomes
    exp(-i theta/2 * PauliString): X and Y turned into Z (H, RX(pi/2)), a
    CNOT ladder up to the highest qubit, RZ(theta) there, and the inverse of
    the first half.
    """
    circuit = Circuit(n)
    for placed, theta in zip(*rotations):
        qubits = [q for q, _ in placed]
        into = [("h", (q,), None) if o == "X" else ("rx", (q,), math.pi / 2)
                for q, o in placed if o != "Z"]
        into += [("cnot", pair, None) for pair in zip(qubits, qubits[1:])]
        undo = [(k, qs, a and -a) for k, qs, a in reversed(into)]  # RX: -a
        for kind, qs, angle in into + [("rz", (qubits[-1],), theta)] + undo:
            circuit.append(kind, *qs, angle=angle)
    return circuit


def _window_strings(d: int) -> tuple[list, np.ndarray]:
    """The 4^d - 1 non-identity strings on d window qubits, as local
    (position, letter) tuples and as a (4^d - 1, 2^d, 2^d) matrix stack;
    window position i is bit i of the local index."""
    strings = [tuple((i, o) for i, o in enumerate(ops) if o != "I")
               for ops in itertools.product("IXYZ", repeat=d)][1:]
    eye = np.eye(1 << d)
    return strings, np.array([apply_pauli_sum(eye, d, PauliSum((
        PauliTerm(1.0, s),))) for s in strings])


def _window_axes(window: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The axis order of a (2,)*n + (R,) view of a batch that puts the batch
    axis first, then the window's qubits, highest first, then the rest; so a
    reshape to (R, 2^d, 2^(n-d)) gives each column's matrix M."""
    front = [n - 1 - q for q in reversed(window)]
    return (n, *front, *(k for k in range(n) if k not in front))


def _to_window(batch: np.ndarray, axes: tuple[int, ...], d: int) -> np.ndarray:
    """The (R, 2^d, 2^(n-d)) stack of window matrices M of a (2^n, R) batch,
    for the axis order `axes` of `_window_axes`."""
    r = batch.shape[1]
    return batch.reshape((2,) * (len(axes) - 1) + (r,)).transpose(axes) \
        .reshape(r, 1 << d, -1)


def qite_evolve(spec: QiteSpec, h: PauliSum, states: np.ndarray,
                lattice: LatticeSpec | None = None) -> tuple[np.ndarray, list]:
    """Approximate e^{-beta H / 2} on each column of the (2^n, R) batch
    `states`; returns the evolved batch and each column's rotations.

    A column's rotations are its kept exp(-i theta/2 P) in the order applied,
    as a list of strings P and a list of angles theta; `qite_circuit` emits
    their gates.  Raises DimensionOverflow, before allocating, when the
    fit's window matrices exceed physical memory.
    """
    dim, r = states.shape
    n = dim.bit_length() - 1
    rotations = [([], []) for _ in range(r)]
    if spec.beta == 0.0 or len(h) == 0:
        return np.array(states, dtype=complex), rotations
    d = spec.resolved_domain(n)
    max_weight = max(t.weight for t in h)
    if d < max_weight:
        warnings.warn(
            f"domain {d} smaller than max term support {max_weight}; "
            "fit quality will degrade", DomainTooSmallWarning, stacklevel=2)
    # the string stack, and per column its rotation stack, their first
    # pairwise products, and P L and the gram of a rank-deficient fit
    k = 4**d - 1
    _check_budget(16 * k * 4**d * (1 + 3 * r) + 32 * r * k**2,
                  f"the QITE fit on a {d}-qubit window")
    dtau = (spec.beta / 2.0) / spec.n_steps

    strings, paulis = _window_strings(d)
    windows = [_term_window(t, n, d, lattice) for t in h]
    labels = {w: [tuple((w[i], o) for i, o in s) for s in strings]
              for w in dict.fromkeys(windows)}
    units = [PauliSum((PauliTerm(1.0, t.operators),)) for t in h]

    state = np.array(states, dtype=complex)
    for _ in range(spec.n_steps):
        for term, window, unit in zip(h, windows, units):
            # e^{-dtau c P} = cosh(dtau c) I - sinh(dtau c) P on the term's string
            c = term.coefficient
            evolved = math.cosh(dtau * c) * state \
                - math.sinh(dtau * c) * apply_pauli_sum(state, n, unit)
            evolved /= np.linalg.norm(evolved, axis=0)

            axes = _window_axes(window, n)
            m = _to_window(state, axes, d)
            delta = _to_window(evolved, axes, d) - m
            x = _fit(paulis, m, delta)
            x[np.abs(x) <= _PRUNE_TOL] = 0.0

            # exp(-i x P) = cos(x) I - i sin(x) P; a pruned one is I exactly
            steps = np.cos(x)[..., None, None] * np.eye(1 << d) \
                - 1j * np.sin(x)[..., None, None] * paulis
            m = _ordered_product(steps) @ m
            state = m.reshape((r,) + (2,) * n).transpose(np.argsort(axes)) \
                .reshape(dim, r)
            for (placed, thetas), xs in zip(rotations, x):
                kept = np.flatnonzero(xs)
                placed.extend(labels[window][j] for j in kept)
                thetas.extend((2.0 * xs[kept]).tolist())
    return state, rotations


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[:, -1] @ ... @ mats[:, 0] for each row of an (R, k, D, D) stack,
    by pairwise batched products."""
    while mats.shape[1] > 1:
        pairs = mats[:, 1::2] @ mats[:, :-1:2]
        mats = np.concatenate([pairs, mats[:, -1:]], axis=1) \
            if mats.shape[1] % 2 else pairs
    return mats[:, 0]


def _pauli_traces(paulis: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Re Tr(P_J X) for each string J and each X of an (R, D, D) stack."""
    return (mats.reshape(len(mats), -1)
            @ paulis.reshape(len(paulis), -1).conj().T).real


def _fit(paulis: np.ndarray, m: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The (R, 4^d - 1) coefficients x of each column's window fit, from its
    (2^d, 2^(n-d)) matrices M and D (see the module docstring)."""
    dim = m.shape[1]
    rho = m @ m.conj().mT
    cross = m @ delta.conj().mT
    c = -1j * (cross - cross.conj().mT)
    x = np.zeros((len(m), len(paulis)))
    deficient = np.ones(len(m), dtype=bool)
    if m.shape[2] >= dim:  # else every rho has rank below 2^d
        p, u = np.linalg.eigh(rho)
        deficient = p[:, 0] <= len(paulis) * np.finfo(float).eps * p[:, -1]
        denom = p[:, :, None] + p[:, None, :] + _REG / dim
        c_eig = u.conj().mT @ c @ u
        inv_diag = 1.0 / np.diagonal(denom, axis1=1, axis2=2)
        mu = -np.einsum("rii,ri->r", c_eig, inv_diag).real / inv_diag.sum(axis=1)
        a = u @ ((c_eig + mu[:, None, None] * np.eye(dim)) / denom) @ u.conj().mT
        x = _pauli_traces(paulis, a) / dim
    if deficient.any():
        # S_IJ = 2 Re Tr(L^dagger P_I P_J L) for a factor rho = L L^dagger,
        # the thinner of M and U sqrt(p); 2 b_J = Tr(P_J C)
        factor = m if m.shape[2] < dim \
            else u * np.sqrt(np.maximum(p, 0.0))[:, None]
        sigma = (paulis @ factor[deficient][:, None]).reshape(
            deficient.sum(), len(paulis), -1)
        x[deficient] = _regularized_solve(2.0 * (sigma.conj() @ sigma.mT).real,
                                          _pauli_traces(paulis, c[deficient]))
    return x


def _regularized_solve(s_sym: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(s_sym + _REG I)^{-1} b for each (k, k) system and (k,) right side of
    a stack, on the eigen-directions of s_sym above round-off.

    Directions with eigenvalue at or below k * eps * lambda_max are null
    analytically (b is orthogonal to them), so they get coefficient 0.
    """
    try:
        lam, vecs = np.linalg.eigh(s_sym)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("QITE least-squares solve failed") from exc
    keep = lam > lam.shape[-1] * np.finfo(float).eps * lam[:, -1:]
    coeffs = np.where(keep, (b[:, None, :] @ vecs)[:, 0] / (lam + _REG), 0.0)
    x = (vecs @ coeffs[:, :, None])[:, :, 0]
    if not np.all(np.isfinite(x)):
        raise SingularSystem("QITE least-squares solve failed")
    return x
