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
at its own beta and with its own fit, so a sweep over betas is one evolution
of its states tiled once per beta (`beta_groups` splits the betas into the
fewest groups whose evolutions fit physical memory).  A term's window, axis
orders, local string and per-column tanh are fixed once per call; a term
inside its window steps the window matrix alone.  The window unitary expands
each group of 4 consecutive rotations over the 16 ordered products of their
strings, which are fixed once per call, and multiplies the groups pairwise.
No gate is built during the evolution: it returns the window strings once,
for every column, and the angles as one (R, strings) array, 0 where pruned;
`qite_circuit` emits a row as CNOT-ladder gadgets, for resource counts and
replay, and replaying that circuit reproduces the evolution.

Sign convention: the coefficients x minimize ||delta + i sum_J x_J P_J psi||^2
+ _REG |x|^2 / 2, and each string then contributes exp(-i x_J P_J).  With
the window's qubits first, psi and delta are 2^d x 2^(n-d) matrices M and D;
the normal equations (Re S + Re S^T + _REG I) x = 2 b, S_IJ = <psi| P_I P_J
|psi> and b_J = Im <delta| P_J psi>, read only rho = M M^dagger and
C = -i (M D^dagger - D M^dagger).  They say that A = sum_J x_J P_J solves
A rho + rho A + (_REG / 2^d) A = C + mu I with Tr A = 0, which the
eigenbasis rho = U diag(p) U^dagger solves entry by entry:
(U^dagger A U)_ij = ((U^dagger C U)_ij + mu delta_ij) / (p_i + p_j + _REG / 2^d),
mu fixing the trace, and x_J = Tr(P_J A) / 2^d.  Every window takes this
one solve, also one whose rho is rank-deficient (always so when 2^(n-d) <
2^d): eigenvalues at round-off, p_i <= (4^d - 1) eps p_max, are set to 0,
and so is the null x null block of U^dagger C U, which is round-off too.
The normal equations' gram is then singular only on the traceless
null x null matrices, where b has no component, and the formula gives what
solving them with those directions dropped gives.
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
from .pauli import (
    PauliSum,
    PauliTerm,
    _check_budget,
    apply_pauli_sum,
    physical_memory,
)

# Tikhonov term of the least-squares solve, and the rotation angle at or
# below which a rotation is dropped
_REG = 1e-8
_PRUNE_TOL = 1e-10


@dataclass(frozen=True)
class QiteSpec:
    beta: float | tuple[float, ...]  # one for every column, or one per column
    n_steps: int = 10
    domain: int | None = None  # defaults to min(N, 3)

    def __post_init__(self):
        if not np.isscalar(self.beta):
            object.__setattr__(self, "beta", tuple(map(float, self.beta)))
        if np.any(np.asarray(self.beta) < 0):
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

    `rotations` is a pair of equal-length sequences, Pauli strings and
    angles; a zero angle emits nothing.  Each string `placed`, listing
    (qubit, letter) pairs in ascending qubit order as `PauliTerm.operators`
    does, with its angle theta becomes exp(-i theta/2 * PauliString): X and
    Y turned into Z (H, RX(pi/2)), a CNOT ladder up to the highest qubit,
    RZ(theta) there, and the inverse of the first half.
    """
    circuit = Circuit(n)
    placed_strings, thetas = rotations
    for placed, theta in zip(placed_strings, np.asarray(thetas).tolist()):
        if theta == 0.0:
            continue
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


def _evolve_bytes(n: int, d: int, r: int, term_steps: int) -> int:
    """Bytes an r-column evolution on n qubits with d-qubit windows holds:
    the string stack and its grouped-product basis (4 times as large), the
    `term_steps` term steps' labels, and per column 10 copies of its state
    (input, output and working copies, with those of `apply_pauli_sum` for a
    term outside its window), the group unitaries with their pairwise
    products, and its row of angles."""
    k = 4**d - 1
    return 16 * 4**d * (k + 4 * (k + 1)) + 8 * term_steps * k + r * (
        10 * 16 * 2**n + 6 * 16**d + 8 * term_steps * k)


def beta_groups(sweep: QiteSpec, h: PauliSum, n: int, r: int) -> int:
    """The fewest groups to split the betas of `sweep` into, each group
    evolving r states on n qubits tiled once per beta, whose evolutions fit
    physical memory; raises DimensionOverflow, before allocating, when one
    beta's does not."""
    d = sweep.resolved_domain(n)
    n_betas = len(sweep.beta)
    term_steps = sweep.n_steps * sum(t.weight > 0 for t in h)

    def nbytes(groups):
        return _evolve_bytes(n, d, r * -(-n_betas // groups), term_steps)

    groups = next((g for g in range(1, n_betas)
                   if nbytes(g) <= physical_memory()), n_betas)
    _check_budget(nbytes(groups), f"the QITE fit on a {d}-qubit window")
    return groups


@dataclass(frozen=True)
class _TermStep:
    """A term's constants within one call: its window's axis orders, its
    string as a window-local index (None when the window misses part of its
    support) or as a unit Pauli sum, and each column's tanh(dtau c)."""
    axes: tuple[int, ...]
    inverse: tuple[int, ...]
    local: int | None
    unit: PauliSum
    tanh: np.ndarray


def qite_evolve(spec: QiteSpec, h: PauliSum, states: np.ndarray,
                lattice: LatticeSpec | None = None
                ) -> tuple[np.ndarray, tuple[list, np.ndarray]]:
    """Approximate e^{-beta H / 2} on each column of the (2^n, R) batch
    `states`, at spec.beta or, if that is a tuple, at its k-th beta for
    column k; returns the evolved batch and its rotations.

    The rotations exp(-i theta/2 P), in the order applied, are one list
    `labels` of window strings P, shared by every column, and an
    (R, len(labels)) float64 array `thetas`, 0 where a rotation was pruned;
    `qite_circuit((labels, thetas[k]), n)` emits column k's gates.  A column
    at beta = 0 is returned as it is, with a row of zeros.  An identity
    term c I only scales the state, which the normalization undoes, so it
    is dropped.  Raises DimensionOverflow, before allocating, when the
    evolution exceeds physical memory.
    """
    h = PauliSum(tuple(t for t in h if t.weight))
    dim, r = states.shape
    n = dim.bit_length() - 1
    betas = np.broadcast_to(np.asarray(spec.beta, dtype=float), (r,))
    live = np.flatnonzero(betas)
    if len(live) == 0 or len(h) == 0:
        return np.array(states, dtype=complex), ([], np.zeros((r, 0)))
    d = spec.resolved_domain(n)
    max_weight = max(t.weight for t in h)
    if d < max_weight:
        warnings.warn(
            f"domain {d} smaller than max term support {max_weight}; "
            "fit quality will degrade", DomainTooSmallWarning, stacklevel=2)
    term_steps = spec.n_steps * len(h)
    _check_budget(_evolve_bytes(n, d, len(live), term_steps),
                  f"the QITE fit on a {d}-qubit window")

    strings, paulis = _window_strings(d)
    basis = _product_basis(paulis)
    index = {s: j for j, s in enumerate(strings)}
    dtaus = betas[live, None, None] / 2.0 / spec.n_steps  # (R, 1, 1)
    windows = [_term_window(t, n, d, lattice) for t in h]
    placed = {w: [tuple((w[i], o) for i, o in s) for s in strings]
              for w in dict.fromkeys(windows)}
    labels = [s for w in windows for s in placed[w]] * spec.n_steps
    terms = []
    for term, window in zip(h, windows):
        axes = _window_axes(window, n)
        local = tuple((window.index(q), o) for q, o in term.operators) \
            if set(term.support) <= set(window) else None
        c = term.coefficient
        terms.append(_TermStep(
            axes, tuple(np.argsort(axes)), index.get(local),
            PauliSum((PauliTerm(1.0, term.operators),)),
            np.tanh(dtaus * c)))

    thetas = np.zeros((r, term_steps, len(strings)))
    r = len(live)
    sub = np.asarray(states[:, live], dtype=complex)
    for i, t in enumerate(terms * spec.n_steps):
        m = _to_window(sub, t.axes, d)
        # e^{-dtau c P} = cosh(dtau c) (I - tanh(dtau c) P) on the term's
        # string; the target is normalized, so the cosh, which overflows at
        # large dtau c, drops out
        if t.local is None:
            pm = _to_window(apply_pauli_sum(sub, n, t.unit), t.axes, d)
        else:
            pm = paulis[t.local] @ m
        evolved = m - t.tanh * pm
        evolved /= np.linalg.norm(evolved, axis=(1, 2))[:, None, None]
        evolved -= m
        x = _fit(paulis, m, evolved)
        x[np.abs(x) <= _PRUNE_TOL] = 0.0
        thetas[live, i] = 2.0 * x
        m = _window_unitary(basis, x) @ m
        sub = m.reshape((r,) + (2,) * n).transpose(t.inverse).reshape(dim, r)
    state = np.array(states, dtype=complex)
    state[:, live] = sub
    return state, (labels, thetas.reshape(len(thetas), -1))


def _product_basis(paulis: np.ndarray) -> np.ndarray:
    """The (4^(d-1), 16, 2^d, 2^d) ordered products of the window strings in
    groups of 4 consecutive ones, the stack padded with the identity to 4^d:
    entry [g, s] is the product, highest first, of the strings 4g + i whose
    bit i is set in s."""
    dim = paulis.shape[-1]
    groups = np.concatenate([paulis, np.eye(dim)[None]]).reshape(
        -1, 4, dim, dim)
    basis = np.broadcast_to(np.eye(dim), (len(groups), 1, dim, dim))
    for i in range(4):
        basis = np.concatenate([basis, groups[:, i, None] @ basis], axis=1)
    return basis


def _window_unitary(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(-i x_{k-1} P_{k-1}) ... exp(-i x_0 P_0) for each row of the
    (R, k) coefficients x, from the grouped-product basis of the k strings.

    Each group's product of (cos x I - i sin x P) is the sum over subsets s
    of its 4 rotations of basis[g, s] times the product of -i sin x over s
    and cos x over the rest: one batched product for all groups.  The
    4^(d-1) groups, a power of two, are then multiplied pairwise.
    """
    r, (groups, _, dim, _) = len(x), basis.shape
    pad = np.zeros((r, 4 * groups - x.shape[1]))  # exp(-i 0 I) = I
    x = np.concatenate([x, pad], axis=1).reshape(r, groups, 4)
    factors = np.stack([np.cos(x), -1j * np.sin(x)], axis=-1)
    coeffs = factors[:, :, 0]
    for i in range(1, 4):
        coeffs = (factors[:, :, i, :, None] * coeffs[:, :, None]).reshape(
            r, groups, -1)
    mats = (coeffs.transpose(1, 0, 2) @ basis.reshape(groups, 16, -1)) \
        .reshape(groups, r, dim, dim)
    while len(mats) > 1:
        mats = mats[1::2] @ mats[::2]
    return mats[0]


def _pauli_traces(paulis: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Re Tr(P_J X) for each string J and each X of an (R, D, D) stack; as
    Re(X . conj P) = Re(conj X . P), the fixed strings are not conjugated."""
    return (mats.reshape(len(mats), -1).conj()
            @ paulis.reshape(len(paulis), -1).T).real


def _fit(paulis: np.ndarray, m: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The (R, 4^d - 1) coefficients x of each column's window fit, from its
    (2^d, 2^(n-d)) matrices M and D (see the module docstring)."""
    dim = m.shape[1]
    rho = m @ m.conj().mT
    cross = m @ delta.conj().mT
    c = -1j * (cross - cross.conj().mT)
    try:
        p, u = np.linalg.eigh(rho)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("QITE least-squares solve failed") from exc
    # round-off eigenvalues are null, and C has no null x null part
    null = p <= len(paulis) * np.finfo(float).eps * p[:, -1:]
    p[null] = 0.0
    c_eig = u.conj().mT @ c @ u
    c_eig[null[:, :, None] & null[:, None, :]] = 0.0
    denom = p[:, :, None] + p[:, None, :] + _REG / dim
    inv_diag = 1.0 / np.diagonal(denom, axis1=1, axis2=2)
    mu = -np.einsum("rii,ri->r", c_eig, inv_diag).real / inv_diag.sum(axis=1)
    a = u @ ((c_eig + mu[:, None, None] * np.eye(dim)) / denom) @ u.conj().mT
    x = _pauli_traces(paulis, a) / dim
    if not np.all(np.isfinite(x)):
        raise SingularSystem("QITE least-squares solve failed")
    return x
