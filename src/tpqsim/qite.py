"""Quantum imaginary time evolution: unitary approximation of e^{-beta H / 2}.

The half-beta evolution is split into n_steps Trotter steps.  Within a step,
each Hamiltonian term h is handled in construction order: the normalized
target (e^{-dtau h} psi)/|| || - psi is fitted, in least squares, by the
action of -i dtau A psi with A expanded in the non-identity Pauli strings on a
bounded qubit window around h's support.  The fitted exponential is a
product of Pauli rotations (first-order split within the window).  Each
rotation advances the state in closed form, exp(-i x P) psi =
cos(x) psi - i sin(x) P psi (Motta et al., Nat. Phys. 16, 205, 2020), and
`qite_evolve` returns the kept rotations with the state.  No gate is built
during the evolution: `qite_circuit` emits the rotations as CNOT-ladder
gadgets, for resource counts and replay, and replaying that circuit
reproduces the evolution.

Sign convention: coefficients x solve (Re S + Re S^T + reg I) x = 2 b with
S_IJ = <psi| s_I s_J |psi> and b_J = Im <delta | s_J psi>, which minimizes
||delta + i sum_J x_J s_J psi||; each string then contributes exp(-i x_J s_J).
The solve runs in the eigenbasis of the symmetric matrix and drops
eigen-directions at round-off level: b has no component there, so keeping
them would only turn round-off into coefficients near the pruning threshold.
Validated against the exact dense filter, not against any external QITE code.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import DomainTooSmallWarning, SingularSystem
from .lattice import LatticeSpec
from .pauli import PauliSum, PauliTerm, pauli_string_action
from .random_state import sample_haar_state
from .statevector import StateVector


@dataclass(frozen=True)
class QiteSpec:
    beta: float
    n_steps: int = 10
    domain: int | None = None  # defaults to min(N, 3)
    reg: float = 1e-8
    prune_tol: float = 1e-10

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


def _window_basis(window: tuple[int, ...], n: int):
    """Permutation/phase actions for every non-identity Pauli string on window."""
    actions = []
    labels = []
    for ops in itertools.product("IXYZ", repeat=len(window)):
        placed = tuple((q, o) for q, o in zip(window, ops) if o != "I")
        if not placed:
            continue
        actions.append(pauli_string_action(PauliTerm(1.0, placed), n))
        labels.append(placed)
    return actions, labels


def qite_circuit(rotations, n: int) -> Circuit:
    """The gadget circuit of `rotations` on n qubits, for counts and replay.

    Each (placed, theta) pair, `placed` listing (qubit, letter) pairs in
    ascending qubit order as `PauliTerm.operators` does, becomes
    exp(-i theta/2 * PauliString): X and Y turned into Z (H, RX(pi/2)), a
    CNOT ladder up to the highest qubit, RZ(theta) there, and the inverse of
    the first half.
    """
    circuit = Circuit(n)
    for placed, theta in rotations:
        qubits = [q for q, _ in placed]
        into = [("h", (q,), None) if o == "X" else ("rx", (q,), math.pi / 2)
                for q, o in placed if o != "Z"]
        into += [("cnot", pair, None) for pair in zip(qubits, qubits[1:])]
        undo = [(k, qs, a and -a) for k, qs, a in reversed(into)]  # RX: -a
        for kind, qs, angle in into + [("rz", (qubits[-1],), theta)] + undo:
            circuit.append(kind, *qs, angle=angle)
    return circuit


def qite_evolve(spec: QiteSpec, h: PauliSum, psi: StateVector,
                lattice: LatticeSpec | None = None) -> tuple[StateVector, list]:
    """Approximate e^{-beta H / 2} psi; returns the state and its rotations.

    The rotations are the kept (placed, theta) pairs, exp(-i theta/2 P) in
    the order applied; `qite_circuit` emits their gates.
    """
    n = psi.n
    rotations = []
    if spec.beta == 0.0 or len(h) == 0:
        return psi.copy(), rotations
    d = spec.resolved_domain(n)
    max_weight = max(t.weight for t in h)
    if d < max_weight:
        warnings.warn(
            f"domain {d} smaller than max term support {max_weight}; "
            "fit quality will degrade", DomainTooSmallWarning, stacklevel=2)
    dtau = (spec.beta / 2.0) / spec.n_steps

    windows = [_term_window(t, n, d, lattice) for t in h]
    basis_cache: dict[tuple[int, ...], tuple] = {}
    for w in windows:
        if w not in basis_cache:
            basis_cache[w] = _window_basis(w, n)

    state = psi.amps.copy()
    shifted = np.empty_like(state)  # P state for the string P at hand
    for _ in range(spec.n_steps):
        for term, window in zip(h, windows):
            actions, labels = basis_cache[window]
            # e^{-dtau c P} = cosh(dtau c) I - sinh(dtau c) P on the term's string
            target_idx, phase = pauli_string_action(term, n)
            shifted[target_idx] = phase * state
            evolved = math.cosh(dtau * term.coefficient) * state \
                - math.sinh(dtau * term.coefficient) * shifted
            evolved /= np.linalg.norm(evolved)
            delta = evolved - state

            sigma_psi = np.empty((len(actions), state.size), dtype=complex)
            for i, (tgt, ph) in enumerate(actions):
                sigma_psi[i, tgt] = ph * state
            gram = sigma_psi.conj() @ sigma_psi.T
            s_sym = gram.real + gram.real.T
            b = 2.0 * (sigma_psi @ delta.conj()).imag
            x = _regularized_solve(s_sym, b, spec.reg)

            for x_j, (tgt, ph), placed in zip(x, actions, labels):
                if abs(x_j) > spec.prune_tol:
                    # exp(-i x P) = cos(x) I - i sin(x) P
                    shifted[tgt] = ph * state
                    state = math.cos(x_j) * state - 1j * math.sin(x_j) * shifted
                    rotations.append((placed, 2.0 * x_j))
    return StateVector(n, state), rotations


def _regularized_solve(s_sym: np.ndarray, b: np.ndarray, reg: float) -> np.ndarray:
    """(s_sym + reg I)^{-1} b on the eigen-directions of s_sym above round-off.

    Directions with eigenvalue at or below #strings * eps * lambda_max are
    null analytically (b is orthogonal to them), so they get coefficient 0.
    """
    try:
        lam, vecs = np.linalg.eigh(s_sym)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("QITE least-squares solve failed") from exc
    keep = lam > len(lam) * np.finfo(float).eps * lam[-1]
    vecs = vecs[:, keep]
    x = vecs @ ((vecs.T @ b) / (lam[keep] + reg))
    if not np.all(np.isfinite(x)):
        raise SingularSystem("QITE least-squares solve failed")
    return x


def qite_resources(spec: QiteSpec, h: PauliSum, n: int,
                   lattice: LatticeSpec | None = None,
                   seed: int = 0) -> tuple[int, float]:
    """CNOT count and wall-clock generation time for one QITE circuit.

    Uses a seeded Haar-random input; counts are additive across steps and
    terms by construction.
    """
    psi = sample_haar_state(n, seed)
    t0 = time.perf_counter()
    _, rotations = qite_evolve(spec, h, psi, lattice)
    return qite_circuit(rotations, n).cnot_count, time.perf_counter() - t0
