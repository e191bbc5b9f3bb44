import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from tpqsim import (
    LatticeSpec,
    PauliSum,
    PauliTerm,
    ZeroProbability,
    build_heisenberg,
    qite_evolve,
)
from tpqsim.nonunitary import (
    dilated_omega,
    scaled_filter,
    scaled_weights,
    thermal_weights,
)
from tpqsim.pauli import DenseHermitian, _diagonal, _masks
from tpqsim.statevector import StateVector, _apply_gate, apply_circuit

# kron helpers for independent dense oracles (qubit 0 = least significant,
# so the operator on qubit q sits at kron position n-1-q)
I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def kron_chain(n, placed):
    """Dense operator with single-qubit matrices `placed` = {qubit: 2x2}."""
    out = np.array([[1.0 + 0j]])
    for q in reversed(range(n)):
        out = np.kron(out, placed.get(q, I2))
    return out


def kron_matrix(terms, n):
    """The dense sum of Pauli terms, term by term from Kronecker products:
    the oracle of H that shares no code with `to_dense`."""
    mats = {"X": SX, "Y": SY, "Z": SZ}
    ref = np.zeros((2**n, 2**n), dtype=complex)
    for term in terms:
        ref += term.coefficient * kron_chain(
            n, {q: mats[o] for q, o in term.operators})
    return ref


def ascending(dense):
    """The eigenbasis indices of a DenseHermitian by ascending eigenvalue,
    ties in block order: its eigenbasis is kept block by block, unsorted, so
    [0] names a ground state and [-1] a top state."""
    return np.argsort(dense.eigenvalues, kind="stable")


def thermal_scale(h, beta):
    """s such that e^{-beta H / 2} = s * scaled_filter(h, beta): the shifted
    filter's weight on the ground state is 1, so Q/s has 1/s there."""
    ground = ascending(h)[0]
    scaled = scaled_weights(h, thermal_weights(h, beta))
    lam_min = float(h.eigenvalues[ground])
    return math.exp(-beta * lam_min / 2.0) / scaled[ground]


def random_pauli_sum(n, count, seed):
    """X0 Y1 Z2, whose single Y makes the sum complex, plus `count` random
    strings of 1 to 5 letters drawn from X, Y and Z."""
    rng = np.random.default_rng(seed)
    terms = [PauliTerm(0.3, ((0, "X"), (1, "Y"), (2, "Z")))]
    for _ in range(count):
        k = int(rng.integers(1, min(n, 5) + 1))
        qubits = rng.choice(n, size=k, replace=False).tolist()
        letters = rng.choice(list("XYZ"), size=k).tolist()
        terms.append(PauliTerm(rng.normal(), tuple(zip(qubits, letters))))
    return PauliSum(tuple(terms))


def even_y(h):
    return PauliSum(tuple(t for t in h
                          if sum(o == "Y" for _, o in t.operators) % 2 == 0))


# 20 strings on 3 qubits share flip masks; the even-Y sum is real
RANDOM_SUMS = {"random3": (random_pauli_sum(3, 20, 1), 3),
               "random5": (random_pauli_sum(5, 12, 0), 5),
               "random5_even_y": (even_y(random_pauli_sum(5, 12, 0)), 5)}


BLOCK_CASES = {
    # every XYZ + hx chain or grid: two parity sectors, each split by the
    # qubit-order reversal (a chain's mirror, a grid's 180-degree rotation)
    "chain8": (build_heisenberg(LatticeSpec(1, (8,))), 8, 4),
    "chain5": (build_heisenberg(LatticeSpec(1, (5,))), 5, 4),
    "grid3x2": (build_heisenberg(LatticeSpec(2, (3, 2))), 6, 4),
    "grid3x3": (build_heisenberg(LatticeSpec(2, (3, 3))), 9, 4),
    # a uniform Z field keeps the reversal but anticommutes with prod_i X_i:
    # two real blocks, unrotated
    "uniform_z": (PauliSum(build_heisenberg(LatticeSpec(1, (4,))).terms
                           + tuple(PauliTerm(0.7, ((q, "Z"),))
                                   for q in range(4))), 4, 2),
    # mirrored Z fields of unequal strength break the reversal too
    "z_unequal": (PauliSum(build_heisenberg(LatticeSpec(1, (4,))).terms
                           + (PauliTerm(0.7, ((0, "Z"),)),
                              PauliTerm(0.75, ((3, "Z"),)))), 4, 1),
    # a Z field on one site breaks both: one real sector, unrotated
    "z_field": (PauliSum(build_heisenberg(LatticeSpec(1, (4,))).terms
                         + (PauliTerm(0.7, ((2, "Z"),)),)), 4, 1),
    # Y_i Z_{i+1} + Z_i Y_{i+1} keeps both symmetries and is imaginary: four
    # complex blocks
    "yz_chain5": (PauliSum(build_heisenberg(LatticeSpec(1, (5,))).terms
                           + tuple(PauliTerm(0.8, ((i, a), (i + 1, b)))
                                   for i in range(4)
                                   for a, b in ("YZ", "ZY"))), 5, 4),
    # a single Y: one complex sector
    "single_y": (PauliSum((PauliTerm(1.0, ((0, "Y"),)),
                           PauliTerm(0.5, ((1, "Z"),)))), 2, 1),
}


# chains of 2 to 10 sites, three grids, and every path of the blocks: real
# or complex, rotated or not, split by the reversal or one sector
SLAB_CASES = {
    **{f"chain{n}": (build_heisenberg(LatticeSpec(1, (n,))), n)
       for n in range(2, 11)},
    **{f"grid{a}x{b}": (build_heisenberg(LatticeSpec(2, (a, b))), a * b)
       for a, b in ((2, 2), (2, 3), (3, 3))},
    **RANDOM_SUMS,
    **{case: (h, n) for case, (h, n, _) in BLOCK_CASES.items()},
}


def scale_oracle(h, weights):
    """The scale s = max_i sum_k |V_ik|^2 w_k of each row w of `weights`,
    from the full eigenvectors V, one three-operand einsum per row: the
    oracle of `scaled_weights`, which reads V a slab at a time."""
    vecs = h.eigenvectors
    return np.array([np.max(np.einsum("ik,ik,k->i", vecs, vecs.conj(), w).real)
                     for w in np.reshape(weights, (-1, h.dim))])


def forbid_full_eigenvectors(monkeypatch):
    """Make reading `DenseHermitian.eig`, and so `eigenvectors`, raise."""
    def forbidden(self):
        raise AssertionError("the full eigenvectors V were assembled")

    guard = functools.cached_property(forbidden)
    guard.__set_name__(DenseHermitian, "eig")
    monkeypatch.setattr(DenseHermitian, "eig", guard)


def thermal_matrix(h, beta):
    """Literal e^{-beta H / 2}; may overflow for extreme beta * ||H||."""
    return thermal_scale(h, beta) * np.asarray(scaled_filter(h, beta),
                                               dtype=complex)


def expm_filter(m, beta, amps):
    """Normalized e^{-beta H / 2} applied to a state or to each column of a
    (2^n, m) batch, from scipy's dense expm of the matrix `m` of H (the
    exact filter's oracle)."""
    out = scipy.linalg.expm(-beta * m / 2.0) @ amps
    return out / np.linalg.norm(out, axis=0)


def string_gathers(strings, n):
    """The gather form of unit Pauli strings on n qubits, stacked: the
    (k, 2^n) source indices and phases with
    (P_k a)[j] = phases[k, j] a[sources[k, j]]."""
    idx = np.arange(1 << n)
    masks = [_masks(s, n) for s in strings]
    phases = [_diagonal([(1.0, sign, n_y)], idx) for _, sign, n_y in masks]
    return (idx ^ np.array([[flip] for flip, _, _ in masks]),
            np.array(phases, dtype=complex))


def qite_one(spec, h, psi, lattice=None):
    """`qite_evolve` on the one-column batch of psi: the evolved StateVector
    and its rotations, the strings and the column's row of angles."""
    out, (labels, thetas) = qite_evolve(spec, h, psi.amps[:, None], lattice)
    return StateVector(psi.n, out[:, 0]), (labels, thetas[0])


def circuit_unitary(c):
    """Dense unitary of a circuit, built by propagating the identity matrix
    through the gate kernels (the gate-path oracle of the closed forms)."""
    dim = 1 << c.width
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        u = _apply_gate(u, c.width, g)
    return u


def postselect(psi, ancilla_qubits, outcome_bits):
    """Project onto the given ancilla outcome and trace the ancillas out.

    Returns the renormalized remaining-register state and the outcome
    probability.  Raises ZeroProbability when the projected norm underflows.
    """
    ancilla_qubits = tuple(int(q) for q in ancilla_qubits)
    outcome_bits = tuple(int(b) for b in outcome_bits)
    if len(set(ancilla_qubits)) != len(ancilla_qubits):
        raise ValueError("ancilla indices must be distinct")
    if len(ancilla_qubits) != len(outcome_bits):
        raise ValueError("one outcome bit per ancilla")
    keep = [q for q in range(psi.n) if q not in ancilla_qubits]
    fixed = 0
    for q, b in zip(ancilla_qubits, outcome_bits):
        fixed |= b << q
    sub = np.arange(1 << len(keep))
    flat = np.full(1 << len(keep), fixed)
    for j, q in enumerate(keep):
        flat |= ((sub >> j) & 1) << q
    picked = psi.amps[flat]
    p = float(np.sum(np.abs(picked) ** 2))
    if p < 1e-14:
        raise ZeroProbability(f"outcome probability {p:.3e} underflows")
    return StateVector(len(keep), picked / math.sqrt(p)), p


def omega_branch(h, beta, eps, psi):
    """Post-selected state and P0 from the dense Omega on [0; psi]: the
    oracle of the dilated filter."""
    augmented = np.concatenate([np.zeros_like(psi.amps), psi.amps])
    full = StateVector(psi.n + 1, dilated_omega(h, beta, eps) @ augmented)
    return postselect(full, [psi.n], [0])


def fable_branch(circuit, psi):
    """Replay a FABLE circuit on psi with its ancillas (qubits psi.n and up)
    in |0>, and post-select every ancilla on 0: the normalized branch and P0."""
    full = np.zeros(1 << circuit.width, dtype=complex)
    full[: 1 << psi.n] = psi.amps
    replayed = apply_circuit(StateVector(circuit.width, full), circuit)
    return postselect(replayed, range(psi.n, circuit.width),
                      [0] * (circuit.width - psi.n))


def traced_peak(fn):
    """fn() under tracemalloc, which sees numpy's buffers: (its result, the
    bytes still held as it returns, the peak bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


@pytest.fixture
def chain2():
    return LatticeSpec(1, (2,))


@pytest.fixture
def chain3():
    return LatticeSpec(1, (3,))


def pytest_terminal_summary(terminalreporter):
    import sys

    module = (sys.modules.get("test_acceptance")
              or sys.modules.get("tests.test_acceptance"))
    results = getattr(module, "RESULTS", None)
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
