import math

import numpy as np
import pytest
import scipy.linalg

from tpqsim import LatticeSpec, ZeroProbability, qite_evolve
from tpqsim.nonunitary import scaled_filter, scaled_weights, thermal_weights
from tpqsim.pauli import _diagonal, _masks
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


def thermal_scale(h, beta):
    """s such that e^{-beta H / 2} = s * scaled_filter(h, beta): the shifted
    filter's weight on the ground state is 1, so Q/s has 1/s there."""
    lam_min = float(h.eigenvalues[0])
    scaled = scaled_weights(h, thermal_weights(h, beta))
    return math.exp(-beta * lam_min / 2.0) / scaled[0]


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


def fable_branch(circuit, psi):
    """Replay a FABLE circuit on psi with its ancillas (qubits psi.n and up)
    in |0>, and post-select every ancilla on 0: the normalized branch and P0."""
    full = np.zeros(1 << circuit.width, dtype=complex)
    full[: 1 << psi.n] = psi.amps
    replayed = apply_circuit(StateVector(circuit.width, full), circuit)
    return postselect(replayed, range(psi.n, circuit.width),
                      [0] * (circuit.width - psi.n))


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
