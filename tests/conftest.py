import math

import numpy as np
import pytest

from tpqsim import LatticeSpec, ZeroProbability, qite_evolve
from tpqsim.nonunitary import ThermalOperator
from tpqsim.pauli import _diagonal, _masks
from tpqsim.statevector import StateVector, _apply_gate

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


def exact_thermal_operator(h, beta):
    return ThermalOperator(beta, h)


def thermal_scale(op):
    """s such that e^{-beta H / 2} = s * op.scaled."""
    lam_min = float(op.hamiltonian.eigenvalues[0])
    return op._shifted_scale * math.exp(-op.beta * lam_min / 2.0)


def thermal_matrix(op):
    """Literal e^{-beta H / 2}; may overflow for extreme beta * ||H||."""
    return thermal_scale(op) * np.asarray(op.scaled, dtype=complex)


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
