import math

import numpy as np
import pytest

from tpqsim import LatticeSpec
from tpqsim.nonunitary import ThermalOperator

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
