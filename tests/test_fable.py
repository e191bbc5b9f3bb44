from collections import Counter

import numpy as np
import pytest
import scipy.linalg

import tpqsim.pauli
from tpqsim import (
    DimensionOverflow,
    LatticeSpec,
    PauliSum,
    PauliTerm,
    ZeroProbability,
    build_heisenberg,
    fable_encode,
    to_dense,
)
from tpqsim.estimator import BackendSpec, filtered_batches
from tpqsim.fable import fable_circuit
from tpqsim.nonunitary import ThermalOperator
from tpqsim.random_state import sample_haar_state

from conftest import (
    circuit_unitary,
    exact_thermal_operator,
    expm_filter,
    fable_branch,
)


def thermal_op(n, beta):
    lattice = LatticeSpec(1, (n,))
    return exact_thermal_operator(to_dense(build_heisenberg(lattice), n), beta)


def test_identity_encoding_n1():
    op = thermal_op(2, 0.0)  # beta=0: Q/s = I
    # use a 1-qubit operator for the smallest case
    import tpqsim.pauli as pauli

    h1 = to_dense(pauli.PauliSum((pauli.PauliTerm(1.0, ((0, "Z"),)),)), 1)
    op1 = exact_thermal_operator(h1, 0.0)
    circuit = fable_encode(op1)
    u = circuit_unitary(circuit)
    assert np.max(np.abs(u[:2, :2] - np.eye(2) / 2)) < 1e-10
    assert circuit.width - 1 == 2
    assert circuit.cnot_count == 4


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_leading_block_n2(beta):
    op = thermal_op(2, beta)
    u = circuit_unitary(fable_encode(op))
    dim = u.shape[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-8
    assert np.max(np.abs(u[:4, :4] - op.scaled / 4)) < 1e-8


def test_counts_match_fable_structure():
    for n in (2, 3):
        circuit = fable_encode(thermal_op(n, 1.0))
        assert circuit.width == 2 * n + 1
        assert Counter(g.kind for g in circuit.gates) == {
            "cnot": 4**n, "ry": 4**n, "swap": n, "h": 2 * n}


@pytest.mark.parametrize("n,beta", [(2, 0.7), (3, 1.0), (4, 0.5)])
def test_apply_matches_exact_backend(n, beta):
    # the replayed circuit's branch is the exact filter's state, and P0 is
    # ||(Q/s) psi||^2 / 4^N
    op = thermal_op(n, beta)
    psi = sample_haar_state(n, 31 + n)
    out, p = fable_branch(fable_encode(op), psi)
    exact = expm_filter(op.hamiltonian, beta, psi.amps)
    assert abs(np.vdot(out.amps, exact)) > 1 - 1e-7
    expected_p = np.linalg.norm(op.scaled @ psi.amps) ** 2 / 4**n
    assert p == pytest.approx(expected_p, abs=1e-10)


def test_beta_zero_success_probability():
    op = thermal_op(2, 0.0)
    psi = sample_haar_state(2, 3)
    out, p = fable_branch(fable_encode(op), psi)
    assert p == pytest.approx(1.0 / 16, abs=1e-12)
    assert np.max(np.abs(out.amps - psi.amps)) < 1e-10


def test_compression_prunes_but_stays_close():
    op = thermal_op(2, 0.5)
    exact = fable_encode(op)
    pruned = fable_encode(op, compression_tol=1e-3)
    assert pruned.cnot_count <= exact.cnot_count
    u = circuit_unitary(pruned)
    assert np.max(np.abs(u[:4, :4] - op.scaled / 4)) < 1e-2


def test_exact_encoding_keeps_zero_angles():
    # at beta=0, Q/s = I and four compiled angles of Z0 Z1 are exactly 0; the
    # exact encoding keeps their RY(0), so its CNOT count is 4^N, and only a
    # positive tolerance prunes them
    zz = PauliSum((PauliTerm(1.0, ((0, "Z"), (1, "Z"))),))
    op = ThermalOperator(0.0, to_dense(zz, 2))
    assert fable_encode(op).cnot_count == 16
    assert fable_encode(op, compression_tol=1e-12).cnot_count == 12


def test_entry_range_guard():
    op = thermal_op(2, 1.0)
    from tpqsim import EntryOutOfRange
    from tpqsim.nonunitary import ThermalOperator

    bad = ThermalOperator(1.0, op.hamiltonian)
    bad.__dict__["scaled"] = op.scaled * 1.5
    with pytest.raises(EntryOutOfRange):
        fable_encode(bad)


def test_gate_bytes_are_budgeted(monkeypatch):
    # 4 sites: 2 * 4^4 + 12 gates of 168 B (86 KiB) fit in 128 KiB and not in
    # 64 KiB, where the dense H and its eigenvectors (5.5 KiB) still fit
    h = build_heisenberg(LatticeSpec(1, (4,)))
    for kib, fits in ((128, True), (64, False)):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": kib // 4}
        monkeypatch.setattr(tpqsim.pauli.os, "sysconf", pages.__getitem__)
        op = ThermalOperator(0.5, to_dense(h, 4))
        op.scaled  # assembles the eigenvectors under the same budget
        if fits:
            assert fable_encode(op).cnot_count == 256
        else:
            with pytest.raises(DimensionOverflow, match="FABLE circuit"):
                fable_encode(op)


def compiled_angles(op):
    """FABLE's compiled angles of Q/s from the dense Sylvester Hadamard
    matrix: (Had theta) / 4^N in Gray-code order, theta_c = 2 arccos of the
    entry at c = (i << N) | j."""
    theta = 2.0 * np.arccos(np.clip(op.scaled, -1.0, 1.0).ravel())
    walsh = scipy.linalg.hadamard(len(theta)) @ theta / len(theta)
    k = np.arange(len(theta))
    return walsh[k ^ (k >> 1)]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("tol", [0.0, 0.05, 0.3])
def test_apply_matches_gate_path(n, tol):
    # the pruned circuit, whose zeroed rotations are dropped and their CNOTs
    # merged, replays to the branch of the full gate sequence with those
    # angles zeroed
    op = thermal_op(n, 0.7)
    psi = sample_haar_state(n, 11 + n)
    out, p = fable_branch(fable_encode(op, compression_tol=tol), psi)
    phi = compiled_angles(op)
    phi[np.abs(phi) <= tol] = 0.0
    ref, ref_p = fable_branch(fable_circuit(phi, n), psi)
    assert np.max(np.abs(out.amps - ref.amps)) < 1e-12
    assert p == pytest.approx(ref_p, abs=1e-12)


def test_zero_probability_raises():
    # a FABLE run loses a state whose P0 underflows, such as H's top
    # eigenvector at beta = 40
    op = thermal_op(2, 40.0)
    top = op.hamiltonian.eigenvectors[:, -1:]
    with pytest.raises(ZeroProbability):
        next(filtered_batches(BackendSpec("fable"), (40.0,), top,
                              op.hamiltonian, None))
