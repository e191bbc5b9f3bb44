import numpy as np
import pytest

import tpqsim.pauli
from tpqsim import (
    DimensionOverflow,
    LatticeSpec,
    PauliSum,
    PauliTerm,
    StateVector,
    ZeroProbability,
    apply_circuit,
    apply_exact,
    apply_fable,
    build_heisenberg,
    fable_encode,
    to_dense,
)
from tpqsim.nonunitary import ThermalOperator
from tpqsim.random_state import sample_haar_state

from conftest import circuit_unitary, exact_thermal_operator, postselect


def thermal_op(n, beta):
    lattice = LatticeSpec(1, (n,))
    return exact_thermal_operator(to_dense(build_heisenberg(lattice), n), beta)


def test_identity_encoding_n1():
    op = thermal_op(2, 0.0)  # beta=0: Q/s = I
    # use a 1-qubit operator for the smallest case
    import tpqsim.pauli as pauli

    h1 = to_dense(pauli.PauliSum((pauli.PauliTerm(1.0, ((0, "Z"),)),)), 1)
    op1 = exact_thermal_operator(h1, 0.0)
    be = fable_encode(op1)
    u = circuit_unitary(be.circuit)
    assert np.max(np.abs(u[:2, :2] - np.eye(2) / 2)) < 1e-10
    assert be.ancilla_count == 2
    assert be.cnot_count == 4


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_leading_block_n2(beta):
    op = thermal_op(2, beta)
    be = fable_encode(op)
    u = circuit_unitary(be.circuit)
    dim = u.shape[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-8
    assert np.max(np.abs(u[:4, :4] - op.scaled / 4)) < 1e-8


def test_counts_match_fable_structure():
    for n in (2, 3):
        be = fable_encode(thermal_op(n, 1.0))
        assert be.cnot_count == 4**n
        assert be.ancilla_count == n + 1
        assert be.circuit.count("swap") == n
        assert be.circuit.count("h") == 2 * n
        assert be.alpha == 2**n


@pytest.mark.parametrize("n,beta", [(2, 0.7), (3, 1.0), (4, 0.5)])
def test_apply_matches_exact_backend(n, beta):
    op = thermal_op(n, beta)
    be = fable_encode(op)
    psi = sample_haar_state(n, 31 + n)
    out, p = apply_fable(be, psi)
    exact = apply_exact(op, psi)
    assert out.fidelity(exact) > 1 - 1e-7
    expected_p = np.linalg.norm(op.scaled @ psi.amps) ** 2 / 4**n
    assert p == pytest.approx(expected_p, abs=1e-10)


def test_beta_zero_success_probability():
    op = thermal_op(2, 0.0)
    be = fable_encode(op)
    psi = sample_haar_state(2, 3)
    out, p = apply_fable(be, psi)
    assert p == pytest.approx(1.0 / 16, abs=1e-12)
    assert np.max(np.abs(out.amps - psi.amps)) < 1e-10


def test_compression_prunes_but_stays_close():
    op = thermal_op(2, 0.5)
    exact_be = fable_encode(op)
    pruned_be = fable_encode(op, compression_tol=1e-3)
    assert pruned_be.cnot_count <= exact_be.cnot_count
    u = circuit_unitary(pruned_be.circuit)
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


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("tol", [0.0, 0.05, 0.3])
def test_apply_matches_gate_path(n, tol):
    # the block applied in closed form against replaying the emitted circuit
    op = thermal_op(n, 0.7)
    be = fable_encode(op, compression_tol=tol)
    psi = sample_haar_state(n, 11 + n)
    full = np.zeros(1 << be.width, dtype=complex)
    full[: 1 << n] = psi.amps
    replayed = apply_circuit(StateVector(be.width, full), be.circuit)
    ref, ref_p = postselect(replayed, range(n, be.width), [0] * be.ancilla_count)
    out, p = apply_fable(be, psi)
    assert np.max(np.abs(out.amps - ref.amps)) < 1e-12
    assert p == pytest.approx(ref_p, abs=1e-12)


def test_zero_probability_raises():
    op = thermal_op(2, 40.0)
    top = StateVector(2, op.hamiltonian.eigenvectors[:, -1])
    with pytest.raises(ZeroProbability):
        apply_fable(fable_encode(op), top)
