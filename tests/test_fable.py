from collections import Counter

import numpy as np
import pytest
import scipy.linalg

import tpqsim.pauli
from tpqsim import (
    DimensionOverflow,
    EntryOutOfRange,
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
from tpqsim.nonunitary import scaled_filter
from tpqsim.random_state import sample_haar_state

from conftest import (
    circuit_unitary,
    expm_filter,
    fable_branch,
    kron_matrix,
)


def chain(n):
    """A chain's Pauli sum and its dense blocks."""
    h = build_heisenberg(LatticeSpec(1, (n,)))
    return h, to_dense(h, n)


def thermal_block(n, beta):
    """Q/s of an n-site chain, the matrix a thermal run encodes."""
    return scaled_filter(chain(n)[1], beta)


def test_identity_encoding_n1():
    # the smallest case: beta = 0 makes Q/s the 1-qubit identity
    h1 = to_dense(PauliSum((PauliTerm(1.0, ((0, "Z"),)),)), 1)
    circuit = fable_encode(scaled_filter(h1, 0.0))
    u = circuit_unitary(circuit)
    assert np.max(np.abs(u[:2, :2] - np.eye(2) / 2)) < 1e-10
    assert circuit.width - 1 == 2
    assert circuit.cnot_count == 4


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_leading_block_n2(beta):
    a = thermal_block(2, beta)
    u = circuit_unitary(fable_encode(a))
    dim = u.shape[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-8
    assert np.max(np.abs(u[:4, :4] - a / 4)) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_general_matrix_block(n):
    # any real matrix with entries in [-1, 1], symmetric or not, is the
    # replayed circuit's leading block times 2^N
    a = np.random.default_rng(n).uniform(-1.0, 1.0, (2**n, 2**n))
    a[0, -1] = -1.0
    assert np.any(a != a.T)
    u = circuit_unitary(fable_encode(a))
    assert np.max(np.abs(u[:2**n, :2**n] - a / 2**n)) < 1e-12


def test_counts_match_fable_structure():
    for n in (2, 3):
        circuit = fable_encode(thermal_block(n, 1.0))
        assert circuit.width == 2 * n + 1
        assert Counter(g.kind for g in circuit.gates) == {
            "cnot": 4**n, "ry": 4**n, "swap": n, "h": 2 * n}


@pytest.mark.parametrize("n,beta", [(2, 0.7), (3, 1.0), (4, 0.5)])
def test_apply_matches_exact_backend(n, beta):
    # the replayed circuit's branch is the exact filter's state, and P0 is
    # ||(Q/s) psi||^2 / 4^N
    h, dense = chain(n)
    a = scaled_filter(dense, beta)
    psi = sample_haar_state(n, 31 + n)
    out, p = fable_branch(fable_encode(a), psi)
    exact = expm_filter(kron_matrix(h, n), beta, psi.amps)
    assert abs(np.vdot(out.amps, exact)) > 1 - 1e-7
    expected_p = np.linalg.norm(a @ psi.amps) ** 2 / 4**n
    assert p == pytest.approx(expected_p, abs=1e-10)


def test_beta_zero_success_probability():
    psi = sample_haar_state(2, 3)
    out, p = fable_branch(fable_encode(thermal_block(2, 0.0)), psi)
    assert p == pytest.approx(1.0 / 16, abs=1e-12)
    assert np.max(np.abs(out.amps - psi.amps)) < 1e-10


def test_compression_prunes_but_stays_close():
    a = thermal_block(2, 0.5)
    exact = fable_encode(a)
    pruned = fable_encode(a, compression_tol=1e-3)
    assert pruned.cnot_count <= exact.cnot_count
    u = circuit_unitary(pruned)
    assert np.max(np.abs(u[:4, :4] - a / 4)) < 1e-2


def test_exact_encoding_keeps_zero_angles():
    # at beta=0, Q/s = I and four compiled angles of Z0 Z1 are exactly 0; the
    # exact encoding keeps their RY(0), so its CNOT count is 4^N, and only a
    # positive tolerance prunes them
    zz = PauliSum((PauliTerm(1.0, ((0, "Z"), (1, "Z"))),))
    a = scaled_filter(to_dense(zz, 2), 0.0)
    assert fable_encode(a).cnot_count == 16
    assert fable_encode(a, compression_tol=1e-12).cnot_count == 12


def test_entry_range_guard():
    for entry in (1.5, -1.5, np.nan):
        bad = np.eye(4)
        bad[1, 2] = entry
        with pytest.raises(EntryOutOfRange):
            fable_encode(bad)


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,), (1, 1)])
def test_shape_guard(shape):
    with pytest.raises(ValueError, match="side 2\\^N"):
        fable_encode(np.zeros(shape))


def test_complex_entry_guard():
    a = np.eye(2, dtype=complex)
    assert fable_encode(a).cnot_count == 4  # a zero imaginary part is real
    a[0, 1] = 0.5j
    with pytest.raises(ValueError, match="real matrix"):
        fable_encode(a)


def test_gate_bytes_are_budgeted(monkeypatch):
    # 4 sites: 2 * 4^4 + 12 gates of 168 B (86 KiB) fit in 128 KiB and not in
    # 64 KiB, where the dense H and its eigenvectors (5.5 KiB) still fit
    h = build_heisenberg(LatticeSpec(1, (4,)))
    for kib, fits in ((128, True), (64, False)):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": kib // 4}
        monkeypatch.setattr(tpqsim.pauli.os, "sysconf", pages.__getitem__)
        # assembles the eigenvectors under the same budget
        a = scaled_filter(to_dense(h, 4), 0.5)
        if fits:
            assert fable_encode(a).cnot_count == 256
        else:
            with pytest.raises(DimensionOverflow, match="FABLE circuit"):
                fable_encode(a)


def compiled_angles(a):
    """FABLE's compiled angles of Q/s from the dense Sylvester Hadamard
    matrix: (Had theta) / 4^N in Gray-code order, theta_c = 2 arccos of the
    entry at c = (i << N) | j."""
    theta = 2.0 * np.arccos(np.clip(a, -1.0, 1.0).ravel())
    walsh = scipy.linalg.hadamard(len(theta)) @ theta / len(theta)
    k = np.arange(len(theta))
    return walsh[k ^ (k >> 1)]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("tol", [0.0, 0.05, 0.3])
def test_apply_matches_gate_path(n, tol):
    # the pruned circuit, whose zeroed rotations are dropped and their CNOTs
    # merged, replays to the branch of the full gate sequence with those
    # angles zeroed
    a = thermal_block(n, 0.7)
    psi = sample_haar_state(n, 11 + n)
    out, p = fable_branch(fable_encode(a, compression_tol=tol), psi)
    phi = compiled_angles(a)
    phi[np.abs(phi) <= tol] = 0.0
    ref, ref_p = fable_branch(fable_circuit(phi, n), psi)
    assert np.max(np.abs(out.amps - ref.amps)) < 1e-12
    assert p == pytest.approx(ref_p, abs=1e-12)


def test_zero_probability_raises():
    # a FABLE run loses a state whose P0 underflows, such as H's top
    # eigenvector at beta = 40
    dense = chain(2)[1]
    top = dense.eigenvectors[:, -1:]
    with pytest.raises(ZeroProbability):
        next(filtered_batches(BackendSpec("fable"), (40.0,), top, dense,
                              None))
