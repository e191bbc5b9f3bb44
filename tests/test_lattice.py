import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import tpqsim.pauli
from tpqsim import (
    DimensionOverflow,
    LatticeSpec,
    PauliSum,
    PauliTerm,
    build_heisenberg,
    nearest_neighbor_pairs,
    to_dense,
)
from tpqsim.pauli import _hadamard_rotated, apply_pauli_sum, walsh_hadamard
from tpqsim.random_state import sample_haar_state
from tpqsim.statevector import expectations, sample_expectations

from conftest import kron_chain, kron_matrix


def reassembled(dense):
    """V diag(lambda) V^dagger from the dense eigenbasis: H as `to_dense`'s
    blocks and their eigenvectors give it back."""
    vals, vecs = dense.eig
    return (vecs * vals) @ vecs.conj().T


def brute_force_grid_edges(rows, cols):
    """Edge set of the open rows x cols grid graph, by pairwise enumeration."""
    sites = [(r, c) for r in range(rows) for c in range(cols)]
    edges = set()
    for a, b in itertools.combinations(sites, 2):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1:
            i = a[0] * cols + a[1]
            j = b[0] * cols + b[1]
            edges.add((min(i, j), max(i, j)))
    return edges


def test_chain_pairs(chain3):
    assert nearest_neighbor_pairs(chain3) == [(0, 1), (1, 2)]


def test_square_pairs():
    pairs = nearest_neighbor_pairs(LatticeSpec(2, (2, 2)))
    assert set(pairs) == {(0, 1), (2, 3), (0, 2), (1, 3)}


def test_4x3_pairs_against_enumeration():
    pairs = nearest_neighbor_pairs(LatticeSpec(2, (4, 3)))
    assert len(pairs) == 17
    assert set(pairs) == brute_force_grid_edges(4, 3)


@pytest.mark.parametrize("extents", [(2, 2), (3, 3), (4, 3), (2, 5)])
def test_pair_count_formula(extents):
    lattice = LatticeSpec(2, extents)
    n = lattice.n_sites
    expected = sum((e - 1) * (n // e) for e in extents)
    assert len(nearest_neighbor_pairs(lattice)) == expected


def test_heisenberg_n2_paper_couplings(chain2):
    h = build_heisenberg(chain2)
    by_ops = {t.operators: t.coefficient for t in h}
    assert by_ops == {
        ((0, "X"), (1, "X")): 0.5,
        ((0, "Y"), (1, "Y")): 1.25,
        ((0, "Z"), (1, "Z")): 2.0,
        ((0, "X"),): 1.0,
        ((1, "X"),): 1.0,
    }


def test_heisenberg_zero_couplings_is_empty():
    lattice = LatticeSpec(1, (4,), Jx=0, Jy=0, Jz=0, hx=0)
    assert len(build_heisenberg(lattice)) == 0


def test_heisenberg_term_count(chain3):
    assert len(build_heisenberg(chain3)) == 9  # 3 couplings * 2 pairs + 3 field terms


def test_to_dense_single_x():
    h = PauliSum((PauliTerm(1.0, ((0, "X"),)),))
    assert np.allclose(reassembled(to_dense(h, 1)), [[0, 1], [1, 0]])


def test_to_dense_zz():
    h = PauliSum((PauliTerm(2.0, ((0, "Z"), (1, "Z"))),))
    assert np.allclose(reassembled(to_dense(h, 2)), np.diag([2, -2, -2, 2]))


def test_dense_heisenberg_traceless_real_symmetric(chain2):
    m = reassembled(to_dense(build_heisenberg(chain2), 2))
    assert abs(np.trace(m)) < 1e-12
    assert np.max(np.abs(m.imag)) < 1e-12
    assert np.max(np.abs(m - m.T)) < 1e-12


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


@pytest.mark.parametrize("case", [2, 4, 6, *RANDOM_SUMS])
def test_dense_matches_kron_oracle(case):
    if isinstance(case, int):
        h, n = build_heisenberg(LatticeSpec(1, (case,))), case
    else:
        h, n = RANDOM_SUMS[case]
    dense = to_dense(h, n)
    ref = kron_matrix(h, n)
    assert np.max(np.abs(reassembled(dense) - ref)) < 1e-12
    assert (dense.blocks[0].dtype == complex) == np.any(ref.imag != 0)
    vals_ref = np.linalg.eigvalsh(ref)
    assert np.max(np.abs(dense.eigenvalues - vals_ref)) < 1e-9
    # the matrix-free kernel, on one state and on a (2^n, 3) batch
    batch = np.stack([sample_haar_state(n, s).amps for s in range(3)], axis=1)
    for amps in (batch[:, 0], batch):
        assert np.max(np.abs(apply_pauli_sum(amps, n, h) - ref @ amps)) < 1e-12
        ref_means = np.einsum("i...,i...->...", amps.conj(), ref @ amps).real
        assert np.max(np.abs(expectations(amps, h) - ref_means)) < 1e-12


def test_a_qubit_past_n_is_an_index_error():
    h = PauliSum((PauliTerm(1.0, ((0, "X"),)), PauliTerm(0.5, ((2, "Y"),))))
    psi = sample_haar_state(2, 0)
    with pytest.raises(IndexError):
        apply_pauli_sum(psi.amps, 2, h)
    with pytest.raises(IndexError):
        expectations(psi.amps, h)
    with pytest.raises(IndexError):
        sample_expectations(psi.amps[:, None], h, shots=10, seeds=[0])
    with pytest.raises(IndexError):
        to_dense(h, 2)


def test_apply_pauli_sum_keeps_nothing_but_its_output():
    # a 14-site chain, applied cold: the kernel keeps no table per string
    n = 14
    h = build_heisenberg(LatticeSpec(1, (n,)))
    amps = sample_haar_state(n, 0).amps
    tracemalloc.start()
    try:
        out = apply_pauli_sum(amps, n, h)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1.5 * 16 * 2**n
    assert peak < 5 * 16 * 2**n


def test_spectral_reconstruction(chain3):
    h = build_heisenberg(chain3)
    dense = to_dense(h, 3)
    vals, vecs = dense.eig
    assert vecs.dtype == np.float64
    recon = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(recon - kron_matrix(h, 3))) < 1e-9
    # a single Y makes the matrix imaginary, so the basis stays complex
    h = PauliSum((PauliTerm(1.0, ((0, "Y"),)), PauliTerm(0.5, ((1, "Z"),))))
    dense = to_dense(h, 2)
    vals, vecs = dense.eig
    assert dense.blocks[0].dtype == complex and np.iscomplexobj(vecs)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(recon - kron_matrix(h, 2))) < 1e-9


@pytest.mark.parametrize("case", ["chain", "single_y"])
def test_eig_matches_scipy_evd_oracle(case):
    if case == "chain":
        h, n = build_heisenberg(LatticeSpec(1, (6,))), 6
    else:
        h, n = PauliSum((PauliTerm(1.0, ((0, "Y"),)),
                         PauliTerm(0.5, ((1, "Z"),)))), 2
    dense = to_dense(h, n)
    m = kron_matrix(h, n)
    vals, vecs = dense.eig
    ref_vals = scipy.linalg.eigh(m, driver="evd", eigvals_only=True)
    assert np.max(np.abs(vals - ref_vals)) < 1e-12
    eye = np.eye(dense.dim)
    assert np.max(np.abs(vecs.conj().T @ vecs - eye)) < 1e-12
    assert np.max(np.abs((vecs * vals) @ vecs.conj().T - m)) < 1e-12
    assert (vecs.dtype == np.float64) == (case == "chain")


def test_dense_overflow_guard():
    # 2^24 x 2^24 float64 is 2 PiB: refused before anything is allocated
    h = PauliSum((PauliTerm(1.0, ((0, "Z"),)),))
    from tpqsim import DimensionOverflow

    with pytest.raises(DimensionOverflow):
        to_dense(h, 24)


def test_to_dense_allocates_the_real_matrix_once():
    # tracemalloc sees numpy's buffers; the real 2^8 x 2^8 H is 512 KiB
    h = build_heisenberg(LatticeSpec(1, (8,)))
    to_dense(h, 8)  # an untraced first call; nothing is cached between calls
    tracemalloc.start()
    try:
        dense = to_dense(h, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dense.blocks[0].dtype == np.float64
    assert peak < 1.5 * 8 * 4**8


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
    # a single Y: one complex sector
    "single_y": (PauliSum((PauliTerm(1.0, ((0, "Y"),)),
                           PauliTerm(0.5, ((1, "Z"),)))), 2, 1),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocked_eigenbasis_matches_kron_oracle(case):
    h, n, sectors = BLOCK_CASES[case]
    dense = to_dense(h, n)
    ref = kron_matrix(h, n)
    assert len(dense.blocks) == sectors
    assert np.max(np.abs(reassembled(dense) - ref)) < 1e-12
    ref_vals = scipy.linalg.eigh(ref, eigvals_only=True)
    assert np.max(np.abs(dense.eigenvalues - ref_vals)) < 1e-12
    vals, vecs = dense.eig
    assert vals is dense.eigenvalues
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(2**n))) < 1e-12
    assert np.max(np.abs((vecs * vals) @ vecs.conj().T - ref)) < 1e-12
    # the blocked transforms against the assembled V
    psi = np.stack([sample_haar_state(n, s).amps for s in range(3)], axis=1)
    coeffs = dense.to_eigenbasis(psi)
    assert np.max(np.abs(coeffs - vecs.conj().T @ psi)) < 1e-12
    assert np.max(np.abs(dense.from_eigenbasis(coeffs) - psi)) < 1e-12


def reversal_matrix(n):
    """The qubit-order reversal q -> n - 1 - q as a product of SWAP gates,
    each SWAP(i, j) = (I + X_i X_j + Y_i Y_j + Z_i Z_j) / 2 from Kronecker
    products."""
    r = np.eye(2**n)
    for q in range(n // 2):
        pair = [PauliTerm(0.5, ())] + [PauliTerm(0.5, ((q, o), (n - 1 - q, o)))
                                       for o in "XYZ"]
        r = kron_matrix(pair, n).real @ r
    return r


@pytest.mark.parametrize("case", ["chain8", "chain5", "grid3x2", "grid3x3"])
def test_rotated_h_is_block_diagonal(case):
    h, n, _ = BLOCK_CASES[case]
    rotated = kron_matrix([_hadamard_rotated(t) for t in h], n)
    # independent of the symbolic rotation: conjugation by H^{(x)n}
    hadamard = kron_chain(n, {q: np.array([[1, 1], [1, -1]]) / np.sqrt(2)
                              for q in range(n)})
    ref = kron_matrix(h, n)
    assert np.max(np.abs(hadamard @ ref @ hadamard - rotated)) < 1e-12
    parity = np.array([bin(i).count("1") % 2 for i in range(2**n)])
    assert np.all(rotated[parity[:, None] != parity[None, :]] == 0.0)
    # the reversal R, a permutation (one 1 per column), is a symmetry of H
    r = reversal_matrix(n)
    eye = np.eye(2**n)
    assert np.array_equal(np.sort(r, axis=0), np.sort(eye, axis=0))
    assert np.max(np.abs(r @ ref @ r.T - ref)) < 1e-12
    # each sector's reversal-even block on (|s> + R|s>) / sqrt(2) for the
    # indices s < R(s), then |s> for R(s) = s, and its reversal-odd block on
    # (|s> - R|s>) / sqrt(2), all in ascending s
    expected = []
    for sector in (0, 1):
        indices = np.flatnonzero(parity == sector)
        image = np.argmax(r[:, indices], axis=0)
        for sign in (1, -1):
            pairs = [(eye[s] + sign * eye[t]) / np.sqrt(2)
                     for s, t in zip(indices, image) if s < t]
            fixed = [eye[s] for s, t in zip(indices, image)
                     if s == t and sign == 1]
            if pairs or fixed:
                isometry = np.array(pairs + fixed).T
                expected.append(isometry.T @ rotated @ isometry)
    dense = to_dense(h, n)
    assert len(dense.blocks) == len(expected) == 4
    for block, ref_block in zip(dense.blocks, expected):
        assert np.max(np.abs(block - ref_block)) < 1e-12


def test_a_ten_site_chain_is_four_quarter_blocks():
    # the reversal halves both parity blocks: a fall-back to two blocks of
    # 2^(n-1) rows fails here
    n = 10
    dense = to_dense(build_heisenberg(LatticeSpec(1, (n,))), n)
    sizes = [len(block) for block in dense.blocks]
    assert sizes == [272, 240, 256, 256]
    assert max(sizes) <= 2**(n - 2) + 2**(n // 2)


def test_to_dense_never_allocates_the_full_matrix():
    # the four blocks of an 8-site chain, 72, 56, 64 and 64 rows, are a
    # quarter of its 512 KiB H
    h = build_heisenberg(LatticeSpec(1, (8,)))
    to_dense(h, 8)  # an untraced first call; nothing is cached between calls
    tracemalloc.start()
    try:
        to_dense(h, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.35 * 8 * 4**8


def fake_memory(monkeypatch, nbytes):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}
    monkeypatch.setattr(tpqsim.pauli.os, "sysconf", pages.__getitem__)


def test_byte_budget_counts_the_blocks(monkeypatch):
    # a 9-site chain: the blocks of 136, 120, 136 and 120 rows, their
    # eigenvectors and one 136-row eigh workspace, 8 x (2 x 65,792 + 3 x
    # 136^2) bytes (1.43 MiB), fit in 2 MiB, where the two parity blocks'
    # 7 x 8 x 4^8 (3.5 MiB) would not
    h = build_heisenberg(LatticeSpec(1, (9,)))
    fake_memory(monkeypatch, 2 << 20)
    dense = to_dense(h, 9)
    assert len(dense.eigenvalues) == 2**9
    fake_memory(monkeypatch, 1 << 20)
    with pytest.raises(DimensionOverflow):
        to_dense(h, 9)
    # the full V, 8 x 4^9 bytes (2 MiB), checks its own size when assembled
    fake_memory(monkeypatch, 1 << 20)
    dense.to_eigenbasis(sample_haar_state(9, 0).amps[:, None])
    with pytest.raises(DimensionOverflow):
        dense.eigenvectors


def test_walsh_hadamard_matches_butterfly_loop():
    def loop_sfwht(a):
        """The transform scaled by 1/2 per stage, one pair slice at a time."""
        a = a.copy()
        h = 1
        while h < len(a):
            for i in range(0, len(a), 2 * h):
                x, y = a[i:i + h].copy(), a[i + h:i + 2 * h].copy()
                a[i:i + h], a[i + h:i + 2 * h] = (x + y) / 2.0, (x - y) / 2.0
            h *= 2
        return a

    for m in (0, 1, 2, 5, 8):
        rng = np.random.default_rng(m)
        a = rng.normal(size=1 << m)
        scale = np.sqrt(len(a))  # 2^{m/2}: orthogonal vs halved per stage
        assert np.max(np.abs(walsh_hadamard(a.copy()) / scale
                             - loop_sfwht(a))) < 1e-15
        # a (2^m, 3) batch transforms each column along axis 0
        batch = rng.normal(size=(1 << m, 3)) + 1j * rng.normal(size=(1 << m, 3))
        ref = np.stack([loop_sfwht(col) for col in batch.T], axis=1)
        assert np.max(np.abs(walsh_hadamard(batch.copy()) / scale
                             - ref)) < 1e-15


def test_invalid_lattice():
    with pytest.raises(ValueError):
        LatticeSpec(3, (2, 2, 2))
    with pytest.raises(ValueError):
        LatticeSpec(1, (1,))
    with pytest.raises(ValueError):
        LatticeSpec(2, (4,))
