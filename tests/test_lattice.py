import itertools

import numpy as np
import pytest
import scipy.linalg

from tpqsim import LatticeSpec, PauliSum, PauliTerm, build_heisenberg, nearest_neighbor_pairs, to_dense

from conftest import SX, SY, SZ, kron_chain


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
    assert np.allclose(to_dense(h, 1).matrix, [[0, 1], [1, 0]])


def test_to_dense_zz():
    h = PauliSum((PauliTerm(2.0, ((0, "Z"), (1, "Z"))),))
    assert np.allclose(to_dense(h, 2).matrix, np.diag([2, -2, -2, 2]))


def test_dense_heisenberg_traceless_real_symmetric(chain2):
    m = to_dense(build_heisenberg(chain2), 2).matrix
    assert abs(np.trace(m)) < 1e-12
    assert np.max(np.abs(m.imag)) < 1e-12
    assert np.max(np.abs(m - m.T)) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_dense_matches_kron_oracle(n):
    lattice = LatticeSpec(1, (n,))
    dense = to_dense(build_heisenberg(lattice), n)
    ref = np.zeros((2**n, 2**n), dtype=complex)
    mats = {"X": SX, "Y": SY, "Z": SZ}
    for term in build_heisenberg(lattice):
        ref += term.coefficient * kron_chain(n, {q: mats[o] for q, o in term.operators})
    assert np.max(np.abs(dense.matrix - ref)) < 1e-12
    vals_ref = np.linalg.eigvalsh(ref)
    assert np.max(np.abs(dense.eigenvalues - vals_ref)) < 1e-9


def test_spectral_reconstruction(chain3):
    dense = to_dense(build_heisenberg(chain3), 3)
    vals, vecs = dense.eig
    assert vecs.dtype == np.float64
    recon = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(recon - dense.matrix)) < 1e-9
    # a single Y makes the matrix imaginary, so the basis stays complex
    h = PauliSum((PauliTerm(1.0, ((0, "Y"),)), PauliTerm(0.5, ((1, "Z"),))))
    dense = to_dense(h, 2)
    vals, vecs = dense.eig
    assert np.iscomplexobj(dense.matrix) and np.iscomplexobj(vecs)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(recon - dense.matrix)) < 1e-9


@pytest.mark.parametrize("case", ["chain", "single_y"])
def test_eig_matches_scipy_evd_oracle(case):
    if case == "chain":
        dense = to_dense(build_heisenberg(LatticeSpec(1, (6,))), 6)
    else:
        dense = to_dense(PauliSum((PauliTerm(1.0, ((0, "Y"),)),
                                   PauliTerm(0.5, ((1, "Z"),)))), 2)
    m = dense.matrix
    vals, vecs = dense.eig
    ref_vals = scipy.linalg.eigh(m, driver="evd", eigvals_only=True)
    assert np.max(np.abs(vals - ref_vals)) < 1e-12
    eye = np.eye(dense.dim)
    assert np.max(np.abs(vecs.conj().T @ vecs - eye)) < 1e-12
    assert np.max(np.abs((vecs * vals) @ vecs.conj().T - m)) < 1e-12
    assert (vecs.dtype == np.float64) == (case == "chain")


def test_dense_overflow_guard():
    h = PauliSum((PauliTerm(1.0, ((0, "Z"),)),))
    from tpqsim import DimensionOverflow

    with pytest.raises(DimensionOverflow):
        to_dense(h, 15)


def test_invalid_lattice():
    with pytest.raises(ValueError):
        LatticeSpec(3, (2, 2, 2))
    with pytest.raises(ValueError):
        LatticeSpec(1, (1,))
    with pytest.raises(ValueError):
        LatticeSpec(2, (4,))
