import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from tpqsim import (
    LatticeSpec,
    PauliSum,
    PauliTerm,
    apply_dilated,
    build_heisenberg,
    dilated_cnot_count,
    dilated_omega,
    to_dense,
)
from tpqsim.errors import ZeroProbability
from tpqsim.estimator import BackendSpec, filtered_batches
from tpqsim.nonunitary import (
    NORM_FLOOR,
    filter_states,
    scaled_filter,
    scaled_weights,
    thermal_weights,
)
from tpqsim.statevector import StateVector
from tpqsim.random_state import sample_haar_state

from conftest import (
    expm_filter,
    kron_matrix,
    postselect,
    thermal_matrix,
    thermal_scale,
)


@pytest.fixture
def h2(chain2):
    return to_dense(build_heisenberg(chain2), 2)


@pytest.fixture
def m2(chain2):
    return kron_matrix(build_heisenberg(chain2), 2)


def exact_run_filter(h, beta, psi):
    """The exact filter as a run applies it, on the one-column batch of psi."""
    batches = filtered_batches(BackendSpec("exact"), (beta,),
                               psi.amps[:, None], h, None)
    return next(batches)[:, 0]


def dilation(h, beta, eps):
    """The dilation's branch weights sin(eps q) and the exact filter's
    weights, as `apply_dilated` takes them."""
    exact = thermal_weights(h, beta)
    return np.sin(eps * scaled_weights(h, exact)), exact


def test_beta_zero_is_identity(h2):
    assert np.allclose(thermal_matrix(h2, 0.0), np.eye(4))
    psi = sample_haar_state(2, 0)
    assert np.max(np.abs(exact_run_filter(h2, 0.0, psi) - psi.amps)) < 1e-12


def test_diagonal_hamiltonian():
    h = to_dense(PauliSum((PauliTerm(1.0, ((0, "Z"),)),)), 1)
    assert np.allclose(thermal_matrix(h, 2.0),
                       np.diag([np.exp(-1.0), np.exp(1.0)]))


def test_matches_expm_oracle(h2, m2):
    ref = scipy.linalg.expm(-0.5 * m2)
    assert np.max(np.abs(thermal_matrix(h2, 1.0) - ref)) < 1e-9


def test_weight_rows_match_scalar_calls(h2):
    # a run's (n_beta, 2^n) weights are bit for bit the per-beta ones
    betas = [0.0, 0.5, 1.0, 40.0]
    rows = thermal_weights(h2, betas)
    scaled = scaled_weights(h2, rows)
    assert rows.shape == scaled.shape == (4, 4)
    for beta, row, scaled_row in zip(betas, rows, scaled):
        assert np.array_equal(row, thermal_weights(h2, beta))
        assert np.array_equal(scaled_row, scaled_weights(h2, row))


def test_negative_beta_and_nonpositive_epsilon_are_rejected(h2):
    for call in (lambda: thermal_weights(h2, [0.5, -1.0]),
                 lambda: scaled_filter(h2, -0.1),
                 lambda: dilated_omega(h2, -0.1, 0.5),
                 lambda: dilated_omega(h2, 0.5, 0.0)):
        with pytest.raises(ValueError, match="must be"):
            call()


def test_q_positive_definite_and_scaled(h2):
    vals = np.linalg.eigvalsh(thermal_matrix(h2, 1.0))
    assert np.all(vals > 0)
    assert np.max(np.abs(scaled_filter(h2, 1.0))) == pytest.approx(1.0)


# a single Y keeps H's eigenbasis complex
SINGLE_Y = PauliSum((PauliTerm(1.0, ((0, "Y"),)),
                     PauliTerm(0.7, ((0, "X"), (1, "Z")))))


@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 40.0])
@pytest.mark.parametrize("h_pauli,n", [
    (build_heisenberg(LatticeSpec(1, (5,))), 5),
    (build_heisenberg(LatticeSpec(2, (2, 3))), 6),
    (SINGLE_Y, 2),
], ids=["chain5", "grid2x3", "single-y"])
def test_scale_is_the_largest_entry_of_q(h_pauli, n, beta):
    # Q is positive definite, so its largest |entry| sits on its diagonal,
    # which the operator reads off the eigenbasis without forming Q
    h = to_dense(h_pauli, n)
    ref = np.max(np.abs(scipy.linalg.expm(-beta * kron_matrix(h_pauli, n)
                                          / 2.0)))
    assert thermal_scale(h, beta) == pytest.approx(ref, rel=1e-10)


def test_large_beta_projects_onto_ground_state(chain3):
    h = to_dense(build_heisenberg(chain3), 3)
    psi = sample_haar_state(3, 4)
    out = exact_run_filter(h, 50.0, psi)
    ground = h.eigenvectors[:, 0]
    assert abs(np.vdot(ground, out)) ** 2 > 0.999


def test_scale_invariance_of_the_exact_filter(h2):
    # rescaling Q cannot change the normalized output: the eigenvalues of
    # Q/s with s rescaled filter psi to the exact filter's state
    psi = sample_haar_state(2, 9)
    out = exact_run_filter(h2, 1.0, psi)
    rescaled = scaled_weights(h2, thermal_weights(h2, 1.0)) / 37.5
    out2, _ = filter_states(h2, rescaled, h2.to_eigenbasis(psi.amps[:, None]),
                            NORM_FLOOR)
    assert np.max(np.abs(out - out2[:, 0])) < 1e-12


@pytest.mark.parametrize("eps", [1e-4, 0.3, 1.5])
def test_omega_matches_expm_oracle(h2, eps):
    omega = dilated_omega(h2, 1.0, eps)
    qp = scaled_filter(h2, 1.0)
    zero = np.zeros_like(qp)
    m = np.block([[zero, -1j * qp], [1j * qp.conj().T, zero]])
    assert np.max(np.abs(omega - scipy.linalg.expm(1j * eps * m))) < 1e-9
    assert np.max(np.abs(omega.conj().T @ omega - np.eye(8))) < 1e-10


def test_omega_small_epsilon_limit(h2):
    omega = dilated_omega(h2, 1.0, 1e-9)
    assert np.max(np.abs(omega - np.eye(8))) < 1e-8


def test_omega_identity_q_case(h2):
    eps = 0.7
    omega = dilated_omega(h2, 0.0, eps)
    eye = np.eye(4)
    expected = np.block([[np.cos(eps) * eye, np.sin(eps) * eye],
                         [-np.sin(eps) * eye, np.cos(eps) * eye]])
    assert np.max(np.abs(omega - expected)) < 1e-12


@pytest.mark.parametrize("n", [7, 8])
def test_omega_peak_fits_its_budget(n):
    # tracemalloc sees numpy's buffers: the eigenvectors V, assembled inside,
    # and Omega's build stay within the 7 matrices of H's size it budgets
    dense = to_dense(build_heisenberg(LatticeSpec(1, (n,))), n)
    dense._block_eig  # diagonalize before tracing
    tracemalloc.start()
    try:
        dilated_omega(dense, 0.5, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * dense.blocks[0].itemsize * dense.dim**2


def omega_branch(h, beta, eps, psi):
    """Post-selected state and P0 from the dense Omega on [0; psi]."""
    augmented = np.concatenate([np.zeros_like(psi.amps), psi.amps])
    full = StateVector(psi.n + 1, dilated_omega(h, beta, eps) @ augmented)
    return postselect(full, [psi.n], [0])


def test_apply_dilated_closed_form_oracle(h2, m2):
    psi = sample_haar_state(2, 3)
    exact = expm_filter(m2, 1.0, psi.amps)
    # at eps = 4.0 sin(eps q) changes sign across the scaled spectrum
    for eps in (0.25, 0.3, 2.0, 4.0):
        out, p0, fid = apply_dilated(h2, psi, *dilation(h2, 1.0, eps))
        ref, ref_p0 = omega_branch(h2, 1.0, eps, psi)
        assert p0 == pytest.approx(ref_p0, abs=1e-10)
        assert np.max(np.abs(out.amps - ref.amps)) < 1e-10
        assert fid == pytest.approx(abs(np.vdot(ref.amps, exact)), abs=1e-10)
        assert 0.0 < fid <= 1.0


def test_apply_dilated_zero_probability(h2):
    psi = sample_haar_state(2, 3)
    with pytest.raises(ZeroProbability):
        apply_dilated(h2, psi, *dilation(h2, 1.0, 1e-9))


def test_apply_dilated_fidelity_at_most_one(h2):
    # at beta = 0 the branch is parallel to the exact state, so the raw
    # overlap ratio lands on either side of 1 by round-off
    weights = dilation(h2, 0.0, 0.3)
    for seed in range(10):
        _, _, fid = apply_dilated(h2, sample_haar_state(2, seed), *weights)
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert fid <= 1.0


def test_dilated_identity_q_half_pi(h2):
    psi = sample_haar_state(2, 8)
    out, p0, fid = apply_dilated(h2, psi, *dilation(h2, 0.0, np.pi / 2))
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.amps - psi.amps)) < 1e-10
    assert fid == pytest.approx(1.0, abs=1e-10)


def test_fidelity_and_p0_epsilon_tradeoff(h2):
    # F rises and P0 falls as epsilon decreases
    psi = sample_haar_state(2, 12)
    eps_grid = np.logspace(-3, 0, 8)
    fids, p0s = [], []
    for eps in eps_grid:
        _, p0, fid = apply_dilated(h2, psi, *dilation(h2, 1.0, eps))
        fids.append(fid)
        p0s.append(p0)
    assert all(f1 >= f2 - 1e-12 for f1, f2 in zip(fids, fids[1:]))
    assert p0s[0] < p0s[-1]


def test_small_epsilon_linearization(h2):
    # || sin(eps Q') - eps Q' || <= ||eps Q'||^3 / 6 on the spectrum
    q = scaled_weights(h2, thermal_weights(h2, 1.0))
    for eps in np.logspace(-3, -1, 5):
        gap = np.max(np.abs(np.sin(eps * q) - eps * q))
        assert gap <= (eps * np.max(q)) ** 3 / 6 + 1e-15


def test_expectation_agreement_exact_vs_dilated():
    lattice = LatticeSpec(1, (4,))
    h_pauli = build_heisenberg(lattice)
    h = to_dense(h_pauli, 4)
    psi = sample_haar_state(4, 21)
    from tpqsim import expectations

    e_exact = expectations(expm_filter(kron_matrix(h_pauli, 4), 2.0,
                                       psi.amps), h_pauli)
    out, _, _ = apply_dilated(h, psi, *dilation(h, 2.0, 1e-3))
    e_dilated = expectations(out.amps, h_pauli)
    assert abs(e_dilated - e_exact) / abs(e_exact) < 1e-4


def test_dilated_cnot_count_recurrence():
    # C(n) = 4 C(n-1) + 3 * 2^(n-1), C(1) = 0, evaluated at n = N + 1
    assert dilated_cnot_count(1) == 6
    assert dilated_cnot_count(2) == 36
    assert dilated_cnot_count(3) == 168
    assert dilated_cnot_count(4) == 720


def test_complex_basis_filters_match_oracles():
    h = to_dense(SINGLE_Y, 2)
    assert np.iscomplexobj(h.eigenvectors)
    psi = sample_haar_state(2, 5)
    q_psi = scipy.linalg.expm(-0.5 * kron_matrix(SINGLE_Y, 2)) @ psi.amps
    out = exact_run_filter(h, 1.0, psi)
    assert np.max(np.abs(out - q_psi / np.linalg.norm(q_psi))) < 1e-10
    branch, p0, _ = apply_dilated(h, psi, *dilation(h, 1.0, 0.6))
    ref, ref_p0 = omega_branch(h, 1.0, 0.6, psi)
    assert p0 == pytest.approx(ref_p0, abs=1e-10)
    assert np.max(np.abs(branch.amps - ref.amps)) < 1e-10
