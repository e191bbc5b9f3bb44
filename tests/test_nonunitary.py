import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from tpqsim import (
    DilationSpec,
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
from tpqsim.nonunitary import NORM_FLOOR, ThermalOperator, filter_states
from tpqsim.statevector import StateVector
from tpqsim.random_state import sample_haar_state

from conftest import (
    exact_thermal_operator,
    expm_filter,
    postselect,
    thermal_matrix,
    thermal_scale,
)


@pytest.fixture
def op2(chain2):
    return exact_thermal_operator(to_dense(build_heisenberg(chain2), 2), 1.0)


def exact_run_filter(op, psi):
    """The exact filter as a run applies it, on the one-column batch of psi."""
    batches = filtered_batches(BackendSpec("exact"), (op.beta,),
                               psi.amps[:, None], op.hamiltonian, None)
    return next(batches)[:, 0]


def test_beta_zero_is_identity(chain2):
    op = exact_thermal_operator(to_dense(build_heisenberg(chain2), 2), 0.0)
    assert np.allclose(thermal_matrix(op), np.eye(4))
    psi = sample_haar_state(2, 0)
    assert np.max(np.abs(exact_run_filter(op, psi) - psi.amps)) < 1e-12


def test_diagonal_hamiltonian():
    h = to_dense(PauliSum((PauliTerm(1.0, ((0, "Z"),)),)), 1)
    op = exact_thermal_operator(h, 2.0)
    assert np.allclose(thermal_matrix(op), np.diag([np.exp(-1.0), np.exp(1.0)]))


def test_matches_expm_oracle(op2, chain2):
    h = to_dense(build_heisenberg(chain2), 2)
    ref = scipy.linalg.expm(-0.5 * h.matrix)
    assert np.max(np.abs(thermal_matrix(op2) - ref)) < 1e-9
    assert np.max(np.abs(op2.scaled * thermal_scale(op2) - ref)) < 1e-9


def test_q_positive_definite_and_scaled(op2):
    vals = np.linalg.eigvalsh(thermal_matrix(op2))
    assert np.all(vals > 0)
    assert np.max(np.abs(op2.scaled)) == pytest.approx(1.0)


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
    ref = np.max(np.abs(scipy.linalg.expm(-beta * h.matrix / 2.0)))
    scale = thermal_scale(exact_thermal_operator(h, beta))
    assert scale == pytest.approx(ref, rel=1e-10)


def test_large_beta_projects_onto_ground_state(chain3):
    h = to_dense(build_heisenberg(chain3), 3)
    op = exact_thermal_operator(h, 50.0)
    psi = sample_haar_state(3, 4)
    out = exact_run_filter(op, psi)
    ground = h.eigenvectors[:, 0]
    assert abs(np.vdot(ground, out)) ** 2 > 0.999


def test_scale_invariance_of_the_exact_filter(op2):
    # rescaling Q cannot change the normalized output: the eigenvalues of
    # Q/s with s rescaled filter psi to the exact filter's state
    psi = sample_haar_state(2, 9)
    out = exact_run_filter(op2, psi)
    rescaled = ThermalOperator(op2.beta, op2.hamiltonian)
    rescaled._shifted_scale  # force cache
    rescaled.__dict__["_shifted_scale"] = op2._shifted_scale * 37.5
    h = op2.hamiltonian
    out2, _ = filter_states(h, rescaled.scaled_eigenvalues(),
                            h.to_eigenbasis(psi.amps[:, None]), NORM_FLOOR)
    assert np.max(np.abs(out - out2[:, 0])) < 1e-12


@pytest.mark.parametrize("eps", [1e-4, 0.3, 1.5])
def test_omega_matches_expm_oracle(op2, eps):
    spec = DilationSpec(eps, op2)
    omega = dilated_omega(spec)
    qp = op2.scaled
    zero = np.zeros_like(qp)
    m = np.block([[zero, -1j * qp], [1j * qp.conj().T, zero]])
    assert np.max(np.abs(omega - scipy.linalg.expm(1j * eps * m))) < 1e-9
    assert np.max(np.abs(omega.conj().T @ omega - np.eye(8))) < 1e-10


def test_omega_small_epsilon_limit(op2):
    omega = dilated_omega(DilationSpec(1e-9, op2))
    assert np.max(np.abs(omega - np.eye(8))) < 1e-8


def test_omega_identity_q_case(chain2):
    op = exact_thermal_operator(to_dense(build_heisenberg(chain2), 2), 0.0)
    eps = 0.7
    omega = dilated_omega(DilationSpec(eps, op))
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
    op = ThermalOperator(0.5, dense)
    tracemalloc.start()
    try:
        dilated_omega(DilationSpec(0.1, op))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * dense.blocks[0].itemsize * dense.dim**2


def omega_branch(spec, psi):
    """Post-selected state and P0 from the dense Omega on [0; psi]."""
    augmented = np.concatenate([np.zeros_like(psi.amps), psi.amps])
    full = StateVector(psi.n + 1, dilated_omega(spec) @ augmented)
    return postselect(full, [psi.n], [0])


def test_apply_dilated_closed_form_oracle(op2):
    psi = sample_haar_state(2, 3)
    exact = expm_filter(op2.hamiltonian, op2.beta, psi.amps)
    # at eps = 4.0 sin(eps q) changes sign across the scaled spectrum
    for eps in (0.25, 0.3, 2.0, 4.0):
        spec = DilationSpec(eps, op2)
        out, p0, fid = apply_dilated(spec, psi)
        ref, ref_p0 = omega_branch(spec, psi)
        assert p0 == pytest.approx(ref_p0, abs=1e-10)
        assert np.max(np.abs(out.amps - ref.amps)) < 1e-10
        assert fid == pytest.approx(abs(np.vdot(ref.amps, exact)), abs=1e-10)
        assert 0.0 < fid <= 1.0


def test_apply_dilated_zero_probability(op2):
    psi = sample_haar_state(2, 3)
    with pytest.raises(ZeroProbability):
        apply_dilated(DilationSpec(1e-9, op2), psi)


def test_apply_dilated_fidelity_at_most_one(chain2):
    # at beta = 0 the branch is parallel to the exact state, so the raw
    # overlap ratio lands on either side of 1 by round-off
    op = exact_thermal_operator(to_dense(build_heisenberg(chain2), 2), 0.0)
    for seed in range(10):
        _, _, fid = apply_dilated(DilationSpec(0.3, op),
                                  sample_haar_state(2, seed))
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert fid <= 1.0


def test_dilated_identity_q_half_pi(chain2):
    op = exact_thermal_operator(to_dense(build_heisenberg(chain2), 2), 0.0)
    psi = sample_haar_state(2, 8)
    out, p0, fid = apply_dilated(DilationSpec(np.pi / 2, op), psi)
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.amps - psi.amps)) < 1e-10
    assert fid == pytest.approx(1.0, abs=1e-10)


def test_fidelity_and_p0_epsilon_tradeoff(op2):
    # F rises and P0 falls as epsilon decreases
    psi = sample_haar_state(2, 12)
    eps_grid = np.logspace(-3, 0, 8)
    fids, p0s = [], []
    for eps in eps_grid:
        _, p0, fid = apply_dilated(DilationSpec(eps, op2), psi)
        fids.append(fid)
        p0s.append(p0)
    assert all(f1 >= f2 - 1e-12 for f1, f2 in zip(fids, fids[1:]))
    assert p0s[0] < p0s[-1]


def test_small_epsilon_linearization(op2):
    # || sin(eps Q') - eps Q' || <= ||eps Q'||^3 / 6 on the spectrum
    q = op2.scaled_eigenvalues()
    for eps in np.logspace(-3, -1, 5):
        gap = np.max(np.abs(np.sin(eps * q) - eps * q))
        assert gap <= (eps * np.max(q)) ** 3 / 6 + 1e-15


def test_expectation_agreement_exact_vs_dilated():
    lattice = LatticeSpec(1, (4,))
    h_pauli = build_heisenberg(lattice)
    op = exact_thermal_operator(to_dense(h_pauli, 4), 2.0)
    psi = sample_haar_state(4, 21)
    from tpqsim import expectations

    e_exact = expectations(expm_filter(op.hamiltonian, 2.0, psi.amps), h_pauli)
    out, _, _ = apply_dilated(DilationSpec(1e-3, op), psi)
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
    op = exact_thermal_operator(h, 1.0)
    psi = sample_haar_state(2, 5)
    q_psi = scipy.linalg.expm(-0.5 * h.matrix) @ psi.amps
    out = exact_run_filter(op, psi)
    assert np.max(np.abs(out - q_psi / np.linalg.norm(q_psi))) < 1e-10
    spec = DilationSpec(0.6, op)
    branch, p0, _ = apply_dilated(spec, psi)
    ref, ref_p0 = omega_branch(spec, psi)
    assert p0 == pytest.approx(ref_p0, abs=1e-10)
    assert np.max(np.abs(branch.amps - ref.amps)) < 1e-10
