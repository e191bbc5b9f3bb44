import numpy as np
import pytest

from tpqsim import (
    LatticeSpec,
    TpqRunSpec,
    build_heisenberg,
    ensemble_expectation,
    run_ensemble,
    squared_error_scan,
    to_dense,
)
from tpqsim.estimator import BackendSpec, make_backend, realization_seed
from tpqsim.lattice import magnetization_x
from tpqsim.random_state import sample_haar_state
from tpqsim.statevector import expectation


@pytest.fixture
def dense2(chain2):
    return to_dense(build_heisenberg(chain2), 2)


def test_ensemble_beta_zero_is_normalized_trace(dense2, chain2):
    h = build_heisenberg(chain2)
    assert ensemble_expectation(dense2, h, 0.0) == pytest.approx(0.0, abs=1e-12)
    mx = magnetization_x(chain2)
    ref = np.trace(to_dense(mx, 2).matrix).real / 4
    assert ensemble_expectation(dense2, mx, 0.0) == pytest.approx(ref, abs=1e-12)


def test_ensemble_large_beta_is_ground_state(dense2, chain2):
    h = build_heisenberg(chain2)
    assert ensemble_expectation(dense2, h, 50.0) == pytest.approx(
        dense2.eigenvalues[0], abs=1e-8)


def test_ensemble_against_direct_matrix_oracle(dense2, chain2):
    import scipy.linalg

    h = build_heisenberg(chain2)
    beta = 1.0
    rho = scipy.linalg.expm(-beta * dense2.matrix)
    ref = np.trace(rho @ dense2.matrix).real / np.trace(rho).real
    assert ensemble_expectation(dense2, h, beta) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_ensemble_magnetization_against_expm_oracle(chain3, beta):
    import scipy.linalg

    h = to_dense(build_heisenberg(chain3), 3)
    mx = to_dense(magnetization_x(chain3), 3).matrix
    rho = scipy.linalg.expm(-beta * h.matrix)
    ref = np.trace(rho @ mx).real / np.trace(rho).real
    got = ensemble_expectation(h, magnetization_x(chain3), beta)
    assert got == pytest.approx(ref, abs=1e-10)


def test_ensemble_array_beta_matches_scalar_calls(chain3):
    h = to_dense(build_heisenberg(chain3), 3)
    betas = np.array([0.0, 0.5, 2.0])
    for a in (None, build_heisenberg(chain3), magnetization_x(chain3)):
        batch = ensemble_expectation(h, a, betas)
        assert batch.shape == betas.shape
        for b, value in zip(betas, batch):
            assert value == pytest.approx(ensemble_expectation(h, a, b),
                                          abs=1e-12)


def test_tpq_expectation_beta_zero_reduction(dense2, chain2):
    h = build_heisenberg(chain2)
    psi = sample_haar_state(2, 5)
    backend = make_backend(BackendSpec("exact"), 0.0, dense2, h)
    assert expectation(backend(psi), h) == pytest.approx(
        expectation(psi, h), abs=1e-12)


@pytest.mark.parametrize("kind,kwargs", [
    ("dilated", {"epsilon": 1e-3}),
    ("fable", {}),
    ("qite", {"n_steps": 50, "domain": 3}),
])
def test_backends_agree_with_exact(kind, kwargs, chain3):
    h = build_heisenberg(chain3)
    dense = to_dense(h, 3)
    psi = sample_haar_state(3, 11)
    beta = 1.0
    exact = make_backend(BackendSpec("exact"), beta, dense, h, chain3)
    other = make_backend(BackendSpec(kind, **kwargs), beta, dense, h, chain3)
    e0 = expectation(exact(psi), h)
    e1 = expectation(other(psi), h)
    assert abs(e1 - e0) / abs(e0) < 0.02


def test_run_ensemble_single_realization(chain3):
    spec = TpqRunSpec(chain3, (0.5,), realizations=1, depth=10, base_seed=4)
    est = run_ensemble(spec)
    assert est.values.shape == (1, 1)
    assert est.mean[0] == est.values[0, 0]
    assert est.uncertainty[0] == 0.0
    assert est.ensemble_ref.shape == (1,)


def test_run_ensemble_deterministic(chain3):
    spec = TpqRunSpec(chain3, (0.2, 0.9), realizations=4, depth=10, base_seed=8)
    a, b = run_ensemble(spec), run_ensemble(spec)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.mean, b.mean)


def test_realization_seeds_distinct():
    seeds = [realization_seed(123, r) for r in range(50)]
    assert len(set(seeds)) == 50
    assert seeds == [realization_seed(123, r) for r in range(50)]


def test_uncertainty_is_stddev_over_sqrt_r(chain3):
    spec = TpqRunSpec(chain3, (0.5,), realizations=8, depth=10, base_seed=1)
    est = run_ensemble(spec)
    vals = est.values[0]
    assert est.uncertainty[0] == pytest.approx(np.std(vals) / np.sqrt(8))


def test_shots_mode_close_to_exact(chain2):
    base = TpqRunSpec(chain2, (0.5,), realizations=2, depth=10, base_seed=3)
    exact = run_ensemble(base)
    noisy = run_ensemble(TpqRunSpec(chain2, (0.5,), realizations=2, depth=10,
                                    base_seed=3, shots=200_000))
    assert noisy.shot_stderr is not None
    assert abs(noisy.mean[0] - exact.mean[0]) < 0.1


def test_magnetization_observable(chain3):
    spec = TpqRunSpec(chain3, (0.5,), observable=magnetization_x(chain3),
                      realizations=3, depth=10, base_seed=2)
    est = run_ensemble(spec)
    assert est.ensemble_ref.shape == (1,)
    assert np.all(np.abs(est.values) <= 3.0 + 1e-9)


def test_squared_error_scan_positive():
    out = squared_error_scan([2, 3], depth=10, beta=0.5, realizations=10,
                             base_seed=6)
    assert set(out) == {2, 3}
    assert all(v > 0 for v in out.values())


def test_averaging_reduces_error(chain3):
    betas = tuple(np.round(np.arange(0.2, 2.01, 0.3), 10))
    errs = {}
    for r in (1, 40):
        per_seed = []
        for s in range(3):
            est = run_ensemble(TpqRunSpec(chain3, betas, realizations=r,
                                          depth=10, base_seed=100 + s))
            per_seed.append(np.mean(np.abs(est.mean - est.ensemble_ref)))
        errs[r] = np.mean(per_seed)
    assert errs[40] < errs[1]
