import numpy as np
import pytest

import tpqsim.estimator
import tpqsim.fable
import tpqsim.nonunitary
from tpqsim import (
    DenseHermitian,
    Gate,
    LatticeSpec,
    PauliSum,
    PauliTerm,
    QiteSpec,
    RandomCircuitSpec,
    TpqRunSpec,
    ZeroProbability,
    build_heisenberg,
    ensemble_expectation,
    fable_encode,
    run_ensemble,
    squared_error_scan,
    to_dense,
)
from tpqsim.errors import ConfigError
from tpqsim.estimator import (
    BackendSpec,
    filtered_batches,
    measure_filtered,
    realization_seed,
)
from tpqsim.lattice import magnetization_x
from tpqsim.nonunitary import scaled_filter, thermal_weights
from tpqsim.random_state import random_state, sample_haar_state
from tpqsim.statevector import (
    StateVector,
    expectations,
    sample_expectations,
)

from conftest import (
    BLOCK_CASES,
    SLAB_CASES,
    ascending,
    expm_filter,
    fable_branch,
    forbid_full_eigenvectors,
    kron_matrix,
    omega_branch,
    qite_one,
    traced_peak,
)


@pytest.fixture
def dense2(chain2):
    return to_dense(build_heisenberg(chain2), 2)


def test_ensemble_beta_zero_is_normalized_trace(dense2, chain2):
    h = build_heisenberg(chain2)
    assert ensemble_expectation(dense2, h, 0.0) == pytest.approx(0.0, abs=1e-12)
    mx = magnetization_x(chain2)
    ref = np.trace(kron_matrix(mx, 2)).real / 4
    assert ensemble_expectation(dense2, mx, 0.0) == pytest.approx(ref, abs=1e-12)


def test_ensemble_large_beta_is_ground_state(dense2, chain2):
    h = build_heisenberg(chain2)
    assert ensemble_expectation(dense2, h, 50.0) == pytest.approx(
        dense2.eigenvalues[ascending(dense2)[0]], abs=1e-8)


def test_ensemble_against_direct_matrix_oracle(dense2, chain2):
    import scipy.linalg

    h = build_heisenberg(chain2)
    beta = 1.0
    m = kron_matrix(h, 2)
    rho = scipy.linalg.expm(-beta * m)
    ref = np.trace(rho @ m).real / np.trace(rho).real
    assert ensemble_expectation(dense2, h, beta) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_ensemble_magnetization_against_expm_oracle(chain3, beta):
    import scipy.linalg

    h = to_dense(build_heisenberg(chain3), 3)
    mx = kron_matrix(magnetization_x(chain3), 3)
    rho = scipy.linalg.expm(-beta * kron_matrix(build_heisenberg(chain3), 3))
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


def off_block_observable(n):
    """Z_0 + X_0 Y_{n-1}: its strings flip bits in the computational and
    in the rotated basis, so it is never diagonal in the blocks' basis."""
    return PauliSum((PauliTerm(0.7, ((0, "Z"),)),
                     PauliTerm(0.4, ((0, "X"), (n - 1, "Y")))))


@pytest.mark.parametrize("case", sorted(SLAB_CASES))
def test_ensemble_reference_from_slabs_matches_the_full_eigenvectors(case):
    h_pauli, n = SLAB_CASES[case]
    h = to_dense(h_pauli, n)
    a, betas = off_block_observable(n), np.array([0.0, 0.5, 2.0])
    assert h.diagonal_in_eigenbasis(a) is None
    w = thermal_weights(h, betas) ** 2
    ref = w @ expectations(h.eigenvectors, a) / w.sum(axis=-1)
    np.testing.assert_allclose(ensemble_expectation(h, a, betas), ref,
                               rtol=1e-12, atol=1e-13)


def test_ensemble_reference_reads_no_full_eigenvectors(monkeypatch):
    h_pauli, n, _ = BLOCK_CASES["z_field"]
    h = to_dense(h_pauli, n)
    a, betas = off_block_observable(n), [0.0, 0.5, 2.0]
    expected = ensemble_expectation(h, a, betas)
    forbid_full_eigenvectors(monkeypatch)
    assert np.array_equal(ensemble_expectation(to_dense(h_pauli, n), a, betas),
                          expected)


def filter_one(kind, beta, psi, dense, h, lattice=None, **kwargs):
    """A backend's filtered state of one input state at one beta."""
    (batch,) = filtered_batches(BackendSpec(kind, **kwargs), [beta],
                                psi.amps[:, None], dense, h, lattice)
    return StateVector(psi.n, batch[:, 0])


def test_tpq_expectation_beta_zero_reduction(dense2, chain2):
    h = build_heisenberg(chain2)
    psi = sample_haar_state(2, 5)
    assert expectations(filter_one("exact", 0.0, psi, dense2, h).amps, h) \
        == pytest.approx(expectations(psi.amps, h), abs=1e-12)


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
    e0 = expectations(filter_one("exact", beta, psi, dense, h, chain3).amps,
                      h)
    e1 = expectations(filter_one(kind, beta, psi, dense, h, chain3,
                                 **kwargs).amps, h)
    assert abs(e1 - e0) / abs(e0) < 0.02


def test_run_ensemble_single_realization(chain3):
    spec = TpqRunSpec(chain3, (0.5,), realizations=1, depth=10, base_seed=4)
    est = run_ensemble(spec)
    assert est.values.shape == (1, 1)
    assert est.mean[0] == est.values[0, 0]
    assert est.uncertainty[0] == 0.0
    assert est.ensemble_ref.shape == (1,)


@pytest.mark.parametrize("field", [{"depth": 0}, {"entangler": "swap"},
                                   {"shots": -1}, {"base_seed": -1},
                                   {"base_seed": 1.5}])
def test_run_spec_rejects_a_bad_circuit_or_shot_count(chain3, field):
    # refused when the spec is built, not once H is diagonalized (nor, for
    # a seed, by numpy's SeedSequence in the run)
    with pytest.raises(ConfigError):
        TpqRunSpec(chain3, (0.5,), **field)


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
    (out,) = squared_error_scan([LatticeSpec(1, (n,)) for n in (2, 3)],
                                depths=[10], beta=0.5, realizations=10,
                                base_seed=6)
    assert set(out) == {2, 3}
    assert all(v > 0 for v in out.values())


def test_squared_error_scan_shares_one_eigenbasis_per_chain(monkeypatch):
    # one to_dense per chain for all depths, and each depth's values equal
    # those of its own run
    chains = [LatticeSpec(1, (n,)) for n in (2, 3, 4)]
    calls = []

    def counted(h, n):
        calls.append(n)
        return to_dense(h, n)

    monkeypatch.setattr(tpqsim.estimator, "to_dense", counted)
    shared = squared_error_scan(chains, [2, 5, 2], beta=0.5, realizations=4,
                                base_seed=3)
    assert calls == [2, 3, 4]
    for depth, dsq in zip([2, 5, 2], shared):
        spec = TpqRunSpec(chains[1], (0.5,), realizations=4, depth=depth,
                          base_seed=3)
        est = run_ensemble(spec)
        assert dsq[3] == float(np.mean((est.values[0]
                                        - est.ensemble_ref[0]) ** 2))


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


def per_state_run(spec):
    """run_ensemble's values and shot stderr, one (state, beta) pair at a
    time through the filters' oracles and the single-state measurements: the
    dense expm for the exact filter, the dense Omega for the dilated one and
    the replayed circuit for FABLE."""
    lattice, backend = spec.lattice, spec.backend
    h = build_heisenberg(lattice)
    dense = to_dense(h, lattice.n_sites)
    m = kron_matrix(h, lattice.n_sites)
    observable = h if spec.observable is None else spec.observable
    values = np.empty((len(spec.betas), spec.realizations))
    shot_var = np.zeros(len(spec.betas))
    for r in range(spec.realizations):
        psi = random_state(RandomCircuitSpec(
            lattice, spec.depth, spec.entangler,
            realization_seed(spec.base_seed, r)))
        for bi, beta in enumerate(spec.betas):
            if backend.kind == "exact":
                out = StateVector(psi.n, expm_filter(m, beta, psi.amps))
            elif backend.kind == "dilated":
                out = omega_branch(dense, beta, backend.epsilon, psi)[0]
            elif backend.kind == "fable":
                out = fable_branch(fable_encode(scaled_filter(dense, beta)),
                                   psi)[0]
            else:
                qspec = QiteSpec(beta, backend.n_steps, backend.domain)
                out = qite_one(qspec, h, psi, lattice)[0]
            if spec.shots == 0:
                values[bi, r] = expectations(out.amps, observable)
                continue
            seed = int(np.random.SeedSequence(
                entropy=spec.base_seed,
                spawn_key=(r, 1 + bi)).generate_state(1)[0])
            mean, err = sample_expectations(out.amps[:, None], observable,
                                            spec.shots, [seed])
            values[bi, r] = mean[0]
            shot_var[bi] += err[0]**2
    return values, np.sqrt(shot_var) / spec.realizations


@pytest.mark.parametrize("realizations", [1, 3])
@pytest.mark.parametrize("shots", [0, 500])
@pytest.mark.parametrize("magnetization", [False, True])
@pytest.mark.parametrize("backend", [
    BackendSpec("exact"),
    BackendSpec("dilated", epsilon=0.1),
    BackendSpec("fable"),
    BackendSpec("qite", n_steps=2),
])
def test_run_ensemble_matches_per_state_path(chain3, backend, magnetization,
                                             shots, realizations):
    spec = TpqRunSpec(chain3, (0.3, 1.1),
                      observable=magnetization_x(chain3) if magnetization
                      else None,
                      realizations=realizations, depth=6, backend=backend,
                      base_seed=5, shots=shots)
    est = run_ensemble(spec)
    values, shot_stderr = per_state_run(spec)
    np.testing.assert_allclose(est.values, values, rtol=0, atol=1e-12)
    if shots:
        np.testing.assert_allclose(est.shot_stderr, shot_stderr, rtol=0,
                                   atol=1e-12)
    else:
        assert est.shot_stderr is None


def count_basis_changes(monkeypatch):
    """(direction, batch shape) of each blocked transform into or out of
    H's eigenbasis."""
    calls = []
    for name in ("to_eigenbasis", "from_eigenbasis"):
        def counted(h, amps, name=name, original=getattr(DenseHermitian, name)):
            calls.append((name, amps.shape))
            return original(h, amps)
        monkeypatch.setattr(DenseHermitian, name, counted)
    return calls


def test_exact_energy_run_changes_basis_once(chain3, monkeypatch):
    calls = count_basis_changes(monkeypatch)
    run_ensemble(TpqRunSpec(chain3, (0.2, 0.5, 1.0, 2.0), realizations=4,
                            depth=5))
    # one V^T Psi for the whole (2^n, R) batch
    assert calls == [("to_eigenbasis", (8, 4))]


@pytest.mark.parametrize("backend", [BackendSpec("exact"),
                                     BackendSpec("qite", n_steps=2)])
def test_energy_run_assembles_no_full_matrix(chain3, monkeypatch, backend):
    # the exact filter, the QITE measurement and the energy reference read
    # the blocks' eigenpairs only: neither V nor H is assembled at 2^n x 2^n
    def forbidden(*args):
        raise AssertionError("assembled a full 2^n x 2^n matrix")

    monkeypatch.setattr(DenseHermitian, "eig", property(forbidden))
    est = run_ensemble(TpqRunSpec(chain3, (0.2, 1.0), realizations=3,
                                  depth=5, backend=backend))
    assert np.all(np.isfinite(est.values))


@pytest.mark.parametrize("extents", [(5,), (3, 2)])
def test_magnetization_run_assembles_no_full_matrix(monkeypatch, extents):
    # X-only strings have flip mask 0 after the rotation: the reference reads
    # <v_k|A|v_k> off the blocks' eigenvectors, as the assembled V gives it
    lattice = LatticeSpec(len(extents), extents)
    dense = to_dense(build_heisenberg(lattice), lattice.n_sites)
    mx = magnetization_x(lattice)
    assert dense.diagonal_in_eigenbasis(build_heisenberg(lattice)) is None
    vals, vecs = dense.eig
    via_v = expectations(vecs, mx)
    assert np.max(np.abs(dense.diagonal_in_eigenbasis(mx) - via_v)) < 1e-12
    betas = (0.0, 0.2, 1.0, 3.0)
    w = np.exp(-np.multiply.outer(betas, vals - vals.min()))
    ref = w @ via_v / w.sum(axis=1)

    def forbidden(*args):
        raise AssertionError("assembled a full 2^n x 2^n matrix")

    monkeypatch.setattr(DenseHermitian, "eig", property(forbidden))
    est = run_ensemble(TpqRunSpec(lattice, betas, observable=mx,
                                  realizations=3, depth=5))
    assert np.all(np.isfinite(est.values))
    assert np.max(np.abs(est.ensemble_ref - ref)) < 1e-12


@pytest.mark.parametrize("backend", [BackendSpec("dilated", epsilon=0.1),
                                     BackendSpec("fable")])
def test_circuit_energy_run_filters_in_the_eigenbasis(chain3, monkeypatch,
                                                      backend):
    # the dilation's and the exact FABLE encoding's branches are functions of
    # Q, so neither the dense Q/s nor the encoded block is needed
    def forbidden(*args):
        raise AssertionError("built a dense 2^n x 2^n filter")

    calls = count_basis_changes(monkeypatch)
    monkeypatch.setattr(tpqsim.nonunitary, "scaled_filter", forbidden)
    monkeypatch.setattr(tpqsim.fable, "fable_encode", forbidden)
    run_ensemble(TpqRunSpec(chain3, (0.2, 0.5, 1.0, 2.0), realizations=4,
                            depth=5, backend=backend))
    # one V^T Psi for the whole (2^n, R) batch
    assert calls == [("to_eigenbasis", (8, 4))]


@pytest.mark.parametrize("kind", ["dilated", "fable"])
def test_circuit_energy_filter_allocates_no_dense_matrix(kind):
    # tracemalloc sees numpy's buffers; one real 2^8 x 2^8 matrix is 512 KiB
    lattice = LatticeSpec(1, (8,))
    h = build_heisenberg(lattice)
    dense = to_dense(h, 8)
    states = np.stack([sample_haar_state(8, s).amps for s in range(3)], axis=1)
    spec = TpqRunSpec(lattice, (0.2, 0.5, 1.0, 2.0),
                      backend=BackendSpec(kind, epsilon=0.1))
    _, _, peak = traced_peak(lambda: measure_filtered(spec, states, dense, h))
    assert peak < 8 * 4**8 // 4


def test_measured_batches_do_not_pile_up_over_betas():
    # each beta's filtered (2^8, 400) batch is dropped before the next one is
    # built, so three betas peak where one does (7.1 copies of the batch)
    lattice = LatticeSpec(1, (8,))
    h = build_heisenberg(lattice)
    dense = to_dense(h, 8)
    states = np.stack([sample_haar_state(8, s).amps for s in range(400)],
                      axis=1)
    copies = []
    for betas in ((0.5,), (0.5, 1.0, 2.0)):
        spec = TpqRunSpec(lattice, betas, observable=magnetization_x(lattice))
        _, _, peak = traced_peak(
            lambda: measure_filtered(spec, states, dense, h))
        copies.append(peak / states.nbytes)
    assert copies[1] < copies[0] + 0.25


def test_qite_measurement_builds_no_gate(chain3, monkeypatch):
    # the gadget circuit is emitted only for resource counts and replay
    def forbidden(*args, **kwargs):
        raise AssertionError("a Gate was built")

    h = build_heisenberg(chain3)
    dense = to_dense(h, 3)
    states = np.stack([sample_haar_state(3, s).amps for s in range(2)], axis=1)
    spec = TpqRunSpec(chain3, (0.5, 1.0),
                      backend=BackendSpec("qite", n_steps=2))
    monkeypatch.setattr(Gate, "__post_init__", forbidden)
    values, _ = measure_filtered(spec, states, dense, h)
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("backend,beta", [
    (BackendSpec("exact"), 40.0),
    (BackendSpec("dilated", epsilon=1e-9), 1.0),
    (BackendSpec("fable"), 40.0),
])
@pytest.mark.parametrize("magnetization", [False, True])
def test_batched_filters_raise_zero_probability(chain2, backend, beta,
                                                magnetization):
    # a good state next to the top eigenvector, which the filter annihilates
    h = build_heisenberg(chain2)
    dense = to_dense(h, 2)
    states = np.stack([sample_haar_state(2, 1).amps,
                       dense.eigenvectors[:, ascending(dense)[-1]]
                       .astype(complex)], axis=1)
    spec = TpqRunSpec(chain2, (0.5, beta), backend=backend,
                      observable=magnetization_x(chain2) if magnetization
                      else None)
    with pytest.raises(ZeroProbability):
        measure_filtered(spec, states, dense, h)
