"""End-to-end acceptance checks.

Each test prints a single ``[criterion k] PASS|FAIL`` line (visible with
``pytest -s`` or in captured output) and asserts the stated tolerances.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import json

import numpy as np
import pytest
from click.testing import CliRunner

from tpqsim import (
    Circuit,
    LatticeSpec,
    PauliSum,
    PauliTerm,
    QiteSpec,
    RandomCircuitSpec,
    TpqRunSpec,
    apply_dilated,
    build_heisenberg,
    build_random_circuit,
    fable_encode,
    haar_entropy_reference,
    qite_circuit,
    qite_evolve,
    run_ensemble,
    squared_error_scan,
    state_entropy,
    to_dense,
)
from tpqsim.cli import main as cli_main
from tpqsim.estimator import (
    BackendSpec,
    ensemble_expectation,
    filtered_batches,
    realization_seed,
)
from tpqsim.nonunitary import (
    NORM_FLOOR,
    dilated_omega,
    filter_states,
    scaled_filter,
    scaled_weights,
    thermal_weights,
)
from tpqsim.random_state import random_state, sample_haar_state
from tpqsim.statevector import expectations

from conftest import (
    circuit_unitary,
    expm_filter,
    fable_branch,
    kron_matrix,
    omega_branch,
    qite_one,
)

BETAS = tuple(float(b) for b in np.round(np.arange(0.1, 2.01, 0.1), 10))


RESULTS: list[str] = []


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                RESULTS.append(f"[criterion {label}] FAIL")
                print(f"\n[criterion {label}] FAIL")
                raise
            RESULTS.append(f"[criterion {label}] PASS")
            print(f"\n[criterion {label}] PASS")
        return wrapper
    return deco


@pytest.mark.parametrize("lattice,tag", [
    (LatticeSpec(1, (12,)), "1d-chain-12"),
    (LatticeSpec(2, (4, 3)), "2d-grid-4x3"),
])
@criterion("1 energy-vs-ensemble")
def test_energy_tracks_ensemble_reference(lattice, tag):
    est = run_ensemble(TpqRunSpec(lattice, BETAS, realizations=10, depth=20,
                                  base_seed=1))
    rel = np.abs(est.mean - est.ensemble_ref) / np.abs(est.ensemble_ref)
    tol = np.maximum(0.03, 2 * est.uncertainty / np.abs(est.ensemble_ref))
    worst = np.max(rel - tol)
    print(f"  [{tag}] worst excess over tolerance: {worst:.4g} "
          f"(max rel err {np.max(rel):.4g})")
    assert np.all(rel <= tol)


@criterion("2 entropy-convergence")
def test_entropy_converges_to_haar_reference():
    lattice = LatticeSpec(1, (5,))
    ref = haar_entropy_reference(5)
    devs = {}
    for d in (10, 20):
        ent = [state_entropy(random_state(RandomCircuitSpec(lattice, depth=d,
                                                            seed=s)).amps)
               for s in range(60)]
        devs[d] = abs(float(np.mean(ent)) - ref)
    print(f"  |mean entropy - {ref:.4f}|: d=10 -> {devs[10]:.4f}, "
          f"d=20 -> {devs[20]:.4f}")
    assert devs[10] < 0.15
    assert devs[20] < 0.1


@criterion("3 squared-error-scaling")
def test_single_state_error_shrinks_with_system_size():
    # isotropic chain: the anisotropic couplings give a flat single-state
    # error over this size range, so the size trend is probed where it exists
    sizes = list(range(2, 11))
    chains = [LatticeSpec(1, (n,), Jx=1.0, Jy=1.0, Jz=1.0, hx=1.0)
              for n in sizes]
    dsq = dict(zip((2, 50), squared_error_scan(chains, (2, 50), beta=0.5,
                                               realizations=100, base_seed=0)))
    slopes = {d: float(np.polyfit(sizes,
                                  np.log([dsq[d][n] for n in sizes]), 1)[0])
              for d in (2, 50)}
    print(f"  log D(H)^2 slope vs N: d=50 -> {slopes[50]:.4f}, "
          f"d=2 -> {slopes[2]:.4f}; D(H)^2 at N=10: "
          f"d=2 {dsq[2][10]:.4g} vs d=50 {dsq[50][10]:.4g}")
    assert slopes[50] < 0
    assert slopes[2] >= 0 or dsq[2][10] >= 2 * dsq[50][10]


@criterion("4 averaging-benefit")
def test_averaging_over_realizations_reduces_error():
    lattice = LatticeSpec(1, (6,))
    agg = {}
    for r in (1, 100):
        errs = []
        for s in range(5):
            est = run_ensemble(TpqRunSpec(lattice, BETAS, realizations=r,
                                          depth=20, base_seed=s))
            errs.append(float(np.mean(np.abs(est.mean - est.ensemble_ref))))
        agg[r] = float(np.mean(errs))
    print(f"  aggregate |error| over 5 base seeds: R=1 -> {agg[1]:.4f}, "
          f"R=100 -> {agg[100]:.4f}")
    assert agg[100] < agg[1]


@criterion("5 dilation-diagnostics")
def test_dilation_fidelity_success_and_energy():
    lattice = LatticeSpec(1, (5,))
    h = build_heisenberg(lattice)
    dense = to_dense(h, 5)
    beta = 0.5
    exact = thermal_weights(dense, beta)
    ref = ensemble_expectation(dense, h, beta)
    states = [random_state(RandomCircuitSpec(lattice, depth=20,
                                             seed=realization_seed(0, r)))
              for r in range(400)]
    m = kron_matrix(h, 5)
    eps_grid = np.logspace(-3, 0, 10)
    mean_f, mean_p0, weighted_e = [], [], []
    for eps in eps_grid:
        branch = np.sin(eps * scaled_weights(dense, exact))
        es, p0s, fids = zip(*(apply_dilated(dense, psi, branch, exact)
                              for psi in states))
        # the first states' readouts against the dense Omega's post-selection
        for psi, e, p0, fid in zip(states[:3], es, p0s, fids):
            out, ref_p0 = omega_branch(dense, beta, eps, psi)
            assert abs(p0 - ref_p0) < 1e-10
            assert abs(e - expectations(out.amps, h)) < 1e-10
            assert abs(fid - abs(np.vdot(out.amps, expm_filter(
                m, beta, psi.amps)))) < 1e-10
        mean_f.append(float(np.mean(fids)))
        mean_p0.append(float(np.mean(p0s)))
        weighted_e.append(float(np.average(es, weights=p0s)))
    energy_rel = abs(weighted_e[0] - ref) / abs(ref)
    print(f"  F: {mean_f[0]:.6f} -> {mean_f[-1]:.6f}; "
          f"P0: {mean_p0[0]:.3g} -> {mean_p0[-1]:.3g}; "
          f"energy rel err at eps={eps_grid[0]:.0e}: {energy_rel:.4%}")
    assert all(a >= b - 1e-6 for a, b in zip(mean_f, mean_f[1:]))
    assert mean_p0[0] < mean_p0[-1]
    assert energy_rel < 0.01


def _hamiltonian(n):
    if n == 1:
        return PauliSum((PauliTerm(1.0, ((0, "X"),)),))
    return build_heisenberg(LatticeSpec(1, (n,)))


@criterion("6 block-encoding-exactness")
def test_block_encoding_is_exact():
    worst_block, worst_fid = 0.0, 1.0
    for n in (1, 2, 3, 4):
        h = to_dense(_hamiltonian(n), n)
        m = kron_matrix(_hamiltonian(n), n)
        for beta in (0.0, 0.5, 1.0):
            a = scaled_filter(h, beta)
            circuit = fable_encode(a)
            assert circuit.width - n == n + 1
            assert circuit.cnot_count == 4**n
            u = circuit_unitary(circuit)
            dim = 2**n
            block_err = float(np.max(np.abs(u[:dim, :dim] - a / dim)))
            worst_block = max(worst_block, block_err)
            psi = sample_haar_state(n, 17 + n)
            out, _ = fable_branch(circuit, psi)
            exact = expm_filter(m, beta, psi.amps)
            worst_fid = min(worst_fid, abs(np.vdot(out.amps, exact)))
    print(f"  worst block error {worst_block:.3g}, "
          f"worst post-selected fidelity {worst_fid:.10f}")
    assert worst_block < 1e-8
    assert worst_fid > 1 - 1e-7


@criterion("7 imaginary-time-fidelity")
def test_imaginary_time_evolution_matches_exact():
    beta = 1.0
    for n in (2, 3):
        lattice = LatticeSpec(1, (n,))
        h = build_heisenberg(lattice)
        psis = [sample_haar_state(n, seed) for seed in range(10)]
        batch = np.stack([psi.amps for psi in psis], axis=1)
        exact = expm_filter(kron_matrix(h, n), beta, batch)
        fid_by_steps = []
        for steps in (5, 10, 25, 50):
            out, _ = qite_evolve(QiteSpec(beta, n_steps=steps, domain=n),
                                 h, batch, lattice)
            fid_by_steps.append(float(np.mean(np.abs(
                np.einsum("ij,ij->j", out.conj(), exact)))))
        print(f"  N={n} mean fidelity over steps (5,10,25,50): "
              + ", ".join(f"{f:.5f}" for f in fid_by_steps))
        assert fid_by_steps[-1] > 0.99
        assert all(a <= b + 1e-6
                   for a, b in zip(fid_by_steps, fid_by_steps[1:]))
    # truncated-domain regime: measured, not asserted
    lattice = LatticeSpec(1, (4,))
    h = build_heisenberg(lattice)
    psi = sample_haar_state(4, 0)
    out, _ = qite_one(QiteSpec(beta, n_steps=50, domain=3), h, psi, lattice)
    exact = expm_filter(kron_matrix(h, 4), beta, psi.amps)
    print(f"  N=4 domain=3 (truncated) measured fidelity: "
          f"{abs(np.vdot(out.amps, exact)):.4f}")


@criterion("8 invariant-suite")
def test_invariants(tmp_path):
    rng = np.random.default_rng(0)
    lattice = LatticeSpec(1, (3,))
    h = build_heisenberg(lattice)
    dense = to_dense(h, 3)
    exact_w = thermal_weights(dense, 1.0)
    psi = sample_haar_state(3, 2)

    # unitarity of the dilated operator
    for eps in (1e-3, 0.3, 1.0):
        omega = dilated_omega(dense, 1.0, eps)
        assert np.max(np.abs(omega.conj().T @ omega
                             - np.eye(omega.shape[0]))) < 1e-10

    # closed-form post-selected branch against the dense Omega
    branch = np.sin(0.2 * scaled_weights(dense, exact_w))
    energy, p0, fid = apply_dilated(dense, psi, branch, exact_w)
    ref, ref_p0 = omega_branch(dense, 1.0, 0.2, psi)
    assert abs(p0 - ref_p0) < 1e-10
    assert abs(energy - expectations(ref.amps, h)) < 1e-10
    out = next(filtered_batches(BackendSpec("dilated", epsilon=0.2), (1.0,),
                                psi.amps[:, None], dense, h))
    assert np.max(np.abs(out[:, 0] - ref.amps)) < 1e-10
    exact = expm_filter(kron_matrix(h, 3), 1.0, psi.amps)
    assert abs(fid - abs(np.vdot(ref.amps, exact))) < 1e-10

    # normalized output is invariant under rescaling the thermal operator:
    # Q/s with s rescaled filters psi to the exact filter's state
    rescaled = scaled_weights(dense, exact_w) / 11.0
    coeffs = dense.to_eigenbasis(psi.amps[:, None])
    outs = [filter_states(dense, w, coeffs, NORM_FLOOR)[0][:, 0]
            for w in (exact_w, rescaled)]
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-12

    # beta = 0 reduces every backend to the identity
    for backend in (BackendSpec("exact"), BackendSpec("dilated", epsilon=0.5),
                    BackendSpec("fable")):
        out0 = next(filtered_batches(backend, (0.0,), psi.amps[:, None],
                                     dense, h))
        assert np.max(np.abs(out0[:, 0] - psi.amps)) < 1e-10
    outf, _ = fable_branch(fable_encode(scaled_filter(dense, 0.0)), psi)
    assert np.max(np.abs(outf.amps - psi.amps)) < 1e-10
    outq, rotations = qite_one(QiteSpec(0.0), h, psi, lattice)
    circ = qite_circuit(rotations, psi.n)
    assert len(circ.gates) == 0
    assert np.max(np.abs(outq.amps - psi.amps)) < 1e-10

    # gate-set constraint and entangling-layer periodicity on 500 specs
    checked = 0
    while checked < 500:
        if rng.random() < 0.7:
            lat = LatticeSpec(1, (int(rng.integers(2, 7)),))
        else:
            lat = LatticeSpec(2, (int(rng.integers(2, 4)),
                                  int(rng.integers(2, 4))))
        depth = int(rng.integers(1, 9))
        circuit = build_random_circuit(RandomCircuitSpec(
            lat, depth=depth, seed=int(rng.integers(0, 10**6))))
        n = lat.n_sites
        from tpqsim.random_state import entangling_patterns

        patterns = entangling_patterns(lat)
        gates = list(circuit.gates)
        prev_layer = None
        for block in range(depth):
            singles, gates = gates[:n], gates[n:]
            layer = [(g.kind, g.angle) for g in singles]
            assert all(k in ("rx", "ry", "t") for k, _ in layer)
            if prev_layer is not None:
                assert all(a != b for a, b in zip(prev_layer, layer))
            prev_layer = layer
            expected = set(patterns[block % len(patterns)])
            twos = gates[:len(expected)]
            gates = gates[len(expected):]
            assert {g.qubits for g in twos} == expected
        assert not gates
        checked += 1

    # byte-for-byte reproducible CSV output
    config = {
        "model": {"dimension": 1, "extents": [3]},
        "random_circuit": {"depth": 5, "seed": 3},
        "estimate": {"betas": [0.3, 1.1], "R": 3},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    runner = CliRunner()
    for name in ("a.csv", "b.csv"):
        result = runner.invoke(cli_main, ["sweep-beta", str(cfg_path),
                                          "-o", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
