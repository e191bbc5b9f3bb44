import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpqsim import (
    Circuit,
    LatticeSpec,
    PauliSum,
    PauliTerm,
    RandomCircuitSpec,
    StateVector,
    ZeroProbability,
    apply_circuit,
    build_heisenberg,
    build_random_circuit,
    expectations,
    sample_expectations,
    to_dense,
    zero_state,
)
from tpqsim.statevector import _apply_gate, gate_matrix
from tpqsim.circuit import Gate
from tpqsim.random_state import sample_haar_state

from conftest import ascending, circuit_unitary, kron_chain, postselect


def test_h_on_zero():
    c = Circuit(1)
    c.append("h", 0)
    out = apply_circuit(zero_state(1), c)
    assert np.allclose(out.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_cz_phase_on_11():
    c = Circuit(2)
    c.append("x", 0)
    c.append("x", 1)
    c.append("cz", 0, 1)
    out = apply_circuit(zero_state(2), c)
    assert np.allclose(out.amps, [0, 0, 0, -1])


def test_cnot_truth_table():
    for control_val, expect_target in [(0, 0), (1, 1)]:
        c = Circuit(2)
        if control_val:
            c.append("x", 0)
        c.append("cnot", 0, 1)
        out = apply_circuit(zero_state(2), c)
        idx = int(np.argmax(np.abs(out.amps)))
        assert (idx >> 0) & 1 == control_val
        assert (idx >> 1) & 1 == expect_target


def test_swap_exchanges_qubits():
    c = Circuit(2)
    c.append("x", 0)
    c.append("swap", 0, 1)
    out = apply_circuit(zero_state(2), c)
    assert np.argmax(np.abs(out.amps)) == 2


@pytest.mark.parametrize("kind,angle", [
    ("h", None), ("x", None), ("t", None),
    ("rx", math.pi / 2), ("ry", 0.7), ("rz", -1.3),
])
def test_single_qubit_gate_against_kron_oracle(kind, angle):
    # apply on qubit 1 of a 3-qubit random state; compare to explicit kron
    psi = sample_haar_state(3, 17)
    c = Circuit(3)
    c.append(kind, 1, angle=angle)
    out = apply_circuit(psi, c)
    mat = gate_matrix(Gate(kind, (1,), angle))
    ref = kron_chain(3, {1: mat}) @ psi.amps
    assert np.max(np.abs(out.amps - ref)) < 1e-12


def reference_gate(amps, n, g):
    """A gate through moveaxis and per-call index maps, the kernel the
    reshape and cached-diagonal kernels replaced."""
    if g.kind in ("cz", "cnot", "swap"):
        idx = np.arange(1 << n)
        q0, q1 = g.qubits
        if g.kind == "cz":
            sel = ((idx >> q0) & 1) & ((idx >> q1) & 1)
            out = amps.copy()
            out[sel == 1] = -out[sel == 1]
            return out
        if g.kind == "cnot":
            perm = idx ^ (((idx >> q0) & 1) << q1)
        else:
            b0, b1 = (idx >> q0) & 1, (idx >> q1) & 1
            perm = idx ^ (((b0 ^ b1) << q0) | ((b0 ^ b1) << q1))
        return amps[perm]
    a = amps.reshape([2] * n + ([-1] if amps.ndim == 2 else []))
    axis = n - 1 - g.qubits[0]
    a = np.moveaxis(a, axis, 0)
    moved = a.shape
    a = (gate_matrix(g) @ a.reshape(2, -1)).reshape(moved)
    return np.moveaxis(a, 0, axis).reshape(amps.shape)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("batch", [None, 3])
def test_gate_kernels_match_reference(n, batch):
    rng = np.random.default_rng(n)
    shape = (1 << n,) if batch is None else (1 << n, batch)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gates = [Gate(kind, (q,), angle) for q in range(n)
             for kind, angle in [("h", None), ("x", None), ("t", None),
                                 ("rx", math.pi / 2), ("ry", 0.7),
                                 ("rz", -1.3)]]
    gates += [Gate(kind, (q0, q1)) for q0 in range(n) for q1 in range(n)
              if q0 != q1 for kind in ("cz", "cnot", "swap")]
    for g in gates:
        out = _apply_gate(amps, n, g)
        ref = reference_gate(amps, n, g)
        assert out.shape == amps.shape
        if g.kind in ("cz", "cnot", "swap"):
            assert np.array_equal(out, ref), g
        else:
            # two products and a sum per amplitude, in another order
            assert np.max(np.abs(out - ref)) < 1e-15 * np.max(np.abs(amps)), g


def test_random_circuit_unitarity():
    spec = RandomCircuitSpec(LatticeSpec(1, (5,)), depth=20, seed=3)
    out = apply_circuit(zero_state(5), build_random_circuit(spec))
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_norm_preserved_property(seed):
    spec = RandomCircuitSpec(LatticeSpec(1, (4,)), depth=3, seed=seed)
    out = apply_circuit(sample_haar_state(4, seed), build_random_circuit(spec))
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10


def test_circuit_unitary_matches_statevector_path():
    spec = RandomCircuitSpec(LatticeSpec(1, (3,)), depth=4, seed=9)
    c = build_random_circuit(spec)
    u = circuit_unitary(c)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10
    psi = sample_haar_state(3, 2)
    assert np.max(np.abs(u @ psi.amps - apply_circuit(psi, c).amps)) < 1e-12


def test_expectation_basics():
    z0 = PauliSum((PauliTerm(1.0, ((0, "Z"),)),))
    assert expectations(zero_state(1).amps, z0) == pytest.approx(1.0)
    plus = np.array([1, 1]) / math.sqrt(2)
    x0 = PauliSum((PauliTerm(1.0, ((0, "X"),)),))
    assert expectations(plus, x0) == pytest.approx(1.0)


def test_ground_state_energy_matches_diagonalization(chain2):
    h = build_heisenberg(chain2)
    dense = to_dense(h, 2)
    ground = ascending(dense)[0]
    assert expectations(dense.eigenvectors[:, ground], h) == pytest.approx(
        dense.eigenvalues[ground], abs=1e-10)


def test_expectation_within_spectral_range(chain3):
    h = build_heisenberg(chain3)
    dense = to_dense(h, 3)
    lo, hi = dense.eigenvalues[ascending(dense)[[0, -1]]]
    for seed in range(10):
        val = expectations(sample_haar_state(3, seed).amps, h)
        assert lo - 1e-10 <= val <= hi + 1e-10


def test_postselect_product_state():
    phi = sample_haar_state(2, 1).amps
    full = np.zeros(8, dtype=complex)
    full[:4] = phi  # ancilla (qubit 2) in |0>
    out, p = postselect(StateVector(3, full), [2], [0])
    assert p == pytest.approx(1.0)
    assert np.max(np.abs(out.amps - phi)) < 1e-12


def test_postselect_branch_probability():
    a = sample_haar_state(1, 5).amps
    b = sample_haar_state(1, 6).amps
    full = np.concatenate([a, b]) / math.sqrt(2)
    out, p = postselect(StateVector(2, full), [1], [0])
    assert p == pytest.approx(0.5)
    assert np.max(np.abs(out.amps - a)) < 1e-12
    out1, p1 = postselect(StateVector(2, full), [1], [1])
    assert p + p1 == pytest.approx(1.0, abs=1e-10)


def test_postselect_zero_probability():
    with pytest.raises(ZeroProbability):
        postselect(zero_state(2), [1], [1])


def test_sample_expectation_exact_eigenstate():
    z0 = PauliSum((PauliTerm(1.0, ((0, "Z"),)),))
    mean, err = sample_expectations(zero_state(1).amps[:, None], z0,
                                    shots=100, seeds=[0])
    assert mean[0] == 1.0 and err[0] == 0.0


def test_sample_expectation_binomial_noise():
    x0 = PauliSum((PauliTerm(1.0, ((0, "X"),)),))
    mean, err = sample_expectations(zero_state(1).amps[:, None], x0,
                                    shots=100_000, seeds=[1])
    assert abs(mean[0]) < 0.02
    assert err[0] == pytest.approx(1 / math.sqrt(100_000), rel=0.1)


def test_sample_expectation_converges_at_sqrt_shots(chain2):
    h = build_heisenberg(chain2)
    psi = sample_haar_state(2, 7).amps
    exact = expectations(psi, h)
    batch = np.repeat(psi[:, None], 20, axis=1)
    errors = []
    for shots in (100, 10_000, 1_000_000):
        means = sample_expectations(batch, h, shots, range(20))[0]
        errors.append(np.mean(np.abs(means - exact)))
    assert errors[0] > errors[1] > errors[2]
    # each 100x shot increase should shrink error by roughly 10x
    assert errors[0] / errors[1] > 3
    assert errors[1] / errors[2] > 3


def scalar_draws(psi, a, shots, seed):
    """The finite-shot estimate of <A> with one scalar binomial draw per
    non-identity term, in term order, from one generator."""
    rng = np.random.default_rng(seed)
    mean = var = 0.0
    for term in a:
        if term.weight == 0:
            mean += term.coefficient
            continue
        unit = PauliSum((PauliTerm(1.0, term.operators),))
        p_plus = min(max((1.0 + float(expectations(psi, unit))) / 2.0, 0.0),
                     1.0)
        m = 2.0 * rng.binomial(shots, p_plus) / shots - 1.0
        mean += term.coefficient * m
        var += term.coefficient**2 * (1.0 - m * m) / shots
    return mean, math.sqrt(var)


@pytest.mark.parametrize("shots", [1, 7, 1000, 100_000])
def test_sample_expectations_match_scalar_draws_per_column(chain3, shots):
    """Each column's one batched draw equals its per-term scalar draws, and
    a column does not depend on the others in its batch."""
    h = PauliSum((PauliTerm(0.75, ()), *build_heisenberg(chain3)))
    batch = np.stack([sample_haar_state(3, s).amps for s in range(4)], axis=1)
    seeds = [11, 12, 13, 14]
    means, errs = sample_expectations(batch, h, shots, seeds)
    for k, seed in enumerate(seeds):
        mean, err = scalar_draws(batch[:, k], h, shots, seed)
        assert means[k] == pytest.approx(mean, rel=0, abs=1e-12)
        assert errs[k] == pytest.approx(err, rel=0, abs=1e-12)
        one = sample_expectations(batch[:, k:k + 1], h, shots, [seed])
        assert (one[0][0], one[1][0]) == (means[k], errs[k])
