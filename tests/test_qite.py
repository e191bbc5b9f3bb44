import math

import numpy as np
import pytest
import scipy.linalg

from tpqsim import (
    DomainTooSmallWarning,
    LatticeSpec,
    QiteSpec,
    StateVector,
    apply_circuit,
    apply_exact,
    build_heisenberg,
    qite_circuit,
    qite_evolve,
    to_dense,
)
from tpqsim.cli import timed_builds
from tpqsim.pauli import PauliTerm, to_dense as pauli_to_dense, PauliSum
from tpqsim.qite import _term_window
from tpqsim.random_state import sample_haar_state

from conftest import exact_thermal_operator


@pytest.mark.parametrize("placed,theta", [
    (((0, "Z"),), 0.8),
    (((0, "X"), (1, "Y")), -1.1),
    (((0, "Y"), (1, "Z"), (2, "X")), 0.35),
])
def test_pauli_rotation_gadget_against_expm(placed, theta):
    n = 3
    circuit = qite_circuit([(placed, theta)], n)
    psi = sample_haar_state(n, 7)
    out = apply_circuit(psi, circuit)
    p = pauli_to_dense(PauliSum((PauliTerm(1.0, placed),)), n).matrix
    ref = scipy.linalg.expm(-1j * theta / 2 * p) @ psi.amps
    assert np.max(np.abs(out.amps - ref)) < 1e-10
    assert circuit.cnot_count == 2 * (len(placed) - 1)


def test_window_1d_centering():
    term = PauliTerm(1.0, ((3, "X"), (4, "X")))
    assert set(_term_window(term, 8, 3, None)) >= {3, 4}
    assert len(_term_window(term, 8, 3, None)) == 3
    edge = PauliTerm(1.0, ((0, "X"), (1, "X")))
    assert _term_window(edge, 8, 3, None) == (0, 1, 2)
    tail = PauliTerm(1.0, ((6, "Z"), (7, "Z")))
    assert _term_window(tail, 8, 3, None) == (5, 6, 7)


def test_window_2d_manhattan():
    lattice = LatticeSpec(2, (2, 3))
    # bond between sites 0 and 1 (row 0); nearest extra site by Manhattan
    # distance with index tie-break is site 2 or 3 (both at distance 1 -> 2)
    term = PauliTerm(1.0, ((0, "Z"), (1, "Z")))
    window = _term_window(term, 6, 3, lattice)
    assert set(window) >= {0, 1}
    assert window == (0, 1, 2)


def test_beta_zero_identity(chain2):
    h = build_heisenberg(chain2)
    psi = sample_haar_state(2, 1)
    out, rotations = qite_evolve(QiteSpec(0.0), h, psi)
    circuit = qite_circuit(rotations, 2)
    assert len(circuit.gates) == 0
    assert np.array_equal(out.amps, psi.amps)


@pytest.mark.parametrize("n,beta", [(2, 1.0), (3, 0.6)])
def test_full_domain_fidelity(n, beta):
    lattice = LatticeSpec(1, (n,))
    h = build_heisenberg(lattice)
    op = exact_thermal_operator(to_dense(h, n), beta)
    psi = sample_haar_state(n, 13)
    out, _ = qite_evolve(QiteSpec(beta, n_steps=25, domain=n), h, psi, lattice)
    assert out.fidelity(apply_exact(op, psi)) > 0.99


def test_replay_reproduces_state(chain3):
    h = build_heisenberg(chain3)
    psi = sample_haar_state(3, 5)
    out, rotations = qite_evolve(QiteSpec(0.8, n_steps=5, domain=3), h, psi)
    circuit = qite_circuit(rotations, 3)
    replay = apply_circuit(psi, circuit)
    assert np.max(np.abs(replay.amps - out.amps)) < 1e-9
    assert abs(out.norm - 1.0) < 1e-9


def test_replay_reproduces_state_2d_window():
    lattice = LatticeSpec(2, (2, 2))
    h = build_heisenberg(lattice)
    psi = sample_haar_state(4, 9)
    out, rotations = qite_evolve(QiteSpec(0.8, n_steps=3, domain=3), h, psi,
                                 lattice)
    circuit = qite_circuit(rotations, 4)
    replay = apply_circuit(psi, circuit)
    assert np.max(np.abs(replay.amps - out.amps)) < 1e-9


def test_fidelity_improves_with_steps(chain2):
    h = build_heisenberg(chain2)
    op = exact_thermal_operator(to_dense(h, 2), 1.0)
    fids = []
    for steps in (1, 4, 16):
        vals = []
        for seed in range(5):
            psi = sample_haar_state(2, seed)
            out, _ = qite_evolve(QiteSpec(1.0, n_steps=steps, domain=2), h, psi)
            vals.append(out.fidelity(apply_exact(op, psi)))
        fids.append(np.mean(vals))
    assert fids[0] <= fids[1] + 1e-6 <= fids[2] + 2e-6


def test_fidelity_improves_with_domain():
    n = 4
    lattice = LatticeSpec(1, (n,))
    h = build_heisenberg(lattice)
    op = exact_thermal_operator(to_dense(h, n), 1.0)
    psi = sample_haar_state(n, 3)
    fids = []
    for d in (2, 3, 4):
        out, _ = qite_evolve(QiteSpec(1.0, n_steps=10, domain=d), h, psi, lattice)
        fids.append(out.fidelity(apply_exact(op, psi)))
    assert fids[0] <= fids[1] + 1e-6
    assert fids[1] <= fids[2] + 1e-6


def test_domain_too_small_warns(chain3):
    h = build_heisenberg(chain3)
    psi = sample_haar_state(3, 2)
    with pytest.warns(DomainTooSmallWarning):
        qite_evolve(QiteSpec(0.5, n_steps=2, domain=1), h, psi)


def test_cnot_count_additive_in_steps(chain2):
    h = build_heisenberg(chain2)
    per_step = []
    for steps in (1, 2, 4):
        psi = sample_haar_state(2, 0)
        _, rotations = qite_evolve(QiteSpec(1.0, n_steps=steps, domain=2), h, psi)
        circuit = qite_circuit(rotations, 2)
        per_step.append(circuit.cnot_count)
    # linear growth: equal per-step increments within pruning jitter
    inc1 = per_step[1] - per_step[0]
    inc2 = (per_step[2] - per_step[1]) / 2
    assert per_step[1] > per_step[0]
    assert abs(inc2 - inc1) <= 0.2 * max(inc1, 1)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (4, 3)])
def test_cnot_count_invariant_under_global_phase(n, d):
    lattice = LatticeSpec(1, (n,))
    h = build_heisenberg(lattice)
    psi = sample_haar_state(n, 0)
    counts = set()
    for angle in (0.0, 0.3, 1.7, 2.9):
        rotated = StateVector(n, np.exp(1j * angle) * psi.amps)
        _, rotations = qite_evolve(QiteSpec(1.0, n_steps=2, domain=d), h,
                                   rotated, lattice)
        circuit = qite_circuit(rotations, n)
        counts.add(circuit.cnot_count)
    assert len(counts) == 1


def qite_build(spec, h, n, lattice=None):
    """The QITE circuit of one input state, as `resources` builds it."""
    return lambda psi: qite_circuit(qite_evolve(spec, h, psi, lattice)[1], n)


def test_resources_zero_beta(chain2):
    h = build_heisenberg(chain2)
    circuit, seconds = timed_builds(qite_build(QiteSpec(0.0), h, 2),
                                    [sample_haar_state(2, 0)])
    assert circuit.cnot_count == 0
    assert seconds >= 0.0


def test_generation_time_grows_with_system():
    # the median of 5 builds per size, so that one stalled build in a busy
    # process cannot reverse the order
    times = []
    for n in (2, 3):
        lattice = LatticeSpec(1, (n,))
        h = build_heisenberg(lattice)
        _, secs = timed_builds(
            qite_build(QiteSpec(1.0, n_steps=5, domain=n), h, n, lattice),
            [sample_haar_state(n, seed) for seed in range(5)])
        times.append(secs)
    assert times[1] > times[0]
