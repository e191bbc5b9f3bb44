import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from tpqsim import (
    DomainTooSmallWarning,
    LatticeSpec,
    QiteSpec,
    SingularSystem,
    StateVector,
    apply_circuit,
    build_heisenberg,
    qite_circuit,
    qite_evolve,
)
from tpqsim.cli import timed_builds
from tpqsim.pauli import (
    PauliSum,
    PauliTerm,
    apply_pauli_sum,
)
import tpqsim.qite as qite
from tpqsim.qite import _term_window
from tpqsim.random_state import sample_haar_state

from conftest import expm_filter, kron_matrix, qite_one, string_gathers


@pytest.mark.parametrize("placed,theta", [
    (((0, "Z"),), 0.8),
    (((0, "X"), (1, "Y")), -1.1),
    (((0, "Y"), (1, "Z"), (2, "X")), 0.35),
])
def test_pauli_rotation_gadget_against_expm(placed, theta):
    n = 3
    circuit = qite_circuit(([placed], [theta]), n)
    psi = sample_haar_state(n, 7)
    out = apply_circuit(psi, circuit)
    p = kron_matrix(PauliSum((PauliTerm(1.0, placed),)), n)
    ref = scipy.linalg.expm(-1j * theta / 2 * p) @ psi.amps
    assert np.max(np.abs(out.amps - ref)) < 1e-10
    assert circuit.cnot_count == 2 * (len(placed) - 1)


def test_zero_angle_emits_no_gadget():
    strings = [((0, "X"), (1, "Y")), ((1, "Z"),), ((0, "Y"), (2, "X"))]
    kept = qite_circuit(([strings[0], strings[2]], [0.8, -0.3]), 3)
    assert qite_circuit((strings, [0.8, 0.0, -0.3]), 3).gates == kept.gates
    assert qite_circuit((strings, np.zeros(3)), 3).gates == []


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
    out, rotations = qite_one(QiteSpec(0.0), h, psi)
    circuit = qite_circuit(rotations, 2)
    assert len(circuit.gates) == 0
    assert np.array_equal(out.amps, psi.amps)


@pytest.mark.parametrize("n,beta", [(2, 1.0), (3, 0.6)])
def test_full_domain_fidelity(n, beta):
    lattice = LatticeSpec(1, (n,))
    h = build_heisenberg(lattice)
    psi = sample_haar_state(n, 13)
    exact = expm_filter(kron_matrix(h, n), beta, psi.amps)
    out, _ = qite_one(QiteSpec(beta, n_steps=25, domain=n), h, psi, lattice)
    assert abs(np.vdot(out.amps, exact)) > 0.99


def test_replay_reproduces_state(chain3):
    h = build_heisenberg(chain3)
    psi = sample_haar_state(3, 5)
    out, rotations = qite_one(QiteSpec(0.8, n_steps=5, domain=3), h, psi)
    circuit = qite_circuit(rotations, 3)
    replay = apply_circuit(psi, circuit)
    assert np.max(np.abs(replay.amps - out.amps)) < 1e-9
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-9


def test_replay_reproduces_state_2d_window():
    lattice = LatticeSpec(2, (2, 2))
    h = build_heisenberg(lattice)
    psi = sample_haar_state(4, 9)
    out, rotations = qite_one(QiteSpec(0.8, n_steps=3, domain=3), h, psi,
                              lattice)
    circuit = qite_circuit(rotations, 4)
    replay = apply_circuit(psi, circuit)
    assert np.max(np.abs(replay.amps - out.amps)) < 1e-9


def test_fidelity_improves_with_steps(chain2):
    h = build_heisenberg(chain2)
    m = kron_matrix(h, 2)
    fids = []
    for steps in (1, 4, 16):
        vals = []
        for seed in range(5):
            psi = sample_haar_state(2, seed)
            out, _ = qite_one(QiteSpec(1.0, n_steps=steps, domain=2), h, psi)
            vals.append(abs(np.vdot(out.amps,
                                    expm_filter(m, 1.0, psi.amps))))
        fids.append(np.mean(vals))
    assert fids[0] <= fids[1] + 1e-6 <= fids[2] + 2e-6


def test_fidelity_improves_with_domain():
    n = 4
    lattice = LatticeSpec(1, (n,))
    h = build_heisenberg(lattice)
    psi = sample_haar_state(n, 3)
    exact = expm_filter(kron_matrix(h, n), 1.0, psi.amps)
    fids = []
    for d in (2, 3, 4):
        out, _ = qite_one(QiteSpec(1.0, n_steps=10, domain=d), h, psi, lattice)
        fids.append(abs(np.vdot(out.amps, exact)))
    assert fids[0] <= fids[1] + 1e-6
    assert fids[1] <= fids[2] + 1e-6


def test_domain_too_small_warns(chain3):
    h = build_heisenberg(chain3)
    psi = sample_haar_state(3, 2)
    with pytest.warns(DomainTooSmallWarning):
        qite_one(QiteSpec(0.5, n_steps=2, domain=1), h, psi)


def test_cnot_count_additive_in_steps(chain2):
    h = build_heisenberg(chain2)
    per_step = []
    for steps in (1, 2, 4):
        psi = sample_haar_state(2, 0)
        _, rotations = qite_one(QiteSpec(1.0, n_steps=steps, domain=2), h, psi)
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
        _, rotations = qite_one(QiteSpec(1.0, n_steps=2, domain=d), h,
                                rotated, lattice)
        circuit = qite_circuit(rotations, n)
        counts.add(circuit.cnot_count)
    assert len(counts) == 1


def qite_build(spec, h, n, lattice=None):
    """The QITE circuit of one input state, as `resources` builds it."""
    return lambda psi: qite_circuit(qite_one(spec, h, psi, lattice)[1], n)


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


def gram_solve(psi, delta, labels, n):
    """The fit as the (4^d - 1)-term normal equations over the strings'
    actions on the whole state: (S_sym + _REG I) x = b, solved in S_sym's
    eigenbasis with round-off directions dropped; returns x and the dropped
    count."""
    sources, phases = string_gathers(labels, n)
    sigma_psi = phases * psi[sources]
    gram = sigma_psi.conj() @ sigma_psi.T
    s_sym = gram.real + gram.real.T
    b = 2.0 * (sigma_psi @ delta.conj()).imag
    lam, vecs = np.linalg.eigh(s_sym)
    keep = lam > len(lam) * np.finfo(float).eps * lam[-1]
    vecs = vecs[:, keep]
    return vecs @ ((vecs.T @ b) / (lam[keep] + qite._REG)), int(np.sum(~keep))


def product_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = np.ones(1)
    for _ in range(n):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = np.kron(z / np.linalg.norm(z), amps)
    return StateVector(n, amps)


@pytest.mark.parametrize("n,window,state,reg,rank_deficient", [
    (7, (3,), "haar", None, False),
    (7, (2, 3), "haar", None, False),
    (7, (2, 3, 4), "haar", None, False),
    (9, (0, 1, 4), "haar", None, False),     # a 3x3 grid's window for bond 1-4
    (7, (1, 2, 3), "product", None, True),   # drops directions
    (3, (0, 1, 2), "haar", None, True),      # the window is the whole state
    (7, (2, 3, 4), "haar", 1e-2, False),     # checks _REG / 2^d
    (2, (0, 1), "haar", None, True),         # d = 2, the whole state
    (6, (1, 2), "product", None, True),
    (3, (0, 1, 2), "haar", 1e-2, True),      # _REG / 2^d, rank-deficient
    # a 1 x 1 null block has no traceless part: nothing to drop
    (5, (2,), "product", None, False),
])
def test_window_fit_matches_the_gram_solve(monkeypatch, n, window, state, reg,
                                           rank_deficient):
    if reg is not None:
        monkeypatch.setattr(qite, "_REG", reg)
    psi = (sample_haar_state(n, 3) if state == "haar"
           else product_state(n, 3)).amps
    # the target of one term step on a bond inside the window
    term = PauliSum((PauliTerm(1.0, ((window[0], "X"), (window[-1], "X"))),))
    evolved = math.cosh(0.1) * psi - math.sinh(0.1) * apply_pauli_sum(psi, n, term)
    delta = evolved / np.linalg.norm(evolved) - psi

    d = len(window)
    strings, paulis = qite._window_strings(d)
    labels = [tuple((window[i], o) for i, o in s) for s in strings]
    axes = qite._window_axes(window, n)
    m = qite._to_window(psi[:, None], axes, d)
    x = qite._fit(paulis, m, qite._to_window(delta[:, None], axes, d) - m)[0]
    ref, dropped = gram_solve(psi, delta, labels, n)
    assert np.max(np.abs(x - ref)) < 1e-12
    assert (dropped > 0) == rank_deficient


def test_fit_of_a_non_finite_window_is_a_singular_system():
    _, paulis = qite._window_strings(2)
    m = sample_haar_state(4, 1).amps.reshape(1, 4, 4)
    m[0, 1, 0] = np.nan
    with pytest.raises(SingularSystem):
        qite._fit(paulis, m, np.zeros_like(m))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_step_at_large_beta_stays_finite():
    # dtau c = 1000 per term step: cosh and sinh overflow past 710
    lattice = LatticeSpec(1, (6,))
    h = build_heisenberg(lattice)
    states = haar_batch(6, range(2))
    out, (labels, thetas) = qite_evolve(QiteSpec(2000.0, n_steps=1), h,
                                        states, lattice)
    assert np.all(np.isfinite(out))
    assert np.allclose(np.linalg.norm(out, axis=0), 1.0, rtol=0, atol=1e-12)
    for k in range(2):
        replay = apply_circuit(StateVector(6, states[:, k]),
                               qite_circuit((labels, thetas[k]), 6))
        assert np.max(np.abs(replay.amps - out[:, k])) < 1e-9


def haar_batch(n, seeds):
    return np.stack([sample_haar_state(n, s).amps for s in seeds], axis=1)


@pytest.mark.parametrize("lattice,betas,domain", [
    (LatticeSpec(1, (5,)), (0.8, 0.8, 0.8), 3),
    (LatticeSpec(1, (5,)), (0.8, 0.0, 0.3), 3),
    (LatticeSpec(2, (2, 3)), (0.8, 0.8, 0.8), 3),
    (LatticeSpec(2, (2, 3)), (0.0, 1.1, 0.4), 3),
    (LatticeSpec(1, (5,)), (0.5, 0.0, 1.2), 1),  # bonds outside the window
], ids=["chain5", "chain5-mixed", "grid2x3", "grid2x3-mixed",
        "chain5-mixed-domain1"])
@pytest.mark.filterwarnings("ignore::tpqsim.errors.DomainTooSmallWarning")
def test_batch_columns_match_their_own_evolution(monkeypatch, lattice, betas,
                                                 domain):
    n = lattice.n_sites
    h = build_heisenberg(lattice)
    states = haar_batch(n, range(3))
    full_state_steps = []
    apply = qite.apply_pauli_sum
    monkeypatch.setattr(qite, "apply_pauli_sum", lambda a, *rest: (
        full_state_steps.append(len(a) == 1 << n) or apply(a, *rest)))
    out, (labels, thetas) = qite_evolve(QiteSpec(betas, n_steps=3,
                                                 domain=domain),
                                        h, states, lattice)
    assert thetas.shape == (3, len(labels))
    # a term steps the whole state only when its window misses its support
    assert any(full_state_steps) == (domain == 1)
    for k, beta in enumerate(betas):
        one, (one_labels, one_thetas) = qite_evolve(
            QiteSpec(beta, n_steps=3, domain=domain), h, states[:, k:k + 1],
            lattice)
        assert np.max(np.abs(out[:, k] - one[:, 0])) < 1e-12
        if beta == 0.0:  # the input, with a row of zero angles
            assert np.max(np.abs(out[:, k] - states[:, k])) < 1e-12
            assert one_labels == [] and one_thetas.shape == (1, 0)
            assert not thetas[k].any()
            assert qite_circuit((labels, thetas[k]), n).gates == []
        else:
            assert one_labels == labels
            assert np.allclose(thetas[k], one_thetas[0], rtol=0, atol=1e-12)
        # replaying column k's rotations from its input reproduces it
        replay = apply_circuit(StateVector(n, states[:, k]),
                               qite_circuit((labels, thetas[k]), n))
        assert np.max(np.abs(replay.amps - out[:, k])) < 1e-9


@pytest.mark.parametrize("d", [1, 2, 3])
def test_window_unitary_is_the_ordered_product(d):
    # the 4^d - 1 strings leave the last group of 4 one identity short
    _, paulis = qite._window_strings(d)
    x = np.random.default_rng(d).normal(scale=0.7, size=(3, len(paulis)))
    x[0, ::3] = 0.0  # pruned rotations
    x[1, -2:] = 0.0  # the last group's strings pruned around the padding
    x[2] = 0.0
    unitaries = qite._window_unitary(qite._product_basis(paulis), x)
    for row, u in zip(x, unitaries):
        ref = np.eye(1 << d)
        for xj, p in zip(row, paulis):
            ref = scipy.linalg.expm(-1j * xj * p) @ ref
        assert np.max(np.abs(u - ref)) < 1e-12


def test_fit_holds_no_array_per_window_string():
    # 12 sites, d = 3: one (63, 2^12) complex array of the strings' actions
    # would take 4.1 MB, 32 times the (2^12, 2) batch; the evolution peaks
    # at 11 batches, of which about 0.6 MB does not grow with N (measured at
    # 8 to 13 sites)
    lattice = LatticeSpec(1, (12,))
    h = build_heisenberg(lattice)
    states = haar_batch(12, range(2))
    tracemalloc.start()
    try:
        qite_evolve(QiteSpec(0.5, n_steps=1, domain=3), h, states, lattice)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * states.nbytes
