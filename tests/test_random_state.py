import math

import numpy as np
import pytest

from tpqsim import (
    LatticeSpec,
    RandomCircuitSpec,
    build_random_circuit,
    haar_entropy_reference,
    nearest_neighbor_pairs,
    sample_haar_state,
    state_entropy,
    zero_state,
)
from tpqsim.random_state import (
    EULER_GAMMA,
    _gate_choices,
    entangling_patterns,
    random_state,
    random_states,
)
from tpqsim.statevector import apply_circuit


def blocks_of(circuit, n):
    """Split the gate list back into (single-qubit layer, entangling layer) blocks."""
    blocks = []
    gates = list(circuit.gates)
    while gates:
        singles = gates[:n]
        gates = gates[n:]
        twos = []
        while gates and gates[0].kind in ("cz", "cnot"):
            twos.append(gates.pop(0))
        blocks.append((singles, twos))
    return blocks


def gate_id(g):
    return (g.kind, g.angle)


def test_n2_d1_structure():
    spec = RandomCircuitSpec(LatticeSpec(1, (2,)), depth=1, seed=0)
    c = build_random_circuit(spec)
    assert len(c.gates) == 3
    assert c.gates[2].kind == "cz" and set(c.gates[2].qubits) == {0, 1}


def test_1d_layer_alternation_and_no_repeat():
    lattice = LatticeSpec(1, (5,))
    c = build_random_circuit(RandomCircuitSpec(lattice, depth=2, seed=11))
    blocks = blocks_of(c, 5)
    assert len(blocks) == 2
    assert {g.qubits for g in blocks[0][1]} == {(0, 1), (2, 3)}
    assert {g.qubits for g in blocks[1][1]} == {(1, 2), (3, 4)}
    for q in range(5):
        assert gate_id(blocks[0][0][q]) != gate_id(blocks[1][0][q])


@pytest.mark.parametrize("dimension,extents", [
    (2, (3, 1)), (2, (1, 3)), (2, (4, 3)), (1, (5,))])
def test_patterns_partition_the_pairs_in_order(dimension, extents):
    lattice = LatticeSpec(dimension, extents)
    patterns = entangling_patterns(lattice)
    pairs = nearest_neighbor_pairs(lattice)
    assert len(patterns) == 2 * dimension
    assert sorted(b for p in patterns for b in p) == sorted(pairs)
    for pattern in patterns:
        # each pattern keeps the pairs' order, and its bonds share no site
        assert pattern == [b for b in pairs if b in pattern]
        sites = [q for b in pattern for q in b]
        assert len(sites) == len(set(sites))
    if extents == (3, 1):  # one column: vertical bonds one index apart
        assert patterns == [[], [], [(0, 1)], [(1, 2)]]


def test_2d_pattern_cycle():
    lattice = LatticeSpec(2, (4, 3))
    patterns = entangling_patterns(lattice)
    assert len(patterns) == 4
    # every grid bond appears in exactly one pattern
    all_bonds = [b for p in patterns for b in p]
    assert len(all_bonds) == len(set(all_bonds)) == 17
    c = build_random_circuit(RandomCircuitSpec(lattice, depth=4, seed=5))
    blocks = blocks_of(c, 12)
    for b, pattern in enumerate(patterns):
        assert {g.qubits for g in blocks[b][1]} == set(pattern)


@pytest.mark.parametrize("seed", range(20))
def test_no_repeat_constraint_many_seeds(seed):
    lattice = LatticeSpec(1, (6,))
    c = build_random_circuit(RandomCircuitSpec(lattice, depth=8, seed=seed))
    blocks = blocks_of(c, 6)
    for prev, cur in zip(blocks, blocks[1:]):
        for q in range(6):
            assert gate_id(prev[0][q]) != gate_id(cur[0][q])


def test_gate_choices_are_one_byte_table():
    # the draws of seed 7 on 3 qubits, in the order the seed's stream gives
    choices = _gate_choices(7, 3, 5)
    assert choices.dtype == np.int8 and choices.shape == (5, 3)
    assert choices.tolist() == [[2, 1, 2], [1, 2, 1], [2, 0, 0], [0, 1, 2],
                                [2, 0, 0]]


def scalar_gate_choices(seed, n, depth):
    """The gate table drawn one scalar `rng.integers` per block and qubit."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    previous = [-1] * n
    blocks = np.empty((depth, n), dtype=np.int8)
    for block in range(depth):
        for q in range(n):
            if previous[q] < 0:
                previous[q] = int(rng.integers(3))
            else:
                options = [g for g in range(3) if g != previous[q]]
                previous[q] = options[int(rng.integers(2))]
        blocks[block] = previous
    return blocks


@pytest.mark.parametrize("n,depth", [(1, 5), (2, 50), (9, 7), (10, 20)])
def test_gate_choices_match_scalar_draws(n, depth):
    for seed in range(300):
        choices = _gate_choices(seed, n, depth)
        assert choices.dtype == np.int8
        assert np.array_equal(choices, scalar_gate_choices(seed, n, depth))


def test_determinism():
    spec = RandomCircuitSpec(LatticeSpec(1, (4,)), depth=10, seed=99)
    c1, c2 = build_random_circuit(spec), build_random_circuit(spec)
    assert c1.gates == c2.gates
    assert np.array_equal(random_state(spec).amps, random_state(spec).amps)


def test_entangler_choice():
    spec = RandomCircuitSpec(LatticeSpec(1, (3,)), depth=2, seed=0, entangler="cnot")
    c = build_random_circuit(spec)
    assert any(g.kind == "cnot" for g in c.gates)
    assert not any(g.kind == "cz" for g in c.gates)


def test_circuit_state_unit_norm():
    for seed in range(5):
        spec = RandomCircuitSpec(LatticeSpec(1, (5,)), depth=20, seed=seed)
        assert abs(np.linalg.norm(random_state(spec).amps) - 1.0) < 1e-10


def test_haar_state_normalized():
    for n in (1, 3, 6):
        assert abs(np.linalg.norm(sample_haar_state(n, 4).amps) - 1.0) < 1e-12


def test_haar_first_amplitude_symmetry():
    # Monte-Carlo oracle: by Haar symmetry E|c_0|^2 = 1/2 for one qubit
    vals = [abs(sample_haar_state(1, s).amps[0]) ** 2 for s in range(10_000)]
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_haar_entropy_matches_porter_thomas_value():
    ent = state_entropy(np.stack([sample_haar_state(5, s).amps
                                  for s in range(200)], axis=1))
    assert ent.shape == (200,)
    assert abs(np.mean(ent) - (math.log(32) - 1 + EULER_GAMMA)) < 0.05


def test_entropy_basics():
    assert state_entropy(zero_state(4).amps) == 0.0
    n = 3
    uniform = np.full(2**n, 1 / math.sqrt(2**n), dtype=complex)
    assert abs(state_entropy(uniform) - n * math.log(2)) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batched_entropy_matches_per_column_values():
    """One entropy per column, each equal to the column's own, with no
    warning from the zero probabilities of a basis state."""
    lattice = LatticeSpec(1, (4,))
    batch = np.concatenate([zero_state(4).amps[:, None],
                            random_states(lattice, 2, "cz", range(3))], axis=1)
    ent = state_entropy(batch)
    assert ent.shape == (4,)
    assert ent[0] == 0.0
    for k in range(4):
        p = np.abs(batch[:, k]) ** 2
        p = p[p > 0]
        assert ent[k] == pytest.approx(-np.sum(p * np.log(p)), rel=0,
                                       abs=1e-14)
        assert ent[k] == pytest.approx(state_entropy(batch[:, k]), rel=0,
                                       abs=1e-14)


def test_haar_entropy_reference_values():
    # frozen from the defining formula ln(2^N) - 1 + gamma
    assert haar_entropy_reference(1) == pytest.approx(0.2703629, abs=1e-6)
    assert haar_entropy_reference(5) == pytest.approx(3.0429516, abs=1e-6)
    assert haar_entropy_reference(12) == pytest.approx(7.8949818, abs=1e-6)


def test_entropy_converges_toward_haar_value():
    # shallow circuits over/undershoot the Porter-Thomas entropy; the mean
    # deviation from the Haar reference shrinks with depth
    lattice = LatticeSpec(1, (5,))
    ref = haar_entropy_reference(5)
    devs = []
    for d in (1, 4, 12):
        ent = state_entropy(random_states(lattice, d, "cz", range(60)))
        devs.append(abs(np.mean(ent) - ref))
    assert devs[1] < devs[0] + 0.05
    assert devs[2] < devs[1] + 0.05
    assert devs[2] < 0.1


def test_rejects_bad_spec():
    with pytest.raises(ValueError):
        RandomCircuitSpec(LatticeSpec(1, (3,)), depth=0)
    with pytest.raises(ValueError):
        RandomCircuitSpec(LatticeSpec(1, (3,)), entangler="iswap")


@pytest.mark.parametrize("seed", [-1, 2.5])
def test_rejects_a_bad_seed(seed):
    # refused when the spec is built, not by numpy's SeedSequence
    with pytest.raises(ValueError, match="seed must be a non-negative"):
        RandomCircuitSpec(LatticeSpec(1, (3,)), seed=seed)


@pytest.mark.parametrize("entangler", ["cz", "cnot"])
@pytest.mark.parametrize("dimension,extents,depth,seeds", [
    (1, (6,), 9, [3, 17, 4, 99]),
    (2, (3, 3), 7, [5, 6]),
    (2, (3, 1), 4, [8, 2, 1]),  # a grid with empty bond patterns
    (1, (4,), 1, [42]),
    (2, (2, 3), 12, [0]),
])
def test_random_states_equal_the_gate_by_gate_states(dimension, extents,
                                                      depth, seeds,
                                                      entangler):
    lattice = LatticeSpec(dimension, extents)
    states = random_states(lattice, depth, entangler, seeds)
    assert states.shape == (2**lattice.n_sites, len(seeds))
    for column, seed in zip(states.T, seeds):
        spec = RandomCircuitSpec(lattice, depth, entangler, seed)
        # equal value by value; only the sign of an exact zero may differ
        assert np.array_equal(column, random_state(spec).amps)


def test_random_states_rejects_bad_spec():
    with pytest.raises(ValueError):
        random_states(LatticeSpec(1, (3,)), 0, "cz", [1])
    with pytest.raises(ValueError):
        random_states(LatticeSpec(1, (3,)), 2, "iswap", [1])
