"""Approximately Haar-random states from layered random circuits.

Each block is a layer of single-qubit gates, drawn per qubit from
{RX(pi/2), RY(pi/2), T} with the constraint that no qubit repeats its previous
block's gate, followed by one entangling layer.  Entangling layers cycle
through 2k fixed bond patterns for a k-dimensional lattice: A/B even/odd chain
bonds in 1D, and horizontal-even / horizontal-odd / vertical-even /
vertical-odd grid bonds in 2D (parity of the bond's column, resp. row).

`random_state` replays one seed's circuit gate by gate; `random_states`
prepares the states of many seeds as one (2^n, R) batch, with the same gate
draws and equal amplitudes, applying each entangling layer as one +-1 diagonal
or one permutation of the whole batch.  `state_entropy` takes such a batch
too, and returns one basis entropy per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy >= 2 defers this import to first use; every subcommand draws
# random states, so load it with the package, not inside the first run
import numpy.random

from .circuit import Circuit, Gate
from .lattice import LatticeSpec, nearest_neighbor_pairs
from .pauli import _check_budget
from .statevector import (
    StateVector,
    _apply_1q,
    _cz_signs,
    _permutation,
    apply_circuit,
    gate_matrix,
    zero_state,
)

EULER_GAMMA = 0.5772156649015329

# (kind, angle) choices for the single-qubit layer
GATE_SET = (("rx", math.pi / 2), ("ry", math.pi / 2), ("t", None))


@dataclass(frozen=True)
class RandomCircuitSpec:
    lattice: LatticeSpec
    depth: int = 20
    entangler: str = "cz"
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.entangler not in ("cz", "cnot"):
            raise ValueError("entangler must be 'cz' or 'cnot'")


def entangling_patterns(lattice: LatticeSpec) -> list[list[tuple[int, int]]]:
    """The 2k bond patterns cycled through by the entangling layers.

    `nearest_neighbor_pairs` split by bond direction (a chain's bonds, or a
    grid's horizontal then vertical ones) and by the parity of the first
    site's coordinate along it, keeping its order.
    """
    patterns = [[] for _ in range(2 * lattice.dimension)]
    for i, j in nearest_neighbor_pairs(lattice):
        ci, cj = lattice.site_coords(i), lattice.site_coords(j)
        # bonds along the last coordinate (a grid's horizontal ones) take
        # the first two patterns
        axis = next(a for a in range(lattice.dimension) if ci[a] != cj[a])
        direction = lattice.dimension - 1 - axis
        patterns[2 * direction + ci[axis] % 2].append((i, j))
    return patterns


def _gate_choices(seed: int, n: int, depth: int) -> np.ndarray:
    """Each block's GATE_SET index per qubit, drawn from the seed's stream,
    as one (depth, n) int8 array."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    previous = [-1] * n
    blocks = np.empty((depth, n), dtype=np.int8)
    for block in range(depth):
        for q in range(n):
            if previous[q] < 0:
                previous[q] = int(rng.integers(3))
            else:
                # uniform over the two gates that differ from last block's
                options = [g for g in range(3) if g != previous[q]]
                previous[q] = options[int(rng.integers(2))]
        blocks[block] = previous
    return blocks


def build_random_circuit(spec: RandomCircuitSpec) -> Circuit:
    """Deterministic circuit for (lattice, depth, entangler, seed)."""
    n = spec.lattice.n_sites
    patterns = entangling_patterns(spec.lattice)
    circuit = Circuit(n)
    for block, choices in enumerate(_gate_choices(spec.seed, n, spec.depth)):
        for q, choice in enumerate(choices):
            kind, angle = GATE_SET[choice]
            circuit.append(kind, q, angle=angle)
        for i, j in patterns[block % len(patterns)]:
            circuit.append(spec.entangler, i, j)
    return circuit


def random_state(spec: RandomCircuitSpec) -> StateVector:
    """|0...0> pushed through the random circuit, gate by gate."""
    return apply_circuit(zero_state(spec.lattice.n_sites), build_random_circuit(spec))


def _entangling_layer(n: int, entangler: str, pattern: list[tuple[int, int]]):
    """A pattern's gates as one map of a (2^n, R) batch: the product of their
    +-1 diagonals (cz), or the composition of their permutations (cnot)."""
    if entangler == "cz":
        signs = np.ones(1 << n, dtype=np.int8)
        for i, j in pattern:
            signs *= _cz_signs(n, i, j)
        return lambda amps: amps * signs[:, None]
    source = np.arange(1 << n)
    for i, j in pattern:
        source = source[_permutation("cnot", n, i, j)]
    return lambda amps: amps[source]


def random_states(lattice: LatticeSpec, depth: int, entangler: str,
                  seeds) -> np.ndarray:
    """`random_state` of each seed, as the columns of one (2^n, R) batch.

    The gates are drawn as `build_random_circuit` draws them, but no circuit
    is built: each single-qubit layer applies one 2x2 matrix per column and
    qubit, and each entangling layer is one precomputed map of the batch.
    The columns equal the gate-by-gate states.  Raises DimensionOverflow,
    before drawing, when the table of gate choices, one byte per seed, block
    and qubit, exceeds physical memory.
    """
    RandomCircuitSpec(lattice, depth, entangler)  # checks depth and entangler
    n = lattice.n_sites
    _check_budget(len(seeds) * depth * n,
                  f"the gate choices of {len(seeds)} random circuits")
    choices = np.empty((len(seeds), depth, n), dtype=np.int8)
    for r, seed in enumerate(seeds):
        choices[r] = _gate_choices(seed, n, depth)
    mats = np.array([gate_matrix(Gate(kind, (0,), angle))
                     for kind, angle in GATE_SET])
    layers = [_entangling_layer(n, entangler, pattern)
              for pattern in entangling_patterns(lattice)]
    amps = np.zeros((1 << n, len(choices)), dtype=complex)
    amps[0] = 1.0
    for block in range(depth):
        for q in range(n):
            amps = _apply_1q(amps, n, mats[choices[:, block, q]], q)
        amps = layers[block % len(layers)](amps)
    return amps


def sample_haar_state(n: int, seed: int) -> StateVector:
    """Exactly Haar-uniform state: normalized i.i.d. complex Gaussians."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, z / np.linalg.norm(z))


def state_entropy(amps: np.ndarray) -> float | np.ndarray:
    """Shannon entropy -sum p_k ln p_k of the basis distribution p_k = |c_k|^2
    of a state's amplitudes, or of each column of a (2^n, m) batch."""
    p = np.abs(amps) ** 2
    log_p = np.log(p, out=np.zeros_like(p), where=p > 0.0)
    return -np.sum(p * log_p, axis=0)


def haar_entropy_reference(n: int) -> float:
    """Expected basis entropy of a Haar-random n-qubit state (Porter-Thomas)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * math.log(2.0) - 1.0 + EULER_GAMMA
