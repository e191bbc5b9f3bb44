"""Approximately Haar-random states from layered random circuits.

Each block is a layer of single-qubit gates, drawn per qubit from
{RX(pi/2), RY(pi/2), T} with the constraint that no qubit repeats its previous
block's gate, followed by one entangling layer.  Entangling layers cycle
through 2k fixed bond patterns for a k-dimensional lattice: A/B even/odd chain
bonds in 1D, and horizontal-even / horizontal-odd / vertical-even /
vertical-odd grid bonds in 2D (parity of the bond's column, resp. row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy >= 2 defers this import to first use; every subcommand draws
# random states, so load it with the package, not inside the first run
import numpy.random

from .circuit import Circuit
from .lattice import LatticeSpec, nearest_neighbor_pairs
from .statevector import StateVector

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


def build_random_circuit(spec: RandomCircuitSpec) -> Circuit:
    """Deterministic circuit for (lattice, depth, entangler, seed)."""
    n = spec.lattice.n_sites
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    patterns = entangling_patterns(spec.lattice)
    circuit = Circuit(n)
    previous = [-1] * n
    for block in range(spec.depth):
        for q in range(n):
            if previous[q] < 0:
                choice = int(rng.integers(3))
            else:
                # uniform over the two gates that differ from last block's
                options = [g for g in range(3) if g != previous[q]]
                choice = options[int(rng.integers(2))]
            kind, angle = GATE_SET[choice]
            circuit.append(kind, q, angle=angle)
            previous[q] = choice
        for i, j in patterns[block % len(patterns)]:
            circuit.append(spec.entangler, i, j)
    return circuit


def random_state(spec: RandomCircuitSpec) -> StateVector:
    """|0...0> pushed through the random circuit."""
    from .statevector import apply_circuit, zero_state

    return apply_circuit(zero_state(spec.lattice.n_sites), build_random_circuit(spec))


def sample_haar_state(n: int, seed: int) -> StateVector:
    """Exactly Haar-uniform state: normalized i.i.d. complex Gaussians."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, z / np.linalg.norm(z))


def state_entropy(psi: StateVector) -> float:
    """Shannon entropy -sum p_k ln p_k of the basis distribution p_k = |c_k|^2."""
    p = psi.probabilities()
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def haar_entropy_reference(n: int) -> float:
    """Expected basis entropy of a Haar-random n-qubit state (Porter-Thomas)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * math.log(2.0) - 1.0 + EULER_GAMMA
