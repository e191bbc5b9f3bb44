"""Thermal-average estimation from ensembles of TPQ states.

A run prepares its R independent random-circuit states as one (2^n, R) batch
(`random_states`), once `realization_seeds` has checked that it fits physical
memory.  The backend filters it for each beta and measures each filtered
batch in one call, `expectations` or, with shots, `sample_expectations`; mean
and stddev/sqrt(R) are taken over the states.  The exact, dilated and FABLE
filters are all diagonal in H's eigenbasis, each one (n_beta, 2^n) array of
weights on H's spectrum built once per run (`_in_eigenbasis`; a run's FABLE
encoding is exact, so its branch is (Q/s) psi / 2^N): they move the batch
into that basis once per run, through H's symmetry blocks (parity and
qubit-order reversal), and only rescale its rows per beta.  The energy is then read off in that basis
for all betas at once, and its reference from the eigenvalues alone, so an
exact energy run never assembles the 2^n x 2^n eigenvectors; nor does the
reference of an observable diagonal in the blocks' basis, such as
`magnetization_x`.  Any other observable, or a finite shot budget, takes one
back-transform per beta.  No FABLE circuit is synthesized here.  QITE fits
state-dependent rotations: a sweep evolves its states once, tiled once per
beta into one (2^n, R n_beta) batch in which each column has its own beta and
its own fits; when that batch's evolution exceeds physical memory, the betas
are split into the fewest groups that fit (`qite.beta_groups`).  The exact
canonical ensemble value Tr[e^{-beta H} A] / Tr[e^{-beta H}] from the dense
eigenbasis is attached as a reference.

Reproducibility: realization r uses the circuit seed drawn from
numpy SeedSequence(entropy=base_seed, spawn_key=(r,)); its shot noise (when
enabled) at each beta uses spawn_key=(r, 1 + beta_index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .lattice import LatticeSpec, build_heisenberg
from .nonunitary import (
    NORM_FLOOR,
    P0_FLOOR,
    filter_energies,
    filter_states,
    scaled_weights,
    thermal_weights,
)
from .pauli import DenseHermitian, PauliSum, _check_budget, to_dense
from .qite import QiteSpec, beta_groups, qite_evolve
from .random_state import random_states
from .statevector import expectations, sample_expectations

BACKEND_KINDS = ("exact", "dilated", "fable", "qite")


@dataclass(frozen=True)
class BackendSpec:
    kind: str = "exact"
    epsilon: float = 1e-3       # dilated
    n_steps: int = 10           # qite
    domain: int | None = None   # qite

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if not self.epsilon > 0:
            raise ConfigError("backend epsilon must be > 0")
        if self.n_steps < 1:
            raise ConfigError("backend n_steps must be >= 1")
        if self.domain is not None and (not isinstance(self.domain, int)
                                        or self.domain < 1):
            raise ConfigError("backend domain must be an integer >= 1")


@dataclass(frozen=True)
class TpqRunSpec:
    lattice: LatticeSpec
    betas: tuple[float, ...]
    observable: PauliSum | None = None  # None: the Hamiltonian itself
    realizations: int = 10
    depth: int = 20
    entangler: str = "cz"
    backend: BackendSpec = BackendSpec()
    base_seed: int = 0
    shots: int = 0

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if not all(math.isfinite(b) and b >= 0 for b in self.betas):
            raise ConfigError("beta values must be finite and >= 0")
        if (self.backend.domain or 0) > self.lattice.n_sites:
            raise ConfigError("backend domain exceeds the number of sites")


@dataclass
class TpqEstimate:
    betas: tuple[float, ...]
    values: np.ndarray          # (n_betas, R) per-realization observables
    ensemble_ref: np.ndarray
    shot_stderr: np.ndarray | None = None
    mean: np.ndarray = field(init=False)
    uncertainty: np.ndarray = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mean = self.values.mean(axis=1)
        r = self.values.shape[1]
        if r > 1:
            self.uncertainty = self.values.std(axis=1, ddof=0) / np.sqrt(r)
        else:
            self.uncertainty = np.zeros(len(self.betas))

    @property
    def squared_error(self) -> np.ndarray:
        return (self.mean - self.ensemble_ref) ** 2


def realization_seed(base_seed: int, *key: int) -> int:
    """The seed spawned from `base_seed` at `key`: (r,) for realization r's
    circuit, (r, 1 + beta_index) for its shot noise."""
    return int(np.random.SeedSequence(entropy=base_seed,
                                      spawn_key=key).generate_state(1)[0])


def realization_seeds(base_seed: int, count: int, n_sites: int) -> list[int]:
    """The circuit seeds of realizations 0..count-1, drawn once a batch of
    `count` random states on `n_sites` qubits is checked to fit physical
    memory; raises DimensionOverflow before drawing any otherwise."""
    _check_budget(16 * count * 2**n_sites, f"a batch of {count} random states")
    return [realization_seed(base_seed, r) for r in range(count)]


def ensemble_expectation(h: DenseHermitian, a: PauliSum | None,
                         beta: float | np.ndarray) -> float | np.ndarray:
    """Tr[e^{-beta H} A] / Tr[e^{-beta H}] with spectrum-shifted weights.

    `a=None` means A = H, which needs only the eigenvalues.  `beta` is a
    scalar (float result) or a 1-D sequence (one value per beta); any other
    A's eigenbasis diagonal <v_k|A|v_k> is computed once per call: read off
    the blocks when A is diagonal in their basis (`magnetization_x` when H
    is rotated), and otherwise from the full eigenvectors, whose bytes
    `apply_pauli_sum` checks first.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta < 0):
        raise ValueError("beta must be >= 0")
    vals = h.eigenvalues
    if a is None:
        diag = vals
    elif (diag := h.diagonal_in_eigenbasis(a)) is None:
        diag = expectations(h.eigenvectors, a)
    w = np.exp(-np.multiply.outer(beta, vals - vals[0]))
    ref = w @ diag / w.sum(axis=-1)
    return float(ref) if ref.ndim == 0 else ref


def _in_eigenbasis(spec: BackendSpec, betas, states: np.ndarray,
                   dense_h: DenseHermitian):
    """The filter's eigenbasis weights, one row per beta, the (2^n, R)
    coefficients C = V^dagger states, and the squared norm below which a
    filtered state is lost, for every backend but QITE."""
    weights = thermal_weights(dense_h, betas)
    if spec.kind == "dilated":
        weights = np.sin(spec.epsilon * scaled_weights(dense_h, weights))
    elif spec.kind == "fable":  # the post-selected branch is (Q/s) psi / 2^N
        weights = scaled_weights(dense_h, weights) / dense_h.dim
    floor = NORM_FLOOR if spec.kind == "exact" else P0_FLOOR
    return weights, dense_h.to_eigenbasis(states), floor


def filtered_batches(spec: BackendSpec, betas, states: np.ndarray,
                     dense_h: DenseHermitian, h_pauli: PauliSum,
                     lattice: LatticeSpec | None = None):
    """Yield the normalized filtered (2^n, R) batch of `states` per beta."""
    if spec.kind == "qite":
        # one evolution of the states tiled once per beta, in as few groups
        # of betas as physical memory allows
        sweep = QiteSpec(betas, n_steps=spec.n_steps, domain=spec.domain)
        r = states.shape[1]
        groups = beta_groups(sweep, h_pauli, dense_h.n_qubits, r)
        for chunk in np.array_split(sweep.beta, groups):
            evolved = qite_evolve(replace(sweep, beta=np.repeat(chunk, r)),
                                  h_pauli, np.tile(states, len(chunk)),
                                  lattice)[0]
            yield from np.split(evolved, len(chunk), axis=1)
        return
    weights, coeffs, floor = _in_eigenbasis(spec, betas, states, dense_h)
    for w in weights:
        yield filter_states(dense_h, w, coeffs, floor)[0]


def measure_filtered(spec: TpqRunSpec, states: np.ndarray,
                     dense_h: DenseHermitian,
                     h_pauli: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """The observable on every filtered (beta, state) pair of the (2^n, R)
    batch `states`, as a (n_betas, R) array, and each beta's summed shot
    variance (zeros without shots)."""
    shot_var = np.zeros(len(spec.betas))
    if (spec.observable is None and spec.shots == 0
            and spec.backend.kind != "qite"):
        return filter_energies(dense_h, *_in_eigenbasis(
            spec.backend, spec.betas, states, dense_h)), shot_var
    observable = spec.observable if spec.observable is not None else h_pauli
    values = np.empty((len(spec.betas), states.shape[1]))
    batches = filtered_batches(spec.backend, spec.betas, states, dense_h,
                               h_pauli, spec.lattice)
    for bi, batch in enumerate(batches):
        if spec.shots == 0:
            values[bi] = expectations(batch, observable)
            continue
        values[bi], err = sample_expectations(
            batch, observable, spec.shots,
            [realization_seed(spec.base_seed, r, 1 + bi)
             for r in range(batch.shape[1])])
        shot_var[bi] = np.sum(err**2)
    return values, shot_var


def run_ensemble(spec: TpqRunSpec) -> TpqEstimate:
    """The full pipeline: R random states, filtered and measured per beta."""
    lattice = spec.lattice
    seeds = realization_seeds(spec.base_seed, spec.realizations,
                              lattice.n_sites)
    h_pauli = build_heisenberg(lattice)
    dense_h = to_dense(h_pauli, lattice.n_sites)
    states = random_states(lattice, spec.depth, spec.entangler, seeds)
    values, shot_var = measure_filtered(spec, states, dense_h, h_pauli)
    ref = ensemble_expectation(dense_h, spec.observable, spec.betas)
    shot_stderr = None
    if spec.shots > 0:
        shot_stderr = np.sqrt(shot_var) / spec.realizations
    return TpqEstimate(spec.betas, values, ensemble_ref=ref,
                       shot_stderr=shot_stderr)


def squared_error_scan(chains, depth: int, beta: float, realizations: int,
                       base_seed: int = 0) -> dict[int, float]:
    """Mean squared single-TPQ energy deviation per lattice, keyed by size.

    D(H)^2 = mean over realizations of (<H>_TPQ - <H>_ens)^2 with the exact
    backend, one value per lattice of `chains`.
    """
    out = {}
    for lattice in chains:
        est = run_ensemble(TpqRunSpec(lattice, (beta,),
                                      realizations=realizations, depth=depth,
                                      base_seed=base_seed))
        deviations = est.values[0] - est.ensemble_ref[0]
        out[lattice.n_sites] = float(np.mean(deviations**2))
    return out
