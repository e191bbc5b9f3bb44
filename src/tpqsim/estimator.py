"""Thermal-average estimation from ensembles of TPQ states.

A run draws R independent random-circuit states, filters each with the chosen
backend, measures the observable per beta, and aggregates mean and
stddev/sqrt(R).  The exact canonical ensemble value Tr[e^{-beta H} A] /
Tr[e^{-beta H}] from the dense eigenbasis is attached as a reference.

Reproducibility: realization r uses the circuit seed drawn from
numpy SeedSequence(entropy=base_seed, spawn_key=(r,)); shot noise (when
enabled) uses spawn_key=(r, 1 + beta_index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .lattice import LatticeSpec, build_heisenberg
from .nonunitary import DilationSpec, ThermalOperator, apply_dilated, apply_exact
from .fable import apply_fable, fable_encode
from .pauli import DenseHermitian, PauliSum, apply_pauli_sum, to_dense
from .qite import QiteSpec, qite_evolve
from .random_state import RandomCircuitSpec, random_state
from .statevector import expectation, sample_expectation

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


def realization_seed(base_seed: int, r: int) -> int:
    return int(np.random.SeedSequence(entropy=base_seed,
                                      spawn_key=(r,)).generate_state(1)[0])


def ensemble_expectation(h: DenseHermitian, a: PauliSum | None,
                         beta: float | np.ndarray) -> float | np.ndarray:
    """Tr[e^{-beta H} A] / Tr[e^{-beta H}] with spectrum-shifted weights.

    `a=None` means A = H.  `beta` is a scalar (float result) or a 1-D
    sequence (one value per beta); A's eigenbasis diagonal <v_k|A|v_k> is
    computed once per call.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta < 0):
        raise ValueError("beta must be >= 0")
    vals, vecs = h.eig
    if a is None:
        diag = vals
    else:
        av = apply_pauli_sum(vecs, h.n_qubits, a)
        diag = np.einsum("ij,ij->j", vecs.conj(), av).real
    w = np.exp(-np.multiply.outer(beta, vals - vals[0]))
    ref = w @ diag / w.sum(axis=-1)
    return float(ref) if ref.ndim == 0 else ref


def make_backend(spec: BackendSpec, beta: float, dense_h: DenseHermitian,
                 h_pauli: PauliSum, lattice: LatticeSpec | None = None):
    """Callable psi -> filtered normalized psi for one (backend, beta)."""
    if spec.kind == "qite":
        qspec = QiteSpec(beta, n_steps=spec.n_steps, domain=spec.domain)
        return lambda psi: qite_evolve(qspec, h_pauli, psi, lattice)[0]
    op = ThermalOperator(beta, dense_h)
    if spec.kind == "exact":
        return lambda psi: apply_exact(op, psi)
    if spec.kind == "dilated":
        dspec = DilationSpec(spec.epsilon, op)
        return lambda psi: apply_dilated(dspec, psi)[0]
    encoding = fable_encode(op)
    return lambda psi: apply_fable(encoding, psi)[0]


def run_ensemble(spec: TpqRunSpec) -> TpqEstimate:
    """The full pipeline: R random states, filtered and measured per beta."""
    lattice = spec.lattice
    n = lattice.n_sites
    h_pauli = build_heisenberg(lattice)
    dense_h = to_dense(h_pauli, n)
    observable = spec.observable if spec.observable is not None else h_pauli

    backends = [make_backend(spec.backend, beta, dense_h, h_pauli, lattice)
                for beta in spec.betas]

    values = np.empty((len(spec.betas), spec.realizations))
    shot_var = np.zeros(len(spec.betas))
    for r in range(spec.realizations):
        circ_spec = RandomCircuitSpec(lattice, depth=spec.depth,
                                      entangler=spec.entangler,
                                      seed=realization_seed(spec.base_seed, r))
        psi_r = random_state(circ_spec)
        for bi, backend in enumerate(backends):
            filtered = backend(psi_r)
            if spec.shots > 0:
                shot_seed = int(np.random.SeedSequence(
                    entropy=spec.base_seed,
                    spawn_key=(r, 1 + bi)).generate_state(1)[0])
                mean, err = sample_expectation(filtered, observable,
                                               spec.shots, shot_seed)
                values[bi, r] = mean
                shot_var[bi] += err**2
            else:
                values[bi, r] = expectation(filtered, observable)

    ref = ensemble_expectation(dense_h, spec.observable, spec.betas)
    shot_stderr = None
    if spec.shots > 0:
        shot_stderr = np.sqrt(shot_var) / spec.realizations
    return TpqEstimate(spec.betas, values, ensemble_ref=ref,
                       shot_stderr=shot_stderr)


def squared_error_scan(sizes, depth: int, beta: float, realizations: int,
                       base_seed: int = 0, Jx: float = 0.5, Jy: float = 1.25,
                       Jz: float = 2.0, hx: float = 1.0) -> dict[int, float]:
    """Mean squared single-TPQ energy deviation per 1D system size.

    D(H)^2 = mean over realizations of (<H>_TPQ - <H>_ens)^2 with the exact
    backend, one value per N.
    """
    out = {}
    for n in sizes:
        lattice = LatticeSpec(1, (n,), Jx=Jx, Jy=Jy, Jz=Jz, hx=hx)
        est = run_ensemble(TpqRunSpec(lattice, (beta,),
                                      realizations=realizations, depth=depth,
                                      base_seed=base_seed))
        deviations = est.values[0] - est.ensemble_ref[0]
        out[n] = float(np.mean(deviations**2))
    return out
