"""Dense statevector simulation: gate kernels, expectations, shot sampling.

Qubit 0 is the least significant index bit.  The gate kernels also accept a
(2^n, m) batch whose columns are independent states; `expectations` and
`sample_expectations` measure such a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Gate
from .pauli import PauliSum, PauliTerm, apply_pauli_sum

_SQ2 = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]],
                    dtype=complex)


def gate_matrix(g: Gate) -> np.ndarray:
    """2x2 matrix of a single-qubit gate."""
    if g.kind == "h":
        return _H
    if g.kind == "x":
        return _X
    if g.kind == "t":
        return _T
    if g.kind == "rx":
        return _rx(g.angle)
    if g.kind == "ry":
        return _ry(g.angle)
    if g.kind == "rz":
        return _rz(g.angle)
    raise ValueError(f"not a single-qubit gate: {g.kind}")


@dataclass
class StateVector:
    n: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes")


def zero_state(n: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


def _apply_1q(amps: np.ndarray, n: int, mat: np.ndarray, q: int) -> np.ndarray:
    """A 2x2 matrix on qubit q of a state or a (2^n, m) batch, or one matrix
    per column when `mat` is (m, 2, 2)."""
    # index bit q splits the amplitudes into the (high, bit q, low) axes
    a = amps.reshape((1 << (n - 1 - q), 2, 1 << q) + amps.shape[1:])
    a0, a1 = a[:, 0], a[:, 1]
    out = np.empty_like(a)
    out[:, 0] = mat[..., 0, 0] * a0 + mat[..., 0, 1] * a1
    out[:, 1] = mat[..., 1, 0] * a0 + mat[..., 1, 1] * a1
    return out.reshape(amps.shape)


@lru_cache(maxsize=128)
def _cz_signs(n: int, q0: int, q1: int) -> np.ndarray:
    """The +-1 diagonal of CZ on qubits q0, q1 (int8, read-only)."""
    idx = np.arange(1 << n)
    signs = (1 - 2 * ((idx >> q0) & (idx >> q1) & 1)).astype(np.int8)
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=128)
def _permutation(kind: str, n: int, q0: int, q1: int) -> np.ndarray:
    """Source index of each amplitude after a CNOT or SWAP (read-only)."""
    idx = np.arange(1 << n)
    if kind == "cnot":
        perm = idx ^ (((idx >> q0) & 1) << q1)
    else:  # swap
        flip = ((idx >> q0) ^ (idx >> q1)) & 1
        perm = idx ^ ((flip << q0) | (flip << q1))
    perm.flags.writeable = False
    return perm


def _apply_gate(amps: np.ndarray, n: int, g: Gate) -> np.ndarray:
    if g.kind == "cz":
        signs = _cz_signs(n, *g.qubits)
        return amps * (signs if amps.ndim == 1 else signs[:, None])
    if g.kind in ("cnot", "swap"):
        return amps[_permutation(g.kind, n, *g.qubits)]
    return _apply_1q(amps, n, gate_matrix(g), g.qubits[0])


def apply_circuit(psi: StateVector, c: Circuit) -> StateVector:
    """Run all gates in order; the input state is not modified."""
    if c.width > psi.n:
        raise IndexError(f"circuit width {c.width} exceeds state size {psi.n}")
    amps = psi.amps.copy()
    for g in c.gates:
        amps = _apply_gate(amps, psi.n, g)
    return StateVector(psi.n, amps)


def expectations(amps: np.ndarray, a: PauliSum) -> np.ndarray:
    """Exact <A> of each column of a (2^n, m) batch of states (or of one
    state), real parts."""
    n = len(amps).bit_length() - 1
    av = apply_pauli_sum(amps, n, a)
    return np.einsum("i...,i...->...", amps.conj(), av).real


def sample_expectations(amps: np.ndarray, a: PauliSum, shots: int,
                        seeds) -> tuple[np.ndarray, np.ndarray]:
    """Finite-shot estimates of <A> on each column of a (2^n, m) batch, and
    their standard errors; column k draws from default_rng(seeds[k]).

    Each Pauli string is a +-1-valued measurement whose outcome distribution
    is Bernoulli with p = (1 + <P>)/2, given its own shot budget; sampling
    that distribution is equivalent to measuring in the rotated basis.  A
    column draws all its strings in one call and sums them, both in term
    order.  Identity terms are exact.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p_plus = np.clip([(1.0 + expectations(amps, PauliSum((PauliTerm(
        1.0, t.operators),)))) / 2.0 for t in a if t.weight], 0.0, 1.0)
    hits = np.array([np.random.default_rng(seed).binomial(shots, p)
                     for seed, p in zip(seeds, p_plus.T)]).T
    outcomes = iter(2.0 * hits / shots - 1.0)
    mean, var = np.zeros((2, amps.shape[1]))
    for term in a:
        if term.weight == 0:
            mean += term.coefficient
            continue
        m = next(outcomes)
        mean += term.coefficient * m
        var += term.coefficient**2 * (1.0 - m * m) / shots
    return mean, np.sqrt(var)
