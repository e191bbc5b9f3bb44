"""Dense statevector simulation: one gate kernel, expectations, shot sampling.

Qubit 0 is the least significant index bit.  A single-qubit gate is one
product of its 2x2 matrix with an (m, 2^n) batch of row states viewed as
(m, 2, 2^(n-1)) on its lowest bit (`_apply_low`); the result holds the
acted-on qubit in its highest bit, so the bit order rotates by one, and n
gates taken in qubit order bring it back.  `apply_circuit` tracks that
rotation and moves a target to the lowest bit by one transposed copy only
when it is not already there; CZ, CNOT and SWAP are one cached diagonal or
permutation of the rotated bits.  `expectations` and `sample_expectations`
measure a (2^n, m) batch whose columns are independent states.
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
    """2x2 matrix of a single-qubit gate (cached, read-only)."""
    return _matrix(g.kind, g.angle)


@lru_cache(maxsize=1024)
def _matrix(kind: str, angle: float | None) -> np.ndarray:
    if kind in ("rx", "ry", "rz"):
        mat = {"rx": _rx, "ry": _ry, "rz": _rz}[kind](angle)
    elif kind in ("h", "x", "t"):
        mat = {"h": _H, "x": _X, "t": _T}[kind].copy()
    else:
        raise ValueError(f"not a single-qubit gate: {kind}")
    mat.flags.writeable = False
    return mat


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


def _apply_low(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """A 2x2 matrix, or one per row when `mat` is (m, 2, 2), on the lowest
    bit of each row of an (m, 2^n) batch, as one product: the acted-on
    qubit comes out in the highest bit and every other bit moves down one."""
    m = len(rows)
    return np.matmul(mat, rows.reshape(m, -1, 2).transpose(0, 2, 1)).reshape(
        rows.shape)


def _rotate(rows: np.ndarray, p: int) -> np.ndarray:
    """The (m, 2^n) rows with bit p moved to bit 0 and each bit b to
    (b - p) mod n, by one transposed copy (none when p is 0)."""
    if p == 0:
        return rows
    m = len(rows)
    return rows.reshape(m, -1, 1 << p).transpose(0, 2, 1).reshape(m, -1)


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


def _run(rows: np.ndarray, n: int, gates) -> np.ndarray:
    """The gates in order on each row of an (m, 2^n) batch.

    Qubit q sits at bit (q - r) mod n of the working rows: each single-qubit
    gate first rotates its target to bit 0 unless it is there, and then
    advances r by one; the two-qubit gates act on their qubits' current
    bits.  One rotation at the end restores the order.
    """
    r = 0
    for g in gates:
        bits = [(q - r) % n for q in g.qubits]
        if g.kind == "cz":
            rows = rows * _cz_signs(n, *bits)
        elif g.kind in ("cnot", "swap"):
            rows = rows[:, _permutation(g.kind, n, *bits)]
        else:
            rows = _apply_low(_rotate(rows, bits[0]), gate_matrix(g))
            r += bits[0] + 1
    return _rotate(rows, -r % n) if n else rows


def _apply_gate(amps: np.ndarray, n: int, g: Gate) -> np.ndarray:
    """One gate on a state or on each column of a (2^n, m) batch."""
    return _run(amps.reshape(1 << n, -1).T, n, [g]).T.reshape(amps.shape)


def apply_circuit(psi: StateVector, c: Circuit) -> StateVector:
    """Run all gates in order; the input state is not modified."""
    if c.width > psi.n:
        raise IndexError(f"circuit width {c.width} exceeds state size {psi.n}")
    return StateVector(psi.n, _run(psi.amps.copy()[None], psi.n, c.gates)[0])


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
