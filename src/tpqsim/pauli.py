"""Symbolic Pauli-string operators and their dense Hermitian realizations.

Convention used throughout the package: qubit 0 is the least significant bit
of the computational-basis index, so basis state |b_{n-1} ... b_1 b_0> sits at
array index sum_q b_q 2^q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionOverflow

MAX_DENSE_QUBITS = 14

_VALID_OPS = frozenset("XYZ")


@dataclass(frozen=True)
class PauliTerm:
    """A real coefficient times a Pauli string; empty string is the identity."""

    coefficient: float
    operators: tuple[tuple[int, str], ...]

    def __post_init__(self):
        ops = tuple(sorted((int(q), o.upper()) for q, o in dict(self.operators).items()))
        for q, o in ops:
            if q < 0:
                raise ValueError(f"negative qubit index {q}")
            if o not in _VALID_OPS:
                raise ValueError(f"unknown Pauli letter {o!r}")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "coefficient", float(self.coefficient))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.operators)

    @property
    def weight(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class PauliSum:
    """Sum of PauliTerms; Hermitian by construction (real coefficients)."""

    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    @property
    def max_qubit(self) -> int:
        return max((q for t in self.terms for q in t.support), default=-1)


def pauli_string_action(term: PauliTerm, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Permutation/phase form of a Pauli string on n qubits.

    A Pauli string maps |b> to phase(b) |b ^ mask>.  Returns (target_index,
    phase) arrays of length 2^n such that (P psi)[target_index] = phase * psi.
    The arrays are cached per (string, n) and read-only.
    """
    return _string_action(term.operators, n)


@lru_cache(maxsize=1024)
def _string_action(operators: tuple[tuple[int, str], ...],
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    dim = 1 << n
    idx = np.arange(dim)
    flip_mask = 0
    sign_mask = 0
    n_y = 0
    for q, o in operators:
        if q >= n:
            raise IndexError(f"qubit {q} out of range for n={n}")
        bit = 1 << q
        if o == "X":
            flip_mask |= bit
        elif o == "Y":
            flip_mask |= bit
            sign_mask |= bit
            n_y += 1
        else:
            sign_mask |= bit
    # parity of bits selected by sign_mask gives the (-1) factors
    par = idx & sign_mask
    parity = np.zeros(dim, dtype=np.int64)
    while sign_mask:
        parity ^= par & 1
        par >>= 1
        sign_mask >>= 1
    target = idx ^ flip_mask
    phase = ((1j**n_y) * np.where(parity, -1.0, 1.0)).astype(complex)
    target.flags.writeable = False
    phase.flags.writeable = False
    return target, phase


def apply_pauli_sum(amps: np.ndarray, n: int, p: PauliSum) -> np.ndarray:
    """A amps for one state or a (2^n, m) batch of column states."""
    out = np.zeros(amps.shape, dtype=complex)
    for term in p:
        target, phase = pauli_string_action(term, n)
        if amps.ndim == 2:
            phase = phase[:, None]
        # target flips a fixed bit mask, so it is its own inverse and the
        # sum can gather, (P amps)[i] = (phase * amps)[target[i]]
        out += (term.coefficient * phase * amps)[target]
    return out


@dataclass
class DenseHermitian:
    """Dense Hermitian matrix with a lazily cached spectral decomposition.

    A matrix whose imaginary part is exactly zero is stored as float64, so
    its eigenvectors are real too.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if np.iscomplexobj(m) and not m.imag.any():
            m = m.real
        m = np.ascontiguousarray(m, dtype=np.result_type(m, float))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if np.max(np.abs(m - m.conj().T)) >= 1e-12:
            raise ValueError("matrix is not Hermitian to 1e-12")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return int(self.dim).bit_length() - 1

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues ascending, orthonormal eigenvector columns).

        numpy's eigh is LAPACK's divide-and-conquer ?syevd/?heevd on the
        lower triangle, real for a float64 matrix.
        """
        return np.linalg.eigh(self.matrix)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.eig[1]


def to_dense(p: PauliSum, n: int, max_qubits: int = MAX_DENSE_QUBITS) -> DenseHermitian:
    """Expand a PauliSum to its 2^n x 2^n matrix.

    Each term is a permutation-with-phase matrix, accumulated column-wise, so
    the cost is O(|terms| 2^n) plus the dense allocation.
    """
    if n > max_qubits:
        raise DimensionOverflow(f"n={n} exceeds dense limit {max_qubits}")
    if p.max_qubit >= n:
        raise IndexError(f"term touches qubit {p.max_qubit} but n={n}")
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for term in p:
        target, phase = pauli_string_action(term, n)
        m[target, cols] += term.coefficient * phase
    return DenseHermitian(m)
