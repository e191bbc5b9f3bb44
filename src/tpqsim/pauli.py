"""Symbolic Pauli-string operators and their dense Hermitian realizations.

Convention used throughout the package: qubit 0 is the least significant bit
of the computational-basis index, so basis state |b_{n-1} ... b_1 b_0> sits at
array index sum_q b_q 2^q.

A Pauli string is three integers, its flip mask, sign mask and Y count:
(c P a)[j] = c (-i)^{#Y} (-1)^{popcount(j & sign)} a[j ^ flip].  A sum's
terms are grouped by flip mask, and each group acts as one diagonal times one
gather, the diagonal built only while its group is applied; no table per
string outlives a call.

A dense Hamiltonian is held as its symmetry blocks: a sum whose terms all
commute with prod_i X_i (every XYZ + hx model) is built in the basis rotated
by H^{(x)n}, as two blocks of size 2^(n-1) that are diagonalized separately.
States enter and leave the eigenbasis through one Walsh-Hadamard transform
and one product per block; the full 2^n x 2^n matrices are assembled only
where they are read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionOverflow

# block-sized arrays that diagonalizing one block adds to the blocks and the
# eigenvectors already held: eigh's working copy and the ?syevd/?heevd
# workspace (2N^2 reals for an N x N block); the whole blocked path peaked
# at 7.4 blocks of a 12-site chain, against the 2 + 2 + 3 counted
_EIGH_WORK_BLOCKS = 3

# W P W for W = H^{(x)n}; a Y also flips the sign (W Y W = -Y)
_HADAMARD_IMAGE = {"X": "Z", "Y": "Y", "Z": "X"}

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


def _masks(operators: tuple[tuple[int, str], ...],
           n: int) -> tuple[int, int, int]:
    """(flip, sign, #Y) of a Pauli string on n qubits: the string maps
    amplitudes as (P a)[j] = (-i)^{#Y} (-1)^{popcount(j & sign)} a[j ^ flip],
    where X and Y flip their qubit's bit and Y and Z give its sign."""
    flip = sign = n_y = 0
    for q, o in operators:
        if q >= n:
            raise IndexError(f"qubit {q} out of range for n={n}")
        flip |= (o != "Z") << q
        sign |= (o != "X") << q
        n_y += o == "Y"
    return flip, sign, n_y


def _flip_groups(p: PauliSum, n: int) -> dict[int, list[tuple[float, int, int]]]:
    """p's terms keyed by flip mask, each as (coefficient, sign, #Y), in
    order of appearance: a group acts as one diagonal times one gather."""
    groups: dict[int, list[tuple[float, int, int]]] = {}
    for term in p:
        flip, sign, n_y = _masks(term.operators, n)
        groups.setdefault(flip, []).append((term.coefficient, sign, n_y))
    return groups


def _diagonal(group: list[tuple[float, int, int]], rows: np.ndarray) -> np.ndarray:
    """d[k] = sum over the group of c (-i)^{#Y} (-1)^{popcount(rows[k] & sign)},
    summed in group order; real when every #Y is even."""
    d = np.zeros(len(rows), complex if any(y % 2 for *_, y in group) else float)
    for coefficient, sign, n_y in group:
        phase = coefficient * (1, -1j, -1, 1j)[n_y % 4]
        d += np.where(np.bitwise_count(rows & sign) & 1, -phase, phase)
    return d


def apply_pauli_sum(amps: np.ndarray, n: int, p: PauliSum) -> np.ndarray:
    """A amps for one state or a (2^n, m) batch of column states.

    One gather per flip mask, A a = sum_groups d * a[idx ^ flip], with only
    the group at hand's diagonal d alive.  Raises IndexError when a term
    touches a qubit >= n, and DimensionOverflow, before allocating, when the
    complex output, one gather and one product exceed physical memory.
    """
    _check_budget((32 + amps.itemsize) * amps.size,
                  f"applying a Pauli sum to {amps.shape} amplitudes")
    idx = np.arange(1 << n)
    out = np.zeros(amps.shape, dtype=complex)
    for flip, group in _flip_groups(p, n).items():
        d = _diagonal(group, idx)
        out += (d[:, None] if amps.ndim == 2 else d) * amps[idx ^ flip]
    return out


def walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """H^{(x)n} a, in place along axis 0 of a (2^n, ...) array or view;
    returns `a`.

    Each stage maps the pairs (x, y) to (x + y, x - y) with no temporary, as
    x += y and then y = x - 2y; one scaling by 2^{-n/2} at the end makes the
    transform orthogonal (and its own inverse).
    """
    dim = len(a)
    h = 1
    while h < dim:
        pairs = a.reshape((dim // (2 * h), 2, h) + a.shape[1:], copy=False)
        x, y = pairs[:, 0], pairs[:, 1]
        x += y
        y *= -2.0
        y += x
        h *= 2
    a *= dim**-0.5
    return a


def _check_budget(nbytes: int, what: str) -> None:
    """Raise DimensionOverflow when `nbytes` exceed physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise DimensionOverflow(f"{what} needs {nbytes} bytes; the machine "
                                f"has {memory}")


def _sector_indices(n: int, count: int) -> list[np.ndarray]:
    """The basis indices of each of `count` sectors, ascending.

    One sector holds every index.  Two are the even- and odd-popcount
    indices: the j-th of each is 2j plus the low bit that fixes its parity,
    so an index's position in its sector is index >> 1.
    """
    if count == 1:
        return [np.arange(1 << n)]
    j = np.arange(1 << (n - 1))
    even = 2 * j + (np.bitwise_count(j) & 1)
    return [even, even ^ 1]


def _product(u: np.ndarray, amps: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """u amps, or u^dagger amps when `adjoint`, for a (k, m) complex batch.

    A real u is never cast to complex: it multiplies the real and imaginary
    parts of amps, interleaved as column pairs, in one real product.
    """
    if np.iscomplexobj(u):
        return u.conj().T @ amps if adjoint else u @ amps
    parts = np.ascontiguousarray(amps, dtype=complex).view(float)
    out = (u.T if adjoint else u) @ parts.reshape(len(amps), -1)
    return out.view(complex).reshape(amps.shape)


@dataclass
class DenseHermitian:
    """A dense Hamiltonian as its symmetry blocks, with a lazily cached
    spectral decomposition.

    When every term commutes with prod_i X_i, `to_dense` builds H rotated by
    W = H^{(x)n}, where prod_i X_i is the diagonal (-1)^popcount, as its
    even- and odd-popcount blocks (`rotated`); otherwise `blocks` is H
    itself.  A block is float64 when every term is real (an even number of Y
    letters), so its eigenvectors are real too, and complex128 otherwise.

    Each block is diagonalized on its own (numpy's eigh, LAPACK's
    divide-and-conquer ?syevd/?heevd on the lower triangle).  The filters
    move batches of states in and out of the eigenbasis through the blocks
    (`to_eigenbasis`, `from_eigenbasis`); the full H (`matrix`) and its
    eigenvector matrix V (`eig`) are assembled only where they are read.
    """

    n_qubits: int
    blocks: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def rotated(self) -> bool:
        return len(self.blocks) == 2

    @cached_property
    def sectors(self) -> list[np.ndarray]:
        """The (rotated) basis indices of each block's rows and columns."""
        return _sector_indices(self.n_qubits, len(self.blocks))

    @cached_property
    def _block_eig(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [np.linalg.eigh(block) for block in self.blocks]

    @cached_property
    def _ranks(self) -> list[np.ndarray]:
        """Each block eigenvalue's position in the ascending spectrum, ties
        in block order."""
        vals = np.concatenate([v for v, _ in self._block_eig])
        ranks = np.empty(len(vals), dtype=np.intp)
        ranks[np.argsort(vals, kind="stable")] = np.arange(len(vals))
        return np.split(ranks, len(self.blocks))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The blocks' spectra merged in ascending order."""
        vals = np.empty(self.dim)
        for rank, (block_vals, _) in zip(self._ranks, self._block_eig):
            vals[rank] = block_vals
        return vals

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues ascending, orthonormal eigenvector columns V).

        V = W blockdiag(U) is assembled in place: the blocks' eigenvectors U
        are scattered into one 2^n x 2^n matrix, which one Walsh-Hadamard
        transform rotates back, in O(n 4^n) and with no other temporary of
        its size.  Raises DimensionOverflow, before allocating, when V
        alone would exceed the machine's physical memory.
        """
        dtype = self.blocks[0].dtype
        _check_budget(dtype.itemsize * self.dim**2,
                      f"the eigenvectors of H on n={self.n_qubits} qubits")
        vecs = np.zeros((self.dim, self.dim), dtype)
        for idx, rank, (_, u) in zip(self.sectors, self._ranks, self._block_eig):
            vecs[np.ix_(idx, rank)] = u
        if self.rotated:
            walsh_hadamard(vecs)
        return self.eigenvalues, vecs

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.eig[1]

    @property
    def matrix(self) -> np.ndarray:
        """The dense 2^n x 2^n H, assembled from the blocks on each read."""
        m = np.zeros((self.dim, self.dim), self.blocks[0].dtype)
        for idx, block in zip(self.sectors, self.blocks):
            m[np.ix_(idx, idx)] = block
        if self.rotated:  # H = W M W = (W (W M)^T)^T, as W is symmetric
            walsh_hadamard(walsh_hadamard(m).T)
        return m

    def to_eigenbasis(self, amps: np.ndarray) -> np.ndarray:
        """C = V^dagger amps for a (2^n, m) batch of column states, rows in
        ascending-eigenvalue order: one Walsh-Hadamard transform of the
        batch, then one product per block."""
        batch = np.array(amps, dtype=complex)
        if self.rotated:
            walsh_hadamard(batch)
        coeffs = np.empty(batch.shape, dtype=complex)
        for idx, rank, (_, u) in zip(self.sectors, self._ranks, self._block_eig):
            coeffs[rank] = _product(u, batch[idx], adjoint=True)
        return coeffs

    def from_eigenbasis(self, coeffs: np.ndarray) -> np.ndarray:
        """V C for (2^n, m) eigenbasis coefficients: the inverse of
        `to_eigenbasis`."""
        amps = np.empty(coeffs.shape, dtype=complex)
        for idx, rank, (_, u) in zip(self.sectors, self._ranks, self._block_eig):
            amps[idx] = _product(u, coeffs[rank])
        if self.rotated:
            walsh_hadamard(amps)
        return amps


def _hadamard_rotated(term: PauliTerm) -> PauliTerm:
    """W P W for W = H^{(x)n}: X and Z swap, and each Y gives a sign."""
    n_y = sum(o == "Y" for _, o in term.operators)
    return PauliTerm((-1) ** n_y * term.coefficient,
                     tuple((q, _HADAMARD_IMAGE[o]) for q, o in term.operators))


def to_dense(p: PauliSum, n: int) -> DenseHermitian:
    """Expand a PauliSum to its dense blocks, each allocated once.

    A term commutes with prod_i X_i when it has an even number of Y and Z
    letters, as every XYZ + hx term does.  If all do, each term is rotated
    by W = H^{(x)n} (X <-> Z, Y -> -Y), which keeps its Y count and maps
    prod_i X_i to prod_i Z_i, so the rotated sum is built directly as its
    even- and odd-popcount blocks of size 2^(n-1); the full matrix is never
    allocated.  Any other sum is one 2^n block, unrotated.  A string with an
    even number of Y letters has phases +-1, so a sum of such strings is
    built real, as float64, and any other sum complex.  The terms sharing a
    flip mask fill one diagonal, scattered once into each block:
    O(|terms| 2^n) plus the allocation.  Raises IndexError when a term
    touches a qubit >= n, and DimensionOverflow, before allocating, when
    diagonalizing the blocks would take more than the machine's physical
    memory.
    """
    real = all(sum(o == "Y" for _, o in t.operators) % 2 == 0 for t in p)
    rotated = n >= 1 and all(sum(o != "X" for _, o in t.operators) % 2 == 0
                             for t in p)
    if rotated:
        p = PauliSum(tuple(map(_hadamard_rotated, p)))
    groups = _flip_groups(p, n)
    dtype = np.dtype(float if real else complex)
    sectors = _sector_indices(n, 2 if rotated else 1)
    size = len(sectors[0])
    _check_budget((2 * len(sectors) + _EIGH_WORK_BLOCKS) * dtype.itemsize
                  * size**2, f"diagonalizing H on n={n} qubits")
    blocks = tuple(np.zeros((size, size), dtype=dtype) for _ in sectors)
    shift = len(sectors) - 1  # an index's position in its sector
    rows = np.arange(size)
    for flip, group in groups.items():
        # each group fills the entries (j, j ^ flip), which no other group
        # touches; a rotated flip has even popcount, so it keeps the sector
        for block, idx in zip(blocks, sectors):
            block[rows, (idx ^ flip) >> shift] = _diagonal(group, idx)
    return DenseHermitian(n, blocks)
