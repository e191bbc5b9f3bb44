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
by H^{(x)n}, as two parity sectors of size 2^(n-1); a sum invariant under the
qubit-order reversal q -> n - 1 - q (every XYZ + hx chain or row-major grid)
splits each sector again into reversal-even and reversal-odd blocks, so such
a model is four blocks of about 2^(n-2), diagonalized separately.  States
enter and leave the eigenbasis through one Walsh-Hadamard transform, one
gather pair (a[s] +- a[r(s)]) / sqrt(2) and one product per block; the full
2^n x 2^n matrices are assembled only where they are read.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionOverflow, TpqsimError

# arrays of the largest block's size that diagonalizing it adds to the blocks
# and the eigenvectors already held: eigh's working copy and the
# ?syevd/?heevd workspace (2N^2 reals for an N x N block); the two-block
# path peaked at 7.4 blocks of a 12-site chain, against the 2 + 2 + 3 counted
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


def physical_memory() -> int:
    """The machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_budget(nbytes: int, what: str) -> None:
    """Raise DimensionOverflow when `nbytes` exceed physical memory."""
    memory = physical_memory()
    if nbytes > memory:
        raise DimensionOverflow(f"{what} needs {nbytes} bytes; the machine "
                                f"has {memory}")


def _reversed_bits(x, n: int):
    """x with bit q moved to bit n - 1 - q, for an int or an integer array:
    the image of a basis index, or of a mask, under the qubit-order reversal
    q -> n - 1 - q."""
    out = x & 0
    for q in range(n):
        out |= (x >> q & 1) << (n - 1 - q)
    return out


def _reversal_invariant(groups: dict[int, list[tuple[float, int, int]]],
                        n: int) -> bool:
    """Whether the sum whose flip groups these are maps to itself under the
    qubit-order reversal q -> n - 1 - q, which reverses both masks of each
    string; coefficients must match exactly."""
    coefficients: dict[tuple[int, int], float] = {}
    for flip, group in groups.items():
        for coefficient, sign, _ in group:
            key = (flip, sign)
            coefficients[key] = coefficients.get(key, 0.0) + coefficient
    return all(coefficients.get((_reversed_bits(flip, n),
                                 _reversed_bits(sign, n))) == c
               for (flip, sign), c in coefficients.items())


def _block_sizes(n: int, rotated: bool, reflected: bool) -> list[int]:
    """The rows of each block of `_fold`'s layout, known before it is built.

    A sector (all 2^n indices, or the 2^(n-1) of one popcount parity when
    rotated) with p palindromes, r(s) = s, splits into (size + p) / 2
    reversal-even and (size - p) / 2 reversal-odd rows.  There are
    2^ceil(n/2) palindromes: all of even popcount when n is even, and half of
    each parity, set by the middle bit, when n is odd.
    """
    sectors = [1 << (n - 1)] * 2 if rotated else [1 << n]
    if not reflected:
        return sectors
    pals = 1 << (n + 1) // 2
    in_sector = [pals] if not rotated else [pals, 0] if n % 2 == 0 \
        else [pals // 2] * 2
    return [size for sector, p in zip(sectors, in_sector)
            for size in ((sector + p) // 2, (sector - p) // 2) if size]


def _pairs(rows: np.ndarray, cols: np.ndarray,
           weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """(i1, i2, w1, w2) such that (M a)[k] = w1[k] a[i1[k]] + w2[k] a[i2[k]]
    for the square matrix M with entries M[rows, cols] = weights, one or two
    in each row; a row with one entry repeats it with weight 0."""
    order = np.lexsort((cols, rows))
    rows, cols, weights = rows[order], cols[order], weights[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    i1, w1 = cols[first], weights[first]
    i2, w2 = i1.copy(), np.zeros(len(i1))
    i2[rows[~first]], w2[rows[~first]] = cols[~first], weights[~first]
    return i1, i2, w1, w2


def _block_rows(forward: tuple[np.ndarray, ...],
                bounds: tuple[int, ...]) -> list[tuple[np.ndarray, ...]]:
    """Each block's rows of F, as (i1, i2, w1, w2)."""
    return [tuple(x[lo:hi] for x in forward)
            for lo, hi in zip(bounds, bounds[1:])]


def _gather(pair: tuple[np.ndarray, ...], a: np.ndarray) -> np.ndarray:
    """w1 a[i1] + w2 a[i2] along axis 0 of a (2^n, m) batch."""
    i1, i2, w1, w2 = pair
    return w1[:, None] * a[i1] + w2[:, None] * a[i2]


def _fold(n: int, rotated: bool, reflected: bool) -> tuple:
    """The orthogonal map F from the (rotated) computational basis onto the
    blocks' bases, rows concatenated block by block in the order of
    `_block_sizes`: F and F^T as gather pairs, and the first row of each
    block followed by the end.

    Each sector is split by the qubit-order reversal r when `reflected`: a
    pair s < r(s) gives the row (<s| + <r(s)|) / sqrt(2) of the sector's
    reversal-even block and (<s| - <r(s)|) / sqrt(2) of its reversal-odd
    block, and a palindrome the row <s| of the even block, after the pairs.
    Otherwise every index is a palindrome and each sector is one block.
    """
    idx = np.arange(1 << n)
    mirror = _reversed_bits(idx, n) if reflected else idx
    parity = np.bitwise_count(idx) & 1
    half = np.sqrt(0.5)
    entries, bounds = [], [0]
    for sector in [idx[parity == 0], idx[parity == 1]] if rotated else [idx]:
        reps = sector[sector < mirror[sector]]
        pals = sector[sector == mirror[sector]]
        m, start = len(reps), bounds[-1]
        even = start + np.arange(m + len(pals))
        odd = even[-1] + 1 + np.arange(m)
        entries += [(even[:m], reps, np.full(m, half)),
                    (even[:m], mirror[reps], np.full(m, half)),
                    (even[m:], pals, np.ones(len(pals))),
                    (odd, reps, np.full(m, half)),
                    (odd, mirror[reps], np.full(m, -half))]
        mid = start + len(even)
        bounds += [mid, mid + m] if m else [mid]
    rows, cols, weights = map(np.concatenate, zip(*entries))
    return (_pairs(rows, cols, weights), _pairs(cols, rows, weights),
            tuple(bounds))


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

    When every term commutes with prod_i X_i, `to_dense` works in the basis
    rotated by W = H^{(x)n} (`rotated`), where prod_i X_i is the diagonal
    (-1)^popcount, so H splits into its even- and odd-popcount sectors;
    otherwise a sector is all of H.  When H is also invariant under the
    qubit-order reversal r (the mirror of a chain, the 180-degree rotation
    of a row-major grid), which keeps popcount and commutes with W, each
    sector splits again into its reversal-even and reversal-odd blocks.
    `forward` and `backward` hold the orthogonal map F onto the blocks'
    bases and F^T as gather pairs (i1, i2, w1, w2), (F a)[k] = w1[k]
    a[i1[k]] + w2[k] a[i2[k]], and `bounds` the first row of each block and
    the end; `blocks` are the diagonal blocks of F (W) H (W) F^T.  A block
    is float64 when every term is real (an even number of Y letters), so its
    eigenvectors are real too, and complex128 otherwise.

    Each block is diagonalized on its own (numpy's eigh, LAPACK's
    divide-and-conquer ?syevd/?heevd on the lower triangle).  The filters
    move batches of states in and out of the eigenbasis through the blocks
    (`to_eigenbasis`, `from_eigenbasis`): one Walsh-Hadamard transform, one
    gather pair of F or F^T and one product per block.  The full H is never
    assembled, and its eigenvector matrix V (`eig`) only where it is read.
    """

    n_qubits: int
    blocks: tuple[np.ndarray, ...]
    rotated: bool
    forward: tuple[np.ndarray, ...]
    backward: tuple[np.ndarray, ...]
    bounds: tuple[int, ...]

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def _slices(self) -> list[slice]:
        return [slice(lo, hi) for lo, hi in zip(self.bounds, self.bounds[1:])]

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
        return np.split(ranks, self.bounds[1:-1])

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

        V = W F^T blockdiag(U) is assembled in place: each block's
        eigenvectors U are scattered, weighted by its rows of F, into one
        2^n x 2^n matrix, which one Walsh-Hadamard transform rotates back, in
        O(n 4^n) and with no other temporary of its size.  Raises
        DimensionOverflow, before allocating, when V alone would exceed the
        machine's physical memory.
        """
        dtype = self.blocks[0].dtype
        _check_budget(dtype.itemsize * self.dim**2,
                      f"the eigenvectors of H on n={self.n_qubits} qubits")
        vecs = np.zeros((self.dim, self.dim), dtype)
        rows = _block_rows(self.forward, self.bounds)
        for (i1, i2, w1, w2), rank, (_, u) in zip(rows, self._ranks,
                                                  self._block_eig):
            # a palindrome's row repeats i1 as i2 with weight 0: i1 goes last
            vecs[np.ix_(i2, rank)] = w2[:, None] * u
            vecs[np.ix_(i1, rank)] = w1[:, None] * u
        if self.rotated:
            walsh_hadamard(vecs)
        return self.eigenvalues, vecs

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.eig[1]

    def to_eigenbasis(self, amps: np.ndarray) -> np.ndarray:
        """C = V^dagger amps for a (2^n, m) batch of column states, rows in
        ascending-eigenvalue order: one Walsh-Hadamard transform of the
        batch, one gather pair of F, then one product per block."""
        batch = np.array(amps, dtype=complex)
        if self.rotated:
            walsh_hadamard(batch)
        folded = _gather(self.forward, batch)
        coeffs = np.empty(batch.shape, dtype=complex)
        for rows, rank, (_, u) in zip(self._slices, self._ranks,
                                      self._block_eig):
            coeffs[rank] = _product(u, folded[rows], adjoint=True)
        return coeffs

    def from_eigenbasis(self, coeffs: np.ndarray) -> np.ndarray:
        """V C for (2^n, m) eigenbasis coefficients: the inverse of
        `to_eigenbasis`."""
        folded = np.empty(coeffs.shape, dtype=complex)
        for rows, rank, (_, u) in zip(self._slices, self._ranks,
                                      self._block_eig):
            folded[rows] = _product(u, coeffs[rank])
        amps = _gather(self.backward, folded)
        if self.rotated:
            walsh_hadamard(amps)
        return amps

    def diagonal_in_eigenbasis(self, a: PauliSum) -> np.ndarray | None:
        """<v_k|A|v_k> for every eigenvector, in ascending-eigenvalue order,
        when every term of A has flip mask 0 in the blocks' basis (X-only
        strings, such as the transverse magnetization, when H is rotated);
        None for any other A.

        A's diagonal d there is read per block, as the sum over its rows a of
        |U_ak|^2 times the mean of d over a's reversal orbit,
        w1^2 d[i1] + w2^2 d[i2]: V is never assembled.
        """
        if self.rotated:
            a = PauliSum(tuple(map(_hadamard_rotated, a)))
        groups = _flip_groups(a, self.n_qubits)
        if any(groups):  # a nonzero flip mask
            return None
        i1, i2, w1, w2 = self.forward
        d = _diagonal(groups.get(0, []), np.arange(self.dim))
        orbit_mean = w1**2 * d[i1] + w2**2 * d[i2]
        diag = np.empty(self.dim)
        for rows, rank, (_, u) in zip(self._slices, self._ranks,
                                      self._block_eig):
            diag[rank] = orbit_mean[rows] @ np.abs(u) ** 2
        return diag


def _hadamard_rotated(term: PauliTerm) -> PauliTerm:
    """W P W for W = H^{(x)n}: X and Z swap, and each Y gives a sign."""
    n_y = sum(o == "Y" for _, o in term.operators)
    return PauliTerm((-1) ** n_y * term.coefficient,
                     tuple((q, _HADAMARD_IMAGE[o]) for q, o in term.operators))


def _block(groups: dict[int, list[tuple[float, int, int]]],
           rows: tuple[np.ndarray, ...], n: int, dtype) -> np.ndarray:
    """F_b H F_b^T for the block whose rows of F are `rows` = (i1, i2, w1, w2),
    by scatter-add from the flip groups of H (rotated when the blocks are).

    Row k of F_b is kappa_k P |a> for a = i1[k], P the projector onto the
    block's reversal parity and kappa_k = 1 / w1[k]; P commutes with H, so
    entry (k, l) is kappa_k sum_t H[a, t] F_b[l, t], and a flip group adds
    H[a, a ^ flip] = d[a] at the row l of F_b that holds t = a ^ flip.  An
    index outside the block weighs 0.
    """
    i1, i2, w1, w2 = rows
    size = len(i1)
    k = np.arange(size)
    col, weight = np.zeros(1 << n, dtype=np.intp), np.zeros(1 << n)
    col[i2], weight[i2] = k, w2
    col[i1], weight[i1] = k, w1
    block = np.zeros((size, size), dtype=dtype)
    for flip, group in groups.items():
        t = i1 ^ flip
        np.add.at(block.reshape(-1), k * size + col[t],
                  _diagonal(group, i1) * (weight[t] / w1))
    return block


def to_dense(p: PauliSum, n: int) -> DenseHermitian:
    """Expand a PauliSum to its dense blocks, each allocated once.

    A term commutes with prod_i X_i when it has an even number of Y and Z
    letters, as every XYZ + hx term does.  If all do, each term is rotated
    by W = H^{(x)n} (X <-> Z, Y -> -Y), which keeps its Y count and maps
    prod_i X_i to prod_i Z_i, so the rotated sum splits into its even- and
    odd-popcount sectors of size 2^(n-1); any other sum is one 2^n sector,
    unrotated.  When the sum is also invariant under the qubit-order
    reversal q -> n - 1 - q, found from its strings, each sector splits into
    its reversal-even and reversal-odd blocks (see `_fold`): four blocks of
    about 2^(n-2) for every XYZ + hx chain or grid.  The full matrix is never
    allocated.  A string with an even number of Y letters has phases +-1, so
    a sum of such strings is built real, as float64, and any other sum
    complex.  The terms sharing a flip mask fill one diagonal, scattered
    once into each block: O(|terms| 2^n) plus the allocation.  Raises
    TpqsimError, before building anything, when 2 sum |c|, which bounds the
    spread of the spectrum, is not a finite float; IndexError when a term
    touches a qubit >= n; and DimensionOverflow, before allocating, when
    diagonalizing the blocks would take more than the machine's physical
    memory.
    """
    spread = 2 * sum(abs(t.coefficient) for t in p)
    if not math.isfinite(spread):
        raise TpqsimError(f"the Hamiltonian's spectrum may spread over "
                          f"2 sum |c| = {spread}, which overflows float64")
    real = all(sum(o == "Y" for _, o in t.operators) % 2 == 0 for t in p)
    rotated = n >= 1 and all(sum(o != "X" for _, o in t.operators) % 2 == 0
                             for t in p)
    if rotated:
        p = PauliSum(tuple(map(_hadamard_rotated, p)))
    groups = _flip_groups(p, n)
    reflected = _reversal_invariant(groups, n)
    dtype = np.dtype(float if real else complex)
    sizes = _block_sizes(n, rotated, reflected)
    _check_budget(dtype.itemsize * (2 * sum(s * s for s in sizes)
                                    + _EIGH_WORK_BLOCKS * max(sizes)**2),
                  f"diagonalizing H on n={n} qubits")
    forward, backward, bounds = _fold(n, rotated, reflected)
    blocks = tuple(_block(groups, rows, n, dtype)
                   for rows in _block_rows(forward, bounds))
    return DenseHermitian(n, blocks, rotated, forward, backward, bounds)
