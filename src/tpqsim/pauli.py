"""Symbolic Pauli-string operators and their dense Hermitian realizations.

Convention used throughout the package: qubit 0 is the least significant bit
of the computational-basis index, so basis state |b_{n-1} ... b_1 b_0> sits at
array index sum_q b_q 2^q.

A Pauli string is three integers, its flip mask, sign mask and Y count:
(c P a)[j] = c (-i)^{#Y} (-1)^{popcount(j & sign)} a[j ^ flip].  A sum's
terms are grouped by flip mask, and each group acts as one diagonal times one
gather, the diagonal built only while its group is applied; no table per
string outlives a call.

A dense Hamiltonian is held as the eigenpairs of its symmetry blocks, each
diagonalized as it is built and then dropped: a sum whose terms all commute
with prod_i X_i (every XYZ + hx model) is built in the basis rotated by
H^{(x)n}, a swap of each string's flip and sign masks, as two parity sectors
of size 2^(n-1); a sum invariant under the qubit-order reversal q -> n - 1 - q
(every XYZ + hx chain or row-major grid) splits each sector again into
reversal-even and reversal-odd blocks, four of about 2^(n-2), each laid out
from its sector's reversal pairs and palindromes.  Each block is one record,
its rows (a[s] +- a[r(s)]) / sqrt(2) of the fold, its columns of the
eigenbasis and its eigenpairs.  States enter the eigenbasis through one
Walsh-Hadamard transform, one product per five index bits, and, per block,
a gather of its rows and one product, and leave it through one product and
one scatter per block and the transform; the eigenvector matrix is read a
slab of columns at a time, and a full 2^n x 2^n matrix is assembled only
where one is the result.  The eigenbasis is kept in block order, each
block's eigenpairs after the previous block's, and is never sorted: what is
read off it, sums over eigenstates and the ground energy as the spectrum's
min, needs no order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionOverflow, TpqsimError

# arrays of the largest block's size that diagonalizing it adds to that block
# and the eigenvectors held: eigh's copy and ?syevd/?heevd workspace (2N^2
# reals for N x N); in a fresh x86-64 process with OpenBLAS, diagonalizing a
# 13-site chain grew the peak RSS by 260.2 MiB against the 260.1 MiB counted
# (a 12-site chain by 77.1 against 66.0 MiB, fixed overheads included)
_EIGH_WORK_BLOCKS = 3

_VALID_OPS = frozenset("XYZ")

_Group = list[tuple[float, int, int]]  # (coefficient, sign, #Y) per string


@dataclass(frozen=True)
class PauliTerm:
    """A real coefficient times a Pauli string; empty string is the identity."""

    coefficient: float
    operators: tuple[tuple[int, str], ...]

    def __post_init__(self):
        ops = tuple(sorted((int(q), o.upper()) for q, o in self.operators))
        for i, (q, o) in enumerate(ops):
            if q < 0:
                raise ValueError(f"negative qubit index {q}")
            if o not in _VALID_OPS:
                raise ValueError(f"unknown Pauli letter {o!r}")
            if i and q == ops[i - 1][0]:
                raise ValueError(f"qubit {q} appears twice")
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


def _flip_groups(p: PauliSum, n: int, rotated: bool = False) -> dict[int, _Group]:
    """p's terms keyed by flip mask, each as (coefficient, sign, #Y), in
    order of appearance: a group acts as one diagonal times one gather.

    When `rotated`, each term is taken as W P W for W = H^{(x)n}: X and Z
    swap, so the flip and sign masks swap, and W Y W = -Y negates the
    coefficient once per Y."""
    groups: dict[int, _Group] = {}
    for term in p:
        flip, sign, n_y = _masks(term.operators, n)
        coefficient = term.coefficient
        if rotated:
            flip, sign, coefficient = sign, flip, (-1) ** n_y * coefficient
        groups.setdefault(flip, []).append((coefficient, sign, n_y))
    return groups


def _diagonal(group: _Group, rows: np.ndarray) -> np.ndarray:
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


# index bits taken by one product of the Walsh-Hadamard transform: its
# 32 x 32 Sylvester matrix (8 KiB) stays in cache, and an n-bit transform
# passes over the array ceil(n / 5) times instead of n
_WHT_BITS = 5


@lru_cache(maxsize=None)
def _sylvester(k: int) -> np.ndarray:
    """H^{(x)k}, the 2^k Sylvester-Hadamard matrix scaled by 2^{-k/2}, whose
    entry (i, j) is the sign (-1)^popcount(i & j) (read-only)."""
    idx = np.arange(1 << k)
    scale = 2.0 ** (-k / 2)
    s = np.where(np.bitwise_count(idx[:, None] & idx) & 1, -scale, scale)
    s.flags.writeable = False
    return s


def walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """H^{(x)n} a, in place along axis 0 of a C-contiguous (2^n, ...) array;
    returns `a`.  The transform is orthogonal and its own inverse.

    The n index bits are taken _WHT_BITS at a time from the lowest: for
    bits lo .. lo + k - 1 the array is viewed as (2^(n-lo-k), 2^k, rest)
    and multiplied by the scaled 2^k Sylvester matrix in one product,
    written back over the view (numpy buffers the input of the overlapping
    product, one copy of the array).  Complex entries are multiplied as
    pairs of reals.
    """
    v = a.view(float) if np.iscomplexobj(a) else a
    dim, lo = len(a), 0
    while 1 << lo < dim:
        k = min(_WHT_BITS, dim.bit_length() - 1 - lo)
        view = v.reshape(dim >> (lo + k), 1 << k, -1, copy=False)
        np.matmul(_sylvester(k), view, out=view)
        lo += k
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


def _reversal_invariant(groups: dict[int, _Group], n: int) -> bool:
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


def _scatter(out: np.ndarray, rows: tuple, x: np.ndarray) -> np.ndarray:
    """out += F_b^T x along axis 0, for the block whose rows of F are `rows`
    = (i1, i2, w1, w2); returns `out`.  A pair's two blocks each add their
    share to s and r(s), and a palindrome's row adds x through i1 and 0
    through i2."""
    i1, i2, w1, w2 = rows
    out[i2] += w2[:, None] * x
    out[i1] += w1[:, None] * x
    return out


def _fold(n: int, rotated: bool, reflected: bool) -> list[tuple]:
    """Each block's rows of the orthogonal map F from the (rotated)
    computational basis onto the blocks' bases, as (i1, i2, w1, w2): row k
    is w1[k] <i1[k]| + w2[k] <i2[k]|.

    Each sector is split by the qubit-order reversal r when `reflected`: a
    pair s < r(s) gives the row (<s| + <r(s)|) / sqrt(2) of the sector's
    reversal-even block and (<s| - <r(s)|) / sqrt(2) of its reversal-odd
    block, and a palindrome s = r(s) the row <s| of the even block, after
    the pairs, repeating s with weight 0.  Otherwise every index is a
    palindrome and each sector is one block.
    """
    idx = np.arange(1 << n)
    mirror = _reversed_bits(idx, n) if reflected else idx
    parity = np.bitwise_count(idx) & 1
    blocks = []
    for sector in [idx[parity == 0], idx[parity == 1]] if rotated else [idx]:
        reps = sector[sector < mirror[sector]]
        pals = sector[sector == mirror[sector]]
        images, w = mirror[reps], np.full(len(reps), np.sqrt(0.5))
        blocks.append(tuple(map(np.concatenate, (
            [reps, pals], [images, pals],
            [w, np.ones(len(pals))], [w, np.zeros(len(pals))]))))
        if len(reps):
            blocks.append((reps, images, w, -w))
    return blocks


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
    """A dense Hamiltonian as the eigenpairs of its symmetry blocks.

    When every term commutes with prod_i X_i, `to_dense` works in the basis
    rotated by W = H^{(x)n} (`rotated`), where prod_i X_i is the diagonal
    (-1)^popcount, so H splits into its even- and odd-popcount sectors;
    otherwise a sector is all of H.  When H is also invariant under the
    qubit-order reversal r (the mirror of a chain, the 180-degree rotation
    of a row-major grid), which keeps popcount and commutes with W, each
    sector splits again into its reversal-even and reversal-odd blocks.
    `blocks` holds one record per block, (rows, cols, eigenvalues, U):
    `rows` = (i1, i2, w1, w2) are the block's rows of the orthogonal map F
    onto the blocks' bases (see `_fold`), `cols` is the block's slice of the
    eigenbasis, and (eigenvalues ascending, U) are the eigenpairs of the
    block F_b (W) H (W) F_b^T from numpy's eigh (LAPACK's ?syevd/?heevd),
    the block itself dropped by `to_dense`.  The eigenbasis is in block
    order: eigenvalue k, column k of V and row k of the coefficients belong
    to the block whose `cols` hold k, so the spectrum as a whole is not
    sorted and its ground energy is its min.  U is float64 when every term
    is real (an even number of Y letters), else complex128.  The filters
    move batches of states in and out of the eigenbasis
    (`to_eigenbasis`, `from_eigenbasis`) through one Walsh-Hadamard
    transform and, per block, its rows of F or their scatter F_b^T and one
    product with U.  The full H is never assembled; its eigenvector matrix V
    is read in narrow slabs of columns (`slabs`), and assembled whole
    (`eig`) only for the dense artifacts that are 4^n themselves.
    """

    n_qubits: int
    rotated: bool
    blocks: tuple[tuple, ...]

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def dtype(self) -> np.dtype:
        """The eigenvectors' dtype, float64 or complex128 (`dense_dtype`)."""
        return self.blocks[0][3].dtype

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The blocks' spectra, block by block."""
        return np.concatenate([vals for _, _, vals, _ in self.blocks])

    def slabs(self):
        """Yield (cols, V[:, cols]) for slices `cols` that cover the columns
        of V = W F^T blockdiag(U) in order, each within one block: its U
        columns scattered through the block's rows of F into a zeroed
        (2^n, width) array, rotated back by one Walsh-Hadamard transform.

        A slab is 2^n / 32 columns wide: with the previous slab, which a
        reader holds while the next is built, and the transform's buffered
        input, one slab more, a reader's peak stays near a tenth of V
        (tracemalloc read 0.099 V for `scaled_weights` at 12 sites), inside
        the block and eigh workspace that `to_dense` counted and freed, four
        of the largest of at most four blocks, so 4^n / 4 entries or more.
        It is at least 8 wide, because each slab costs a fixed number of
        numpy calls, its scatter and the transform's products: below 8
        sites, where 8 columns are a few KiB, this keeps the slabs few.
        """
        width = max(8, self.dim // 32)
        for rows, cols, _, u in self.blocks:
            for lo in range(0, u.shape[1], width):
                part = u[:, lo:lo + width]
                slab = _scatter(np.zeros((self.dim, part.shape[1]),
                                         self.dtype), rows, part)
                if self.rotated:
                    walsh_hadamard(slab)
                start = cols.start + lo
                yield slice(start, start + part.shape[1]), slab

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, orthonormal eigenvector columns V), in block order,
        V filled from `slabs`.  Raises DimensionOverflow, before allocating,
        when V alone would exceed the machine's physical memory.
        """
        _check_budget(self.dtype.itemsize * self.dim**2,
                      f"the eigenvectors of H on n={self.n_qubits} qubits")
        vecs = np.empty((self.dim, self.dim), self.dtype)
        for cols, slab in self.slabs():
            vecs[:, cols] = slab
        return self.eigenvalues, vecs

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.eig[1]

    def to_eigenbasis(self, amps: np.ndarray) -> np.ndarray:
        """C = V^dagger amps for a (2^n, m) batch of column states, rows in
        block order: one Walsh-Hadamard transform of the batch, then per
        block its rows of F and one product."""
        batch = np.array(amps, dtype=complex, order="C")
        if self.rotated:
            walsh_hadamard(batch)
        coeffs = np.empty(batch.shape, dtype=complex)
        for (i1, i2, w1, w2), cols, _, u in self.blocks:
            folded = w1[:, None] * batch[i1] + w2[:, None] * batch[i2]
            coeffs[cols] = _product(u, folded, adjoint=True)
        return coeffs

    def from_eigenbasis(self, coeffs: np.ndarray) -> np.ndarray:
        """V C for (2^n, m) eigenbasis coefficients: the inverse of
        `to_eigenbasis`, each block's product scattered through its rows of
        F into one zeroed batch, then one Walsh-Hadamard transform."""
        amps = np.zeros(coeffs.shape, dtype=complex)
        for rows, cols, _, u in self.blocks:
            _scatter(amps, rows, _product(u, coeffs[cols]))
        if self.rotated:
            walsh_hadamard(amps)
        return amps

    def diagonal_in_eigenbasis(self, a: PauliSum) -> np.ndarray | None:
        """<v_k|A|v_k> for every eigenvector, in block order, when every term
        of A has flip mask 0 in the blocks' basis (X-only strings, such as
        the transverse magnetization, when H is rotated); None for any
        other A.

        A's diagonal d there is read per block, as the sum over its rows a of
        |U_ak|^2 times the mean of d over a's reversal orbit,
        w1^2 d[i1] + w2^2 d[i2]: V is never assembled.
        """
        groups = _flip_groups(a, self.n_qubits, self.rotated)
        if any(groups):  # a nonzero flip mask
            return None
        d = _diagonal(groups.get(0, []), np.arange(self.dim))
        diag = np.empty(self.dim)
        for (i1, i2, w1, w2), cols, _, u in self.blocks:
            diag[cols] = (w1**2 * d[i1] + w2**2 * d[i2]) @ np.abs(u) ** 2
        return diag


def _block(groups: dict[int, _Group],
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


def dense_dtype(p: PauliSum) -> np.dtype:
    """The dtype of the blocks and eigenvectors `to_dense` builds for p:
    float64 when every string has an even number of Y letters, whose phases
    are +-1, else complex128."""
    real = all(sum(o == "Y" for _, o in t.operators) % 2 == 0 for t in p)
    return np.dtype(float if real else complex)


def to_dense(p: PauliSum, n: int) -> DenseHermitian:
    """Diagonalize a PauliSum block by block, keeping only the eigenpairs.

    A term commutes with prod_i X_i when it has an even number of Y and Z
    letters, as every XYZ + hx term does.  If all do, each term is rotated by
    W = H^{(x)n}, a swap of its flip and sign masks (see `_flip_groups`) that
    maps prod_i X_i to prod_i Z_i, so the rotated sum splits into its even-
    and odd-popcount sectors of size 2^(n-1); any other sum is one 2^n sector,
    unrotated.  When the sum is also invariant under the qubit-order reversal
    q -> n - 1 - q, found from its masks, each sector splits into its
    reversal-even and reversal-odd blocks (see `_fold`, whose rows give the
    block sizes): four blocks of about 2^(n-2) for every XYZ + hx chain or
    grid.  A sum of strings with an even number of Y letters is built real,
    as float64, and any other sum complex (`dense_dtype`).  The
    terms sharing a flip mask fill one diagonal, scattered once into each
    block: O(|terms| 2^n) plus the allocation, and each block is handed to
    eigh as soon as it is built and dropped, so no two blocks are alive at
    once and the full matrix never is.  Raises TpqsimError, before building
    anything, when 2 sum |c|, which bounds the spread of the spectrum, is not
    a finite float; IndexError when a term touches a qubit >= n; and
    DimensionOverflow, before allocating any block, when the eigenvectors, one
    block and its eigh workspace would take more than the machine's physical
    memory: first by a lower bound, four equal blocks, checked before the fold
    is built, then by the fold's block sizes.  Each block's record is built
    as it is diagonalized, its `cols` running on from the previous block's.
    """
    spread = 2 * sum(abs(t.coefficient) for t in p)
    if not math.isfinite(spread):
        raise TpqsimError(f"the Hamiltonian's spectrum may spread over "
                          f"2 sum |c| = {spread}, which overflows float64")
    rotated = n >= 1 and all(sum(o != "X" for _, o in t.operators) % 2 == 0
                             for t in p)
    groups = _flip_groups(p, n, rotated)
    reflected = _reversal_invariant(groups, n)
    dtype = dense_dtype(p)

    def check_budget(sizes):
        largest = max(sizes)**2
        _check_budget(dtype.itemsize * (sum(s * s for s in sizes)
                                        + (1 + _EIGH_WORK_BLOCKS) * largest),
                      f"diagonalizing H on n={n} qubits")

    # at most four blocks share the 2^n rows, so four equal ones bound the
    # need from below before the fold's O(2^n) index arrays exist
    check_budget([(1 << n) // 4] * 4)
    folds = _fold(n, rotated, reflected)
    check_budget([len(rows[0]) for rows in folds])
    blocks, start = [], 0
    for rows in folds:
        vals, u = np.linalg.eigh(_block(groups, rows, n, dtype))
        blocks.append((rows, slice(start, start + len(vals)), vals, u))
        start += len(vals)
    return DenseHermitian(n, rotated, tuple(blocks))
