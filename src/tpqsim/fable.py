"""FABLE-style block encoding of a real 2^N x 2^N matrix A with entries in
[-1, 1], at subnormalization 2^N.

Layout on 2N+1 qubits: system register = qubits 0..N-1, index ancilla
register = qubits N..2N-1, rotation ancilla = qubit 2N.  With ancillas in the
high bits, the all-ancillas-zero sector is the leading principal 2^N block of
the circuit unitary, which equals A / 2^N.

Synthesis: Hadamards on the index register, one uniformly-controlled RY over
all 2N control bits decomposed into a Gray-code walk of RY/CNOT pairs
(rotation angles via a scaled Walsh-Hadamard transform), a register swap, and
closing Hadamards.

The uniformly-controlled RY with angle theta_c for control value
c = (i << N) | j puts cos(theta_c / 2) / 2^N at (i, j) of the leading block
(Camps & Van Beeumen, arXiv:2205.00081).  The thermal filter encodes
A = Q/s (`nonunitary.scaled_filter`); the circuit is emitted for resource
counts and for replay, and simulation does not run it: an exact encoding's
block is Q/s / 2^N itself, diagonal in H's eigenbasis, where `estimator`
filters a run's batch and synthesizes nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit
from .errors import EntryOutOfRange
from .pauli import _check_budget, walsh_hadamard

# bytes per emitted Gate object and its list slot (tracemalloc, 4-6 qubits)
_GATE_BYTES = 168


def _gray_permute(a: np.ndarray) -> np.ndarray:
    idx = np.arange(len(a))
    return a[idx ^ (idx >> 1)]


def _gray_walk_controls(m: int) -> list[int]:
    """Control-bit index for each of the 2^m CNOTs of the Gray-code walk."""
    return [(k & -k).bit_length() - 1 for k in range(1, 1 << m)] + [m - 1]


def fable_circuit(phi: np.ndarray, n: int, prune: bool = False) -> Circuit:
    """The Gray-code gate sequence for compiled angles `phi` on 2n+1 qubits.

    With `prune`, a zero angle's rotation is dropped and the adjacent CNOTs
    merge by control parity.  Without it every rotation is kept, RY(0)
    included, so the exact encoding has 4^n CNOTs whatever angles round to
    zero.
    """
    rot_q = 2 * n
    circuit = Circuit(2 * n + 1)

    def deferred_cnots(mask):
        for bit in range(mask.bit_length()):
            if mask >> bit & 1:
                circuit.append("cnot", bit, rot_q)

    for q in range(n, 2 * n):
        circuit.append("h", q)
    pending = 0  # parity mask of CNOT controls deferred by pruning
    for k, ctrl_bit in enumerate(_gray_walk_controls(2 * n)):
        if phi[k] != 0.0 or not prune:
            deferred_cnots(pending)
            pending = 0
            circuit.append("ry", rot_q, angle=float(phi[k]))
            circuit.append("cnot", ctrl_bit, rot_q)
        else:
            pending ^= 1 << ctrl_bit
    deferred_cnots(pending)
    for q in range(n):
        circuit.append("swap", q, n + q)
    for q in range(n, 2 * n):
        circuit.append("h", q)
    return circuit


def fable_encode(a: np.ndarray, compression_tol: float = 0.0) -> Circuit:
    """Synthesize the block-encoding circuit of the real matrix `a`, of side
    2^N for some N >= 1, with subnormalization 2^N.

    The compiled angles are in Gray-code walk order: `compression_tol` > 0
    prunes those at or below the tolerance (approximate encoding); the
    default keeps the circuit exact.  Raises ValueError for a matrix with a
    nonzero imaginary part, or not square with a side that is a power of two;
    DimensionOverflow, before synthesizing, when the unpruned circuit's
    2 * 4^N + 3N gates would exceed the machine's physical memory; and
    EntryOutOfRange when an entry leaves [-1, 1] or is nan.
    """
    a = np.asarray(a)
    side = a.shape[0] if a.ndim == 2 else 0
    if a.shape != (side, side) or side < 2 or side & (side - 1):
        raise ValueError(f"FABLE encodes a square matrix of side 2^N, N >= 1;"
                         f" got shape {a.shape}")
    if np.iscomplexobj(a) and np.any(a.imag):
        raise ValueError("FABLE encodes a real matrix")
    n = side.bit_length() - 1
    _check_budget(_GATE_BYTES * (2 * 4**n + 3 * n),
                  f"the FABLE circuit on n={n} qubits")
    a = np.asarray(a.real, dtype=float)
    if not np.all(np.abs(a) <= 1.0 + 1e-12):  # a nan entry fails too
        raise EntryOutOfRange("matrix entries must lie in [-1, 1]")
    a = np.clip(a, -1.0, 1.0)
    # theta_c = 2 arccos(a_ij) with c = (i << n) | j; compiled angles via the
    # Walsh-Hadamard transform scaled by 1/2 per stage, in Gray-code order
    theta = 2.0 * np.arccos(a.flatten(order="C"))
    phi = _gray_permute(walsh_hadamard(theta) / math.sqrt(len(theta)))
    phi = np.where(np.abs(phi) > compression_tol, phi, 0.0)
    return fable_circuit(phi, n, prune=compression_tol > 0)
