"""FABLE-style block encoding of the scaled thermal operator.

Layout on 2N+1 qubits: system register = qubits 0..N-1, index ancilla
register = qubits N..2N-1, rotation ancilla = qubit 2N.  With ancillas in the
high bits, the all-ancillas-zero sector is the leading principal 2^N block of
the circuit unitary, which equals (Q/s) / 2^N.

Synthesis: Hadamards on the index register, one uniformly-controlled RY over
all 2N control bits decomposed into a Gray-code walk of RY/CNOT pairs
(rotation angles via a scaled Walsh-Hadamard transform), a register swap, and
closing Hadamards.

The circuit is emitted for resource counts and for replay; simulation does not
run it.  The uniformly-controlled RY with angle theta_c for control value
c = (i << N) | j puts cos(theta_c / 2) / 2^N at (i, j) of the leading block
(Camps & Van Beeumen, arXiv:2205.00081), so `fable_block` recovers the block
the circuit realizes (after pruning) from its compiled angles, and
`apply_fable` multiplies one state by it without emitting any gate.
`fable_encode` adds the gates (`fable_circuit`).  An exact encoding's block is
Q/s itself, diagonal in H's eigenbasis, so `estimator` filters a run's
batch there and synthesizes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import EntryOutOfRange
from .nonunitary import P0_FLOOR, ThermalOperator, check_norms
from .pauli import _check_budget, walsh_hadamard
from .statevector import StateVector

# bytes per emitted Gate object and its list slot (tracemalloc, 4-6 qubits)
_GATE_BYTES = 168


def _gray_permute(a: np.ndarray) -> np.ndarray:
    idx = np.arange(len(a))
    return a[idx ^ (idx >> 1)]


def _encoded_block(phi: np.ndarray, n: int) -> np.ndarray:
    """cos(theta/2) for the angles theta whose compiled angles are `phi`.

    Inverts `_gray_permute` and then the transform scaled by 1/2 per stage
    (whose inverse is the unscaled transform), so a pruned (zeroed) compiled
    angle yields the block the compressed circuit actually encodes.
    """
    idx = np.arange(len(phi))
    walsh = np.empty_like(phi)
    walsh[idx ^ (idx >> 1)] = phi
    theta = math.sqrt(len(phi)) * walsh_hadamard(walsh)
    return np.cos(theta / 2.0).reshape(1 << n, 1 << n)


def _gray_walk_controls(m: int) -> list[int]:
    """Control-bit index for each of the 2^m CNOTs of the Gray-code walk."""
    return [(k & -k).bit_length() - 1 for k in range(1, 1 << m)] + [m - 1]


@dataclass
class BlockEncoding:
    """The encoding circuit; `block` is alpha times its leading block (real)."""

    n_system: int
    circuit: Circuit
    block: np.ndarray

    @property
    def alpha(self) -> float:
        """The subnormalization 2^N."""
        return float(len(self.block))

    @property
    def ancilla_count(self) -> int:
        return self.n_system + 1

    @property
    def width(self) -> int:
        return 2 * self.n_system + 1

    @property
    def cnot_count(self) -> int:
        return self.circuit.cnot_count


def fable_block(op: ThermalOperator,
                compression_tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Compile the rotation angles of Q/s; returns (compiled angles, block).

    The compiled angles are in Gray-code walk order, zero where pruned:
    `compression_tol` > 0 prunes those at or below the tolerance
    (approximate encoding).  `block` is the real 2^N x 2^N matrix, 2^N times
    the leading block, that the circuit of these angles encodes.
    """
    a = np.asarray(op.scaled, dtype=float)
    if np.max(np.abs(a)) > 1.0 + 1e-12:
        raise EntryOutOfRange("matrix entries must lie in [-1, 1]")
    a = np.clip(a, -1.0, 1.0)
    # theta_c = 2 arccos(a_ij) with c = (i << n) | j; compiled angles via the
    # Walsh-Hadamard transform scaled by 1/2 per stage, in Gray-code order
    theta = 2.0 * np.arccos(a.flatten(order="C"))
    phi = _gray_permute(walsh_hadamard(theta) / math.sqrt(len(theta)))
    phi = np.where(np.abs(phi) > compression_tol, phi, 0.0)
    return phi, _encoded_block(phi, op.n_qubits)


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


def fable_encode(op: ThermalOperator, compression_tol: float = 0.0) -> BlockEncoding:
    """Synthesize the block-encoding circuit of Q/s with subnormalization 2^N.

    `compression_tol` as in `fable_block`; the default keeps the circuit
    exact.  Raises DimensionOverflow, before synthesizing, when the unpruned
    circuit's 2 * 4^N + 3N gates would exceed the machine's physical memory.
    """
    n = op.n_qubits
    _check_budget(_GATE_BYTES * (2 * 4**n + 3 * n),
                  f"the FABLE circuit on n={n} qubits")
    phi, block = fable_block(op, compression_tol)
    circuit = fable_circuit(phi, n, prune=compression_tol > 0)
    return BlockEncoding(n, circuit, block)


def apply_fable(be: BlockEncoding, psi: StateVector) -> tuple[StateVector, float]:
    """The encoding circuit with ancillas in |0>, post-selected on all zeros.

    The surviving branch is (block / 2^N) psi.  Returns the normalized branch
    (the exact filter's output up to synthesis round-off, and pruning) and
    the success probability ||(Q/s) psi||^2 / 4^N.
    Raises ZeroProbability when the probability underflows.
    """
    n = be.n_system
    if psi.n != n:
        raise ValueError(f"state has {psi.n} qubits, encoding expects {n}")
    branch = be.block @ psi.amps / be.alpha
    p0 = float(np.vdot(branch, branch).real)
    check_norms(p0, P0_FLOOR)
    return StateVector(n, branch / math.sqrt(p0)), p0
