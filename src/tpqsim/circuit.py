"""Gate-list circuit representation with resource accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

ONE_QUBIT_KINDS = frozenset({"h", "x", "t", "rx", "ry", "rz"})
TWO_QUBIT_KINDS = frozenset({"cz", "cnot", "swap"})
PARAMETRIC_KINDS = frozenset({"rx", "ry", "rz"})


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.kind in ONE_QUBIT_KINDS:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} takes one qubit")
        elif self.kind in TWO_QUBIT_KINDS:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"{self.kind} takes two distinct qubits")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in PARAMETRIC_KINDS and self.angle is None:
            raise ValueError(f"{self.kind} needs an angle")


@dataclass
class Circuit:
    """Ordered gate list on `width` qubits."""

    width: int
    gates: list[Gate] = field(default_factory=list)

    def append(self, kind: str, *qubits: int, angle: float | None = None) -> None:
        g = Gate(kind, tuple(qubits), angle)
        if any(q >= self.width or q < 0 for q in g.qubits):
            raise IndexError(f"gate {g} out of range for width {self.width}")
        self.gates.append(g)

    @property
    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "cnot")
