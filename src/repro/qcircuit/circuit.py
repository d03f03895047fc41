"""A flat, imperative quantum circuit representation.

This is the post-IR form used by the backends (OpenQASM 3, QIR), the
statevector simulator, and the resource estimator — the result of the
reg2mem-style conversion from QCircuit-dialect SSA (paper §7).  It is
also the common currency of circuit synthesis: basis translation
synthesis and oracle synthesis produce gate lists in this form before
they are spliced into the IR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import QwertyTypeError, SimulationError, SourceSpan
from repro.parameters import ParamExpr, Parameter, is_symbolic, parameters_of

#: Gate names understood by the circuit layer.
KNOWN_GATES = {
    "x",
    "y",
    "z",
    "h",
    "s",
    "sdg",
    "t",
    "tdg",
    "sx",
    "sxdg",
    "p",
    "rx",
    "ry",
    "rz",
    "swap",
}

SELF_ADJOINT = {"x", "y", "z", "h", "swap"}

_ADJOINT_NAMES = {
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
    "sx": "sxdg",
    "sxdg": "sx",
}

_NUM_TARGETS = {"swap": 2}


@dataclass(frozen=True)
class CircuitGate:
    """One gate application: ``name`` on ``targets`` with ``controls``.

    ``ctrl_states`` holds the control polarity (1 = control on |1>).
    ``params`` holds rotation/phase angles in radians.
    ``condition`` is an optional ``(classical bit, required value)``
    pair; the gate only runs when the bit holds that value (used for
    measurement-dependent circuits such as teleportation).

    ``loc`` records the Qwerty source span the gate originated from
    (threaded all the way from the decorated function's Python AST);
    it is provenance metadata only, so it is excluded from equality —
    two gates that act identically compare equal regardless of origin.
    """

    name: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    ctrl_states: tuple[int, ...] = ()
    condition: Optional[tuple[int, int]] = None
    loc: Optional[SourceSpan] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.name not in KNOWN_GATES:
            raise SimulationError(f"unknown gate {self.name!r}")
        if len(self.targets) != _NUM_TARGETS.get(self.name, 1):
            raise SimulationError(
                f"gate {self.name!r} takes {_NUM_TARGETS.get(self.name, 1)} "
                f"targets, got {len(self.targets)}"
            )
        if self.ctrl_states and len(self.ctrl_states) != len(self.controls):
            raise SimulationError("ctrl_states must match controls")
        if not self.ctrl_states:
            object.__setattr__(self, "ctrl_states", (1,) * len(self.controls))
        # One target and no controls cannot repeat a qubit.
        if self.controls or len(self.targets) > 1:
            touched = self.targets + self.controls
            if len(set(touched)) != len(touched):
                raise SimulationError(
                    f"gate {self.name!r} touches a qubit twice"
                )

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets

    @property
    def num_controls(self) -> int:
        return len(self.controls)

    @property
    def is_symbolic(self) -> bool:
        """Whether any param is an unbound symbolic expression."""
        return any(is_symbolic(p) for p in self.params)

    @property
    def is_clifford(self) -> bool:
        """Whether this is a Clifford gate (T-free), ignoring controls."""
        if self.name in {"x", "y", "z", "h", "s", "sdg", "sx", "sxdg", "swap"}:
            return True
        if self.name in {"t", "tdg"}:
            return False
        if self.name in {"p", "rz", "rx", "ry"}:
            if self.is_symbolic:
                # An unbound angle could take any value; be conservative.
                return False
            theta = self.params[0] % (2 * math.pi)
            quarter = math.pi / 2
            return min(theta % quarter, quarter - theta % quarter) < 1e-12
        return False

    def shifted(self, offset: int) -> "CircuitGate":
        """The same gate with every qubit index shifted by ``offset``."""
        return CircuitGate(
            self.name,
            tuple(q + offset for q in self.targets),
            tuple(q + offset for q in self.controls),
            self.params,
            self.ctrl_states,
            self.condition,
            self.loc,
        )

    def remapped(self, mapping: dict[int, int]) -> "CircuitGate":
        """The same gate with qubits renumbered through ``mapping``."""
        return CircuitGate(
            self.name,
            tuple(mapping[q] for q in self.targets),
            tuple(mapping[q] for q in self.controls),
            self.params,
            self.ctrl_states,
            self.condition,
            self.loc,
        )

    def with_extra_controls(
        self, controls: Iterable[int], states: Iterable[int]
    ) -> "CircuitGate":
        """The same gate with additional (possibly negative) controls."""
        return CircuitGate(
            self.name,
            self.targets,
            self.controls + tuple(controls),
            self.params,
            self.ctrl_states + tuple(states),
            self.condition,
            self.loc,
        )

    def dagger(self) -> "CircuitGate":
        """The adjoint gate."""
        name, params = self.name, self.params
        if name in SELF_ADJOINT:
            return self
        if name in _ADJOINT_NAMES:
            name = _ADJOINT_NAMES[name]
        elif name in {"p", "rx", "ry", "rz"}:
            params = tuple(-p for p in params)
        else:
            raise SimulationError(f"cannot take adjoint of {name!r}")
        return CircuitGate(
            name,
            self.targets,
            self.controls,
            params,
            self.ctrl_states,
            self.condition,
            self.loc,
        )


@dataclass(frozen=True)
class Measurement:
    """Measure ``qubit`` in the standard basis into classical ``bit``."""

    qubit: int
    bit: int
    loc: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Reset:
    """Reset ``qubit`` to |0> (emitted by ``qfree``)."""

    qubit: int
    loc: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass
class Circuit:
    """A flat circuit: qubits, classical bits, and an instruction list.

    Instructions are :class:`CircuitGate`, :class:`Measurement` or
    :class:`Reset` objects in program order.
    """

    num_qubits: int
    num_bits: int = 0
    instructions: list = field(default_factory=list)
    #: Classical bit indices, in order, that form the program output.
    output_bits: list[int] = field(default_factory=list)

    def add(self, instruction) -> None:
        self.instructions.append(instruction)

    @property
    def gates(self) -> list[CircuitGate]:
        return [
            inst for inst in self.instructions if isinstance(inst, CircuitGate)
        ]

    @property
    def measurements(self) -> list[Measurement]:
        return [
            inst for inst in self.instructions if isinstance(inst, Measurement)
        ]

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for gate in self.gates:
            key = gate.name if not gate.controls else f"c{gate.num_controls}{gate.name}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def depth(self) -> int:
        """ASAP circuit depth over gates and measurements."""
        levels: dict[int, int] = {}
        depth = 0
        for inst in self.instructions:
            if isinstance(inst, CircuitGate):
                qubits = inst.qubits
            elif isinstance(inst, Measurement):
                qubits = (inst.qubit,)
            elif hasattr(inst, "qubits"):
                # e.g. a FusedUnitary block from the fusion pass.
                qubits = inst.qubits
            else:
                qubits = (inst.qubit,)
            level = 1 + max((levels.get(q, 0) for q in qubits), default=0)
            for q in qubits:
                levels[q] = level
            depth = max(depth, level)
        return depth

    def t_count(self) -> int:
        """Number of T/Tdg gates plus non-Clifford rotations (each
        counted once; see resources layer for rotation T-costs)."""
        return sum(
            1
            for gate in self.gates
            if not gate.is_clifford and not gate.controls
        ) + sum(1 for gate in self.gates if gate.controls and not gate.is_clifford)


# ----------------------------------------------------------------------
# Symbolic parameters (docs/variational.md).
# ----------------------------------------------------------------------
def circuit_parameters(circuit: Circuit) -> tuple:
    """The distinct unbound :class:`repro.parameters.Parameter` symbols
    appearing in ``circuit``'s gate params, sorted by name."""
    params = []
    for inst in circuit.instructions:
        if isinstance(inst, CircuitGate):
            params.extend(inst.params)
    return parameters_of(params)


def bind_circuit(circuit: Circuit, env, *, partial: bool = False) -> Circuit:
    """A copy of ``circuit`` with symbolic gate params substituted.

    ``env`` maps :class:`~repro.parameters.Parameter` objects or names
    to concrete angles (radians, since gate params are radians).  By
    default every parameter must be covered; ``partial=True`` leaves
    uncovered parameters symbolic.  Gates without symbolic params are
    shared, not copied — binding a 100-point sweep allocates only the
    rotated gates.
    """
    if not partial:
        names = {
            key.name if isinstance(key, Parameter) else str(key)
            for key in env
        }
        missing = [
            p.name for p in circuit_parameters(circuit) if p.name not in names
        ]
        if missing:
            raise QwertyTypeError(
                f"no value bound for parameter(s) {', '.join(missing)}; "
                "pass partial=True to leave them symbolic"
            )

    def bind_param(value):
        if isinstance(value, Parameter):
            value = ParamExpr.of(value)
        if isinstance(value, ParamExpr):
            return value.subs(env) if partial else value.evaluate(env)
        return value

    bound = Circuit(
        circuit.num_qubits,
        circuit.num_bits,
        [],
        list(circuit.output_bits),
    )
    for inst in circuit.instructions:
        if isinstance(inst, CircuitGate) and inst.is_symbolic:
            inst = CircuitGate(
                inst.name,
                inst.targets,
                inst.controls,
                tuple(bind_param(p) for p in inst.params),
                inst.ctrl_states,
                inst.condition,
                inst.loc,
            )
        bound.add(inst)
    return bound
