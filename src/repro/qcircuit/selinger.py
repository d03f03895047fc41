"""Multi-controlled gate decomposition (paper §6.5).

ASDF decomposes multi-controlled gates with Selinger's controlled-iX
scheme [42] to reduce T counts on fault-tolerant hardware: AND chains
are computed into ancillas with *relative-phase* Toffolis (4 T each,
the controlled-iX trick) whose phases cancel on uncomputation, leaving
roughly 8(n-1) T gates per n-controlled X — about half the cost of the
textbook ladder built from full 7-T Toffolis, which is kept here as the
``naive`` mode used by the Qiskit/Quipper-style baselines (§8.3).
"""

from __future__ import annotations

import math

from repro.errors import SynthesisError
from repro.parameters import is_symbolic
from repro.qcircuit.circuit import Circuit, CircuitGate

# Toffoli templates: ``(name, target slot, control slot or None)`` over
# the qubit triple ``(a, b, t)``.  Placing a template builds each gate
# once, already carrying its final condition and source span.
_RELATIVE_TOFFOLI = (
    ("h", 2, None),
    ("t", 2, None),
    ("x", 2, 1),
    ("tdg", 2, None),
    ("x", 2, 0),
    ("t", 2, None),
    ("x", 2, 1),
    ("tdg", 2, None),
    ("h", 2, None),
)

_FULL_TOFFOLI = (
    ("h", 2, None),
    ("x", 2, 1),
    ("tdg", 2, None),
    ("x", 2, 0),
    ("t", 2, None),
    ("x", 2, 1),
    ("tdg", 2, None),
    ("x", 2, 0),
    ("t", 1, None),
    ("t", 2, None),
    ("h", 2, None),
    ("x", 1, 0),
    ("t", 0, None),
    ("tdg", 1, None),
    ("x", 1, 0),
)


def _inverse(template: tuple) -> tuple:
    """The template of the adjoint sequence (both Toffolis use only
    self-adjoint gates and T/Tdg)."""
    adjoint = {"t": "tdg", "tdg": "t"}
    return tuple(
        (adjoint.get(name, name), target, control)
        for name, target, control in reversed(template)
    )


_RELATIVE_TOFFOLI_INVERSE = _inverse(_RELATIVE_TOFFOLI)
_FULL_TOFFOLI_INVERSE = _inverse(_FULL_TOFFOLI)


def _place(
    template: tuple, qubits: tuple, out: list, placed: dict, condition=None, loc=None
) -> None:
    """Append ``template`` over ``qubits`` to ``out``.  ``placed`` maps
    ``(name, target, control)`` to a gate already built with this
    condition and span: a Toffoli repeats some of its own gates and an
    AND ladder's uncompute repeats its compute, so each distinct gate is
    built once and emitted again by reference."""
    for name, target, control in template:
        key = (name, qubits[target], None if control is None else qubits[control])
        gate = placed.get(key)
        if gate is None:
            gate = placed[key] = CircuitGate(
                name,
                (key[1],),
                () if control is None else (key[2],),
                (),
                () if control is None else (1,),
                condition,
                loc,
            )
        out.append(gate)


def relative_phase_toffoli(a: int, b: int, t: int) -> list[CircuitGate]:
    """A controlled-iX-style Toffoli: CCX up to relative phase, 4 T."""
    out: list[CircuitGate] = []
    _place(_RELATIVE_TOFFOLI, (a, b, t), out, {})
    return out


def full_toffoli(a: int, b: int, t: int) -> list[CircuitGate]:
    """The textbook 7-T Toffoli."""
    out: list[CircuitGate] = []
    _place(_FULL_TOFFOLI, (a, b, t), out, {})
    return out


# Single-control decompositions.  Each takes ``g``, the decomposer's
# gate factory, so every gate is built once with the source gate's
# condition and span.
def _cp(g, control: int, target: int, theta: float) -> list[CircuitGate]:
    """Controlled-P(theta)."""
    return [
        g("p", control, params=[theta / 2]),
        g("x", target, (control,)),
        g("p", target, params=[-theta / 2]),
        g("x", target, (control,)),
        g("p", target, params=[theta / 2]),
    ]


def _ch(g, control: int, target: int) -> list[CircuitGate]:
    """Controlled-H (verified against the exact unitary in tests)."""
    return [
        g("s", target),
        g("h", target),
        g("t", target),
        g("x", target, (control,)),
        g("tdg", target),
        g("h", target),
        g("sdg", target),
    ]


def _crz(g, control: int, target: int, theta: float) -> list[CircuitGate]:
    return [
        g("rz", target, params=[theta / 2]),
        g("x", target, (control,)),
        g("rz", target, params=[-theta / 2]),
        g("x", target, (control,)),
    ]


def _cry(g, control: int, target: int, theta: float) -> list[CircuitGate]:
    return [
        g("ry", target, params=[theta / 2]),
        g("x", target, (control,)),
        g("ry", target, params=[-theta / 2]),
        g("x", target, (control,)),
    ]


def _crx(g, control: int, target: int, theta: float) -> list[CircuitGate]:
    return (
        [g("h", target)]
        + _crz(g, control, target, theta)
        + [g("h", target)]
    )


_SINGLE_CONTROL = {
    "z": lambda g, c, t, params: _cp(g, c, t, math.pi),
    "s": lambda g, c, t, params: _cp(g, c, t, math.pi / 2),
    "sdg": lambda g, c, t, params: _cp(g, c, t, -math.pi / 2),
    "t": lambda g, c, t, params: _cp(g, c, t, math.pi / 4),
    "tdg": lambda g, c, t, params: _cp(g, c, t, -math.pi / 4),
    "p": lambda g, c, t, params: _cp(g, c, t, params[0]),
    "h": lambda g, c, t, params: _ch(g, c, t),
    "rz": lambda g, c, t, params: _crz(g, c, t, params[0]),
    "ry": lambda g, c, t, params: _cry(g, c, t, params[0]),
    "rx": lambda g, c, t, params: _crx(g, c, t, params[0]),
    "y": lambda g, c, t, params: [g("sdg", t), g("x", t, (c,)), g("s", t)],
}


class _Decomposer:
    """Emits the decomposition of one source gate at a time into
    ``out``; every emitted gate inherits the source gate's condition
    and provenance span."""

    def __init__(self, num_qubits: int, use_selinger: bool, out: list) -> None:
        self.num_qubits = num_qubits
        # The AND ladder's Toffoli and its uncompute.
        self.ladder = (
            (_RELATIVE_TOFFOLI, _RELATIVE_TOFFOLI_INVERSE)
            if use_selinger
            else (_FULL_TOFFOLI, _FULL_TOFFOLI_INVERSE)
        )
        self.out = out
        self._free: list[int] = []
        self.condition = None
        self.loc = None
        self._placed: dict = {}

    def alloc(self) -> int:
        if self._free:
            return self._free.pop()
        qubit = self.num_qubits
        self.num_qubits += 1
        return qubit

    def free(self, qubit: int) -> None:
        self._free.append(qubit)

    def gate(self, name, target, controls=(), params=()) -> CircuitGate:
        return CircuitGate(
            name,
            (target,),
            tuple(controls),
            # Halved/negated symbolic angles stay symbolic through the
            # decomposition (the ParamExpr arithmetic already happened).
            tuple(p if is_symbolic(p) else float(p) for p in params)
            if params
            else (),
            (1,) * len(controls),
            self.condition,
            self.loc,
        )

    def place(self, template: tuple, qubits: tuple) -> None:
        _place(
            template, qubits, self.out, self._placed, self.condition, self.loc
        )

    def and_ladder(self, controls: list[int]) -> tuple[int, list]:
        """Compute the AND of all controls into a fresh ancilla.

        Returns (result qubit, undo log of Toffoli qubit triples).
        Relative-phase Toffolis are safe here because the exact-inverse
        uncompute cancels their phases (the controlled-iX trick).
        """
        template = self.ladder[0]
        log = []
        current = controls[0]
        for next_control in controls[1:]:
            qubits = (current, next_control, self.alloc())
            self.place(template, qubits)
            log.append(qubits)
            current = qubits[2]
        return current, log

    def undo_ladder(self, log: list) -> None:
        inverse = self.ladder[1]
        for qubits in reversed(log):
            self.place(inverse, qubits)
            self.free(qubits[2])

    def emit(self, gate: CircuitGate) -> None:
        self.condition = gate.condition
        self.loc = gate.loc
        self._placed = {}
        # Normalize negative controls with X conjugation.
        flips = [
            qubit
            for qubit, state in zip(gate.controls, gate.ctrl_states)
            if state == 0
        ]
        for qubit in flips:
            self.out.append(self.gate("x", qubit))
        positive = (1,) * len(gate.controls)
        if gate.ctrl_states != positive:
            gate = CircuitGate(
                gate.name,
                gate.targets,
                gate.controls,
                gate.params,
                positive,
                gate.condition,
                gate.loc,
            )
        self._emit_positive(gate)
        for qubit in reversed(flips):
            self.out.append(self.gate("x", qubit))

    def _emit_positive(self, gate: CircuitGate) -> None:
        controls = list(gate.controls)
        if gate.name == "swap":
            if not controls:
                self.out.append(gate)
                return
            # cswap = CX(b,a) . C^{n+1}X . CX(b,a).
            a, b = gate.targets
            self.out.append(self.gate("x", a, (b,)))
            self._emit_positive(self.gate("x", b, tuple(controls) + (a,)))
            self.out.append(self.gate("x", a, (b,)))
            return
        (target,) = gate.targets
        if not controls:
            self.out.append(gate)
            return
        if gate.name == "x":
            if len(controls) == 1:
                self.out.append(gate)
                return
            if len(controls) == 2:
                self.place(_FULL_TOFFOLI, (controls[0], controls[1], target))
                return
            # AND-ladder the first n-1 controls, then a plain Toffoli.
            result, log = self.and_ladder(controls[:-1])
            self.place(_FULL_TOFFOLI, (result, controls[-1], target))
            self.undo_ladder(log)
            return
        # Other gates: reduce to a single control via the AND ladder.
        if len(controls) == 1:
            builder = _SINGLE_CONTROL.get(gate.name)
            if builder is None:
                raise SynthesisError(
                    f"no controlled decomposition for gate {gate.name!r}"
                )
            self.out.extend(builder(self.gate, controls[0], target, gate.params))
            return
        result, log = self.and_ladder(controls)
        self._emit_positive(
            CircuitGate(
                gate.name,
                (target,),
                (result,),
                gate.params,
                (1,),
                gate.condition,
                gate.loc,
            )
        )
        self.undo_ladder(log)


def decompose_multi_controlled(
    circuit: Circuit, use_selinger: bool = True
) -> Circuit:
    """Rewrite the circuit over {single-qubit gates, CX, SWAP}.

    ``use_selinger=True`` applies the controlled-iX scheme (paper
    §6.5); ``use_selinger=False`` uses full 7-T Toffolis throughout,
    modeling the costlier decompositions of baseline compilers.
    """
    new = Circuit(
        circuit.num_qubits,
        circuit.num_bits,
        output_bits=list(circuit.output_bits),
    )
    decomposer = _Decomposer(circuit.num_qubits, use_selinger, new.instructions)
    for inst in circuit.instructions:
        if isinstance(inst, CircuitGate) and (
            inst.controls or inst.name not in ("x", "swap")
        ):
            decomposer.emit(inst)
        else:
            new.add(inst)
    new.num_qubits = decomposer.num_qubits
    return new
