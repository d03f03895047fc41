"""Gate-level peephole optimizations (paper §6.5).

Implements the common gate-level optimizations of QIRO/QSSA-style
compilers — cancelling adjacent Hermitian pairs, cancelling
adjoint pairs, merging adjacent phase rotations, and rewriting
``H X H -> Z`` / ``H Z H -> X`` — plus the *relaxed* peephole
optimization of Liu, Bello and Zhou [27] shown in paper Fig. 10:
a multi-controlled X targeting a freshly-prepared |-> ancilla becomes a
multi-controlled Z without the ancilla, which is what simplifies
``f.sign`` in Bernstein-Vazirani and Grover's.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.parameters import is_symbolic
from repro.qcircuit.circuit import (
    Circuit,
    CircuitGate,
    Measurement,
    Reset,
)

_ADJOINT_PAIRS = {
    ("s", "sdg"),
    ("sdg", "s"),
    ("t", "tdg"),
    ("tdg", "t"),
    ("sx", "sxdg"),
    ("sxdg", "sx"),
}

_TWO_PI = 2 * math.pi


def _period(gate: CircuitGate) -> float:
    """A rotation's angle period: 2π, but 4π for controlled rx/ry/rz,
    whose 2π rotation is -I — a global phase only when uncontrolled."""
    return 2 * _TWO_PI if gate.controls and gate.name != "p" else _TWO_PI


def _is_zero_angle(angle: float, period: float) -> bool:
    angle %= period
    return abs(angle) < 1e-12 or abs(angle - period) < 1e-12


def _same_wires(a: CircuitGate, b: CircuitGate) -> bool:
    return (
        a.targets == b.targets
        and a.controls == b.controls
        and a.ctrl_states == b.ctrl_states
        and a.condition == b.condition
    )


def _cancels(a: CircuitGate, b: CircuitGate) -> bool:
    if not _same_wires(a, b):
        return False
    if a.name == b.name and a.name in {"x", "y", "z", "h", "swap"}:
        return True
    if (a.name, b.name) in _ADJOINT_PAIRS:
        return True
    if a.name == b.name and a.name in {"p", "rx", "ry", "rz"}:
        total = a.params[0] + b.params[0]
        if is_symbolic(total):
            # An unbound angle sum could be anything; exactly-opposite
            # symbolic angles (theta + -theta) collapse to 0.0 in the
            # ParamExpr arithmetic and never reach this branch.
            return False
        return _is_zero_angle(total, _period(a))
    return False


def _merge(a: CircuitGate, b: CircuitGate) -> CircuitGate | None:
    """Merge two adjacent rotations on the same wires, if possible."""
    if not _same_wires(a, b):
        return None
    if a.name == b.name and a.name in {"p", "rx", "ry", "rz"}:
        # A symbolic sum merges un-normalized (ParamExpr.__mod__ is the
        # identity); a concrete sum normalizes into one period.
        angle = (a.params[0] + b.params[0]) % _period(a)
        return CircuitGate(
            a.name, a.targets, a.controls, (angle,), a.ctrl_states, a.condition,
            loc=a.loc,
        )
    return None


def _is_identity(gate: CircuitGate) -> bool:
    if gate.name in {"p", "rx", "ry", "rz"}:
        if gate.is_symbolic:
            return False
        return _is_zero_angle(gate.params[0], _period(gate))
    return False


class _Window:
    """Streaming peephole over per-qubit stacks of live output indices.

    ``wire[q]`` holds, in program order, the ``out`` indices of the live
    instructions touching qubit ``q``, so its top is the last live op on
    the wire.  Every gate the window kills is the top of each of its
    wires' stacks — cancel and merge need the same top on every wire of
    the gate, and H·X·H needs the controls untouched since the
    sandwiched gate, with the outer H directly below it on the target —
    so a kill is one pop per wire and the pass costs O(ops × qubits per
    gate).

    Because every kill takes a top, the gates below a surviving gate on
    its own wires are the same when it is pushed as at the end of the
    sweep, so re-sweeping the output repeats every decision — except
    the H·X·H control-wire check, which reads wires the closing H does
    not touch.  ``settled`` turns False when that check alone refused a
    match: a later kill of the live control-wire op can expose it.
    Example: ``H(1), CX(0→1), T(0), H(1), Tdg(0)`` keeps ``H·CX·H``
    (``T(0)`` is live when the closing H arrives), and only a second
    sweep turns it into ``CZ``.
    """

    def __init__(self) -> None:
        self.out: list = []
        self.wire: defaultdict[int, list[int]] = defaultdict(list)
        self.settled = True

    def _append(self, inst, qubits) -> None:
        index = len(self.out)
        self.out.append(inst)
        for qubit in qubits:
            self.wire[qubit].append(index)

    def _kill(self, index: int, qubits) -> None:
        self.out[index] = None
        for qubit in qubits:
            self.wire[qubit].pop()

    def _prev_index(self, qubits: tuple) -> int | None:
        index = None
        for qubit in qubits:
            stack = self.wire.get(qubit)
            if not stack:
                return None
            if index is None:
                index = stack[-1]
            elif stack[-1] != index:
                return None
        prev = self.out[index]
        # ``prev`` tops every wire in ``qubits``, so it touches all of
        # them: the qubit sets are equal exactly when the sizes are.
        if not isinstance(prev, CircuitGate) or len(prev.qubits) != len(qubits):
            return None
        return index

    def push(self, inst) -> None:
        if isinstance(inst, (Measurement, Reset)):
            self._append(inst, (inst.qubit,))
            return
        gate: CircuitGate = inst
        if gate.params and _is_identity(gate):
            return
        qubits = gate.qubits
        prev_index = self._prev_index(qubits)
        if prev_index is not None:
            prev = self.out[prev_index]
            if _cancels(prev, gate):
                self._kill(prev_index, prev.qubits)
                return
            merged = _merge(prev, gate)
            if merged is not None:
                self._kill(prev_index, prev.qubits)
                self.push(merged)
                return
        if self._try_hxh(gate):
            return
        self._append(gate, qubits)

    def _try_hxh(self, gate: CircuitGate) -> bool:
        """H (X|Z) H on one target -> swap X and Z, dropping both H.

        The sandwiched gate may carry controls (H CX H = CZ); only the
        *target* wire must be exactly H-then-gate with no interleaving.
        """
        if (
            gate.name != "h"
            or gate.controls
            or gate.condition is not None
        ):
            return False
        target = gate.targets[0]
        stack = self.wire.get(target)
        if stack is None or len(stack) < 2:
            return False
        before_index, prev_index = stack[-2:]
        prev = self.out[prev_index]
        if not (
            isinstance(prev, CircuitGate)
            and prev.name in {"x", "z"}
            and prev.targets == gate.targets
            and prev.condition is None
            and target not in prev.controls
        ):
            return False
        before = self.out[before_index]
        if not (
            isinstance(before, CircuitGate)
            and before.name == "h"
            and before.targets == gate.targets
            and not before.controls
            and before.condition is None
        ):
            return False
        # The controls of the sandwiched gate must not be touched
        # between the two H gates (only `prev` sits between them on the
        # target wire; check control wires saw nothing since `prev`).
        for control in prev.controls:
            if self.wire[control][-1] != prev_index:
                self.settled = False
                return False
        self._kill(prev_index, prev.qubits)
        self._kill(before_index, before.qubits)
        self.push(
            CircuitGate(
                "z" if prev.name == "x" else "x",
                prev.targets,
                prev.controls,
                (),
                prev.ctrl_states,
                loc=prev.loc,
            )
        )
        return True

    def result(self) -> list:
        return [inst for inst in self.out if inst is not None]


def _cancellation_pass(instructions: list) -> tuple[list, bool]:
    """One window sweep: the surviving list, and whether it is settled
    (a second sweep would leave it unchanged).  A sweep that changes
    anything drops an op, so an unshortened list is settled too."""
    window = _Window()
    for inst in instructions:
        window.push(inst)
    out = window.result()
    return out, window.settled or len(out) == len(instructions)


def _mcz_from_mcx(mcx: CircuitGate) -> list[CircuitGate]:
    """An MCX whose target is |-> equals an MCZ on its controls."""
    positive = [
        (c, s) for c, s in zip(mcx.controls, mcx.ctrl_states) if s == 1
    ]
    if positive:
        target = positive[0][0]
        rest = [
            (c, s) for c, s in zip(mcx.controls, mcx.ctrl_states) if c != target
        ]
        return [
            CircuitGate(
                "z",
                (target,),
                tuple(c for c, _ in rest),
                (),
                tuple(s for _, s in rest),
                loc=mcx.loc,
            )
        ]
    # All negative controls: X-conjugate one of them.
    target = mcx.controls[0]
    rest = list(zip(mcx.controls, mcx.ctrl_states))[1:]
    return [
        CircuitGate("x", (target,), loc=mcx.loc),
        CircuitGate(
            "z",
            (target,),
            tuple(c for c, _ in rest),
            (),
            tuple(s for _, s in rest),
            loc=mcx.loc,
        ),
        CircuitGate("x", (target,), loc=mcx.loc),
    ]


def _relaxed_peephole_pass(
    circuit_num_qubits: int, instructions: list
) -> tuple[list, bool]:
    """Paper Fig. 10: MCX onto a |-> ancilla becomes MCZ, ancilla freed.

    Per qubit q, scans its op sequence for segments [X, H, MCX(target
    q)..., H, X] starting where q is known to be |0> (the first op on
    the wire, right after a Reset, or right after a previous matched
    segment), and rewrites each MCX into an MCZ on its controls.
    Returns the rewritten list and whether anything matched; the
    length alone cannot tell, since a segment with two all-negative
    MCXs rewrites six ops into six.
    """
    ops_by_qubit: dict[int, list[int]] = {}
    for index, inst in enumerate(instructions):
        qubits = (
            inst.qubits if isinstance(inst, CircuitGate) else (inst.qubit,)
        )
        for qubit in qubits:
            ops_by_qubit.setdefault(qubit, []).append(index)

    to_drop: set[int] = set()
    to_replace: dict[int, list[CircuitGate]] = {}

    for qubit, indices in ops_by_qubit.items():

        def is_plain(index, name):
            inst = instructions[index]
            return (
                isinstance(inst, CircuitGate)
                and inst.name == name
                and inst.targets == (qubit,)
                and not inst.controls
                and inst.condition is None
            )

        def is_mcx_target(index):
            inst = instructions[index]
            return (
                isinstance(inst, CircuitGate)
                and inst.name == "x"
                and inst.targets == (qubit,)
                and inst.controls
                and qubit not in inst.controls
                and inst.condition is None
            )

        position = 0
        known_zero = True  # All qubits start in |0>.
        while position < len(indices):
            if not known_zero:
                inst = instructions[indices[position]]
                if isinstance(inst, Reset):
                    known_zero = True
                position += 1
                continue
            # Try to match X, H, MCX+, H, X from here.
            if (
                position + 4 < len(indices)
                and is_plain(indices[position], "x")
                and is_plain(indices[position + 1], "h")
            ):
                scan = position + 2
                mcx_positions = []
                while scan < len(indices) and is_mcx_target(indices[scan]):
                    mcx_positions.append(scan)
                    scan += 1
                if (
                    mcx_positions
                    and scan + 1 < len(indices)
                    and is_plain(indices[scan], "h")
                    and is_plain(indices[scan + 1], "x")
                ):
                    to_drop.update(
                        (
                            indices[position],
                            indices[position + 1],
                            indices[scan],
                            indices[scan + 1],
                        )
                    )
                    for mcx_position in mcx_positions:
                        mcx = instructions[indices[mcx_position]]
                        to_replace[indices[mcx_position]] = _mcz_from_mcx(mcx)
                    position = scan + 2
                    continue  # Still |0> after the segment.
            known_zero = False
            position += 1

    if not to_drop:
        return instructions, False
    out: list = []
    for index, inst in enumerate(instructions):
        if index in to_replace:
            out.extend(to_replace[index])
        elif index not in to_drop:
            out.append(inst)
    return out, True


def _dead_reset_pass(instructions: list) -> list:
    """Drop Reset instructions with no later operation on the wire.

    A reset exists to return a qubit to the ancilla pool; at the end of
    the program it is dead code (real toolchains' assembly ends at the
    final measurement, so this also keeps op counts comparable).  The
    backward scan stops once every reset wire has a later live op.
    """
    pending = {inst.qubit for inst in instructions if isinstance(inst, Reset)}
    dead: set[int] = set()
    position = len(instructions)
    while pending and position:
        position -= 1
        inst = instructions[position]
        if isinstance(inst, Reset) and inst.qubit in pending:
            dead.add(position)
        elif isinstance(inst, CircuitGate):
            pending.difference_update(inst.qubits)
        else:
            pending.discard(inst.qubit)
    if not dead:
        return instructions
    return [inst for index, inst in enumerate(instructions) if index not in dead]


def compact_qubits(circuit: Circuit) -> Circuit:
    """Renumber qubits so unused wires (freed ancillas) disappear."""
    used: set[int] = set()
    for inst in circuit.instructions:
        if isinstance(inst, CircuitGate):
            used.update(inst.qubits)
        else:
            used.add(inst.qubit)
    new = Circuit(
        len(used), circuit.num_bits, output_bits=list(circuit.output_bits)
    )
    if not used or max(used) == len(used) - 1:
        # Wires 0..k-1 are all in use: the renumbering is the identity.
        new.instructions = list(circuit.instructions)
        return new
    mapping = {old: index for index, old in enumerate(sorted(used))}
    for inst in circuit.instructions:
        if isinstance(inst, CircuitGate):
            new.add(inst.remapped(mapping))
        elif isinstance(inst, Measurement):
            new.add(Measurement(mapping[inst.qubit], inst.bit, loc=inst.loc))
        else:
            new.add(Reset(mapping[inst.qubit], loc=inst.loc))
    return new


def run_peephole(
    circuit: Circuit, relaxed: bool = True, max_iterations: int = 10
) -> Circuit:
    """Run all peephole passes to a fixpoint (paper §6.5).

    Each round runs the relaxed pass (if on), one window sweep and the
    dead-reset pass, for at most ``max_iterations`` rounds.  A sweep's
    output is a fixpoint of the window unless the sweep refused an
    H·(X|Z)·H only because a control wire was busy (see
    :class:`_Window`), so rounds stop once a sweep is settled, the
    dead-reset pass dropped nothing after it, and the next relaxed pass
    matched nothing: another round would change nothing.
    """
    instructions = list(circuit.instructions)
    settled = False
    for _ in range(max_iterations):
        # Relaxed peephole first: the generic H-X-H rewrite would
        # otherwise consume the |-> shell and hide the Fig. 10 pattern.
        if relaxed:
            instructions, changed = _relaxed_peephole_pass(
                circuit.num_qubits, instructions
            )
            if settled and not changed:
                break
        elif settled:
            break
        instructions, settled = _cancellation_pass(instructions)
        before = len(instructions)
        instructions = _dead_reset_pass(instructions)
        settled = settled and len(instructions) == before
    out = Circuit(
        circuit.num_qubits,
        circuit.num_bits,
        instructions,
        list(circuit.output_bits),
    )
    return compact_qubits(out)
