"""Property tests for the peephole cancellation window.

Random gate-only circuits on up to 4 qubits, built from blocks that
drive every rewrite the window performs on multi-wire gates: controlled
and negative-control gates, rotation runs that merge and then cancel,
and H·CX·H / H·CZ·H sandwiches whose control wire is or is not touched
between the two H gates, the touch possibly undone after them.  Each
wire starts with an ``sx`` pin that no random gate can cancel (the pool
has no ``sxdg``), so compaction never renumbers wires and unitaries
compare directly.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.qcircuit import Circuit, CircuitGate, run_peephole
from repro.qcircuit.peephole import _Window
from repro.sim import unitary_of_gates

SINGLE = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")
ROTATIONS = ("p", "rx", "ry", "rz")
ANGLES = (0.3, 0.7, math.pi / 2, math.pi, -1.1, 2 * math.pi - 0.3)


def _wires(draw, num_qubits, count):
    return draw(
        st.permutations(range(num_qubits)).map(lambda p: tuple(p[:count]))
    )


def _controls(draw, wires):
    return wires, tuple(draw(st.sampled_from((0, 1))) for _ in wires)


@st.composite
def _block(draw, num_qubits):
    kind = draw(
        st.sampled_from(("single", "controlled", "rotations", "sandwich"))
    )
    if kind == "single":
        (qubit,) = _wires(draw, num_qubits, 1)
        return [CircuitGate(draw(st.sampled_from(SINGLE)), (qubit,))]
    if kind == "controlled":
        count = draw(st.integers(2, num_qubits))
        target, *rest = _wires(draw, num_qubits, count)
        controls, states = _controls(draw, tuple(rest))
        name = draw(st.sampled_from(SINGLE + ("swap",)))
        if name == "swap":
            target = (target, controls[0])
            controls, states = controls[1:], states[1:]
        else:
            target = (target,)
        gate = CircuitGate(name, target, controls, (), states)
        return [gate] * draw(st.integers(1, 2))
    if kind == "rotations":
        count = draw(st.integers(1, num_qubits))
        target, *rest = _wires(draw, num_qubits, count)
        controls, states = _controls(draw, tuple(rest))
        name = draw(st.sampled_from(ROTATIONS))
        angles = draw(st.lists(st.sampled_from(ANGLES), min_size=1, max_size=3))
        if draw(st.booleans()):
            angles.append(-sum(angles))  # merge, then cancel to identity
        return [
            CircuitGate(name, (target,), controls, (angle,), states)
            for angle in angles
        ]
    # H (X|Z) H on a target, the middle gate controlled; optionally
    # touch the control between the sandwiched gate and the closing H,
    # and optionally undo that touch after the closing H, so only a
    # second window sweep finds the sandwich.
    target, control = _wires(draw, num_qubits, 2)
    state = draw(st.sampled_from((0, 1)))
    middle = CircuitGate(
        draw(st.sampled_from(("x", "z"))), (target,), (control,), (), (state,)
    )
    gates = [CircuitGate("h", (target,)), middle]
    touch = None
    if draw(st.booleans()):
        touch = CircuitGate(draw(st.sampled_from(SINGLE)), (control,))
        gates.append(touch)
    gates.append(CircuitGate("h", (target,)))
    if touch is not None and draw(st.booleans()):
        gates.append(touch.dagger())
    return gates


@st.composite
def circuits(draw):
    num_qubits = draw(st.integers(2, 4))
    blocks = draw(st.lists(_block(num_qubits), min_size=1, max_size=10))
    circuit = Circuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.add(CircuitGate("sx", (qubit,)))
    for block in blocks:
        for gate in block:
            circuit.add(gate)
    return circuit


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_strict_peephole_preserves_unitary(circuit):
    out = run_peephole(circuit, relaxed=False)
    assert out.num_qubits == circuit.num_qubits
    before = unitary_of_gates(circuit.gates, circuit.num_qubits)
    after = unitary_of_gates(out.gates, out.num_qubits)
    # rx/ry/rz(2π) = -I: cancelling such pairs is exact up to a global
    # phase only.
    pivot = np.unravel_index(np.argmax(np.abs(before)), before.shape)
    phase = after[pivot] / before[pivot]
    assert np.isclose(abs(phase), 1.0)
    assert np.allclose(after, phase * before)


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_window_stacks_hold_exactly_the_live_ops(circuit):
    # The stacks are the window's only record of wire state: after
    # every push, wire[q] lists the live output indices touching q.
    window = _Window()
    for gate in circuit.instructions:
        window.push(gate)
        expected: dict = {}
        for index, inst in enumerate(window.out):
            if inst is not None:
                for qubit in inst.qubits:
                    expected.setdefault(qubit, []).append(index)
        assert {q: s for q, s in window.wire.items() if s} == expected


@settings(max_examples=150, deadline=None)
@given(circuits(), st.booleans())
def test_peephole_is_idempotent(circuit, relaxed):
    once = run_peephole(circuit, relaxed=relaxed)
    twice = run_peephole(once, relaxed=relaxed)
    assert twice.num_qubits == once.num_qubits
    assert twice.instructions == once.instructions
