"""Tests for peephole and relaxed peephole optimizations (paper §6.5)."""

import math

import numpy as np

from repro.evaluation import asdf_kernel
from repro.qcircuit import (
    Circuit,
    CircuitGate,
    decompose_multi_controlled,
    run_peephole,
)
from repro.qcircuit import peephole
from repro.qcircuit.circuit import Measurement
from repro.qcircuit.peephole import _Window
from repro.sim import unitary_of_gates


def g(name, targets, controls=(), params=(), ctrl_states=()):
    return CircuitGate(
        name, tuple(targets), tuple(controls), tuple(params), tuple(ctrl_states)
    )


def make(num_qubits, gates):
    circuit = Circuit(num_qubits)
    for gate in gates:
        circuit.add(gate)
    return circuit


def test_adjacent_hermitian_cancel():
    out = run_peephole(make(1, [g("h", [0]), g("h", [0])]))
    assert out.gates == []


def test_adjacent_hermitian_controlled_cancel():
    # Paper Fig. 7: adjacent controlled-Hadamards cancel.
    gates = [
        g("h", [1], controls=[0]),
        g("h", [1], controls=[0]),
    ]
    assert run_peephole(make(2, gates)).gates == []


def test_non_matching_controls_do_not_cancel():
    gates = [
        g("h", [1], controls=[0]),
        g("h", [1], controls=[0], ctrl_states=[0]),
    ]
    assert len(run_peephole(make(2, gates)).gates) == 2


def test_adjoint_pairs_cancel():
    assert run_peephole(make(1, [g("s", [0]), g("sdg", [0])])).gates == []
    assert run_peephole(make(1, [g("t", [0]), g("tdg", [0])])).gates == []


def test_intervening_gate_blocks_cancellation():
    gates = [g("h", [0]), g("x", [0]), g("h", [0])]
    out = run_peephole(make(1, gates))
    # Not cancelled, but rewritten HXH -> Z.
    assert [gate.name for gate in out.gates] == ["z"]


def test_hzh_becomes_x():
    out = run_peephole(make(1, [g("h", [0]), g("z", [0]), g("h", [0])]))
    assert [gate.name for gate in out.gates] == ["x"]


def test_hxh_controlled_becomes_cz():
    gates = [g("h", [1]), g("x", [1], controls=[0]), g("h", [1])]
    out = run_peephole(make(2, gates))
    assert [gate.name for gate in out.gates] == ["z"]
    assert out.gates[0].controls == (0,)


def test_refused_hxh_leaves_the_sweep_unsettled():
    # T(0) is live on the control when the closing H arrives, so one
    # sweep keeps H·CX·H; Tdg(0) then cancels T(0), and only a second
    # sweep sees the sandwich and makes it CZ.
    gates = [
        g("h", [1]),
        g("x", [1], controls=[0]),
        g("t", [0]),
        g("h", [1]),
        g("tdg", [0]),
    ]
    window = _Window()
    for gate in gates:
        window.push(gate)
    assert window.result() == gates[:2] + gates[3:4]
    assert not window.settled
    out = run_peephole(make(2, gates), relaxed=False)
    assert out.gates == [g("z", [1], controls=[0])]


def test_strict_peephole_sweeps_selinger_grover_once(monkeypatch):
    optimized = asdf_kernel("grover", 32).compile().optimized_circuit
    decomposed = decompose_multi_controlled(optimized, use_selinger=True)
    sweeps = []
    sweep = peephole._cancellation_pass

    def counting_sweep(instructions):
        sweeps.append(len(instructions))
        return sweep(instructions)

    monkeypatch.setattr(peephole, "_cancellation_pass", counting_sweep)
    out = run_peephole(decomposed, relaxed=False)
    assert sweeps == [len(decomposed.instructions)]
    assert len(out.instructions) < len(decomposed.instructions)


def test_phase_rotations_merge():
    gates = [g("p", [0], params=[0.3]), g("p", [0], params=[0.4])]
    out = run_peephole(make(1, gates))
    assert len(out.gates) == 1
    assert math.isclose(out.gates[0].params[0], 0.7)


def test_opposite_rotations_cancel():
    gates = [g("rz", [0], params=[0.3]), g("rz", [0], params=[-0.3])]
    assert run_peephole(make(1, gates)).gates == []


def test_identity_rotation_dropped():
    assert run_peephole(make(1, [g("p", [0], params=[0.0])])).gates == []


def test_cascading_cancellation():
    # X H H X: inner pair cancels, then the outer pair cancels.
    gates = [g("x", [0]), g("h", [0]), g("h", [0]), g("x", [0])]
    assert run_peephole(make(1, gates)).gates == []


def test_relaxed_peephole_fig10():
    # Paper Fig. 10: X, H on a fresh ancilla; MCX onto it; H, X ->
    # multi-controlled Z without the ancilla.
    gates = [
        g("x", [2]),
        g("h", [2]),
        g("x", [2], controls=[0, 1]),
        g("h", [2]),
        g("x", [2]),
    ]
    out = run_peephole(make(3, gates))
    assert len(out.gates) == 1
    gate = out.gates[0]
    assert gate.name == "z"
    assert len(gate.controls) == 1
    # The ancilla wire disappeared entirely.
    assert out.num_qubits == 2


def test_relaxed_peephole_preserves_semantics():
    gates = [
        g("x", [2]),
        g("h", [2]),
        g("x", [2], controls=[0, 1]),
        g("h", [2]),
        g("x", [2]),
    ]
    original = unitary_of_gates(gates, 3)
    out = run_peephole(make(3, gates))
    ccz_like = unitary_of_gates(out.gates, 2)
    # Original acts as CCZ on the ancilla-|0> sector (the ancilla is
    # qubit 2, the least significant bit).
    sector = original[0::2, 0::2]
    assert np.allclose(sector, ccz_like)


def test_relaxed_peephole_repeated_segments():
    # Grover-style: the same ancilla wire hosts several sign flips,
    # interleaved with diffuser-like gates that block cancellation.
    gates = []
    for _ in range(3):
        gates += [
            g("x", [2]),
            g("h", [2]),
            g("x", [2], controls=[0, 1]),
            g("h", [2]),
            g("x", [2]),
            g("h", [0]),
            g("h", [1]),
        ]
    out = run_peephole(make(3, gates))
    # The ancilla wire is eliminated entirely...
    assert out.num_qubits == 2
    assert all(not gate.controls or gate.name != "x" or True for gate in out.gates)
    # ...and the optimized circuit matches the original on the
    # ancilla-|0> sector.
    original = unitary_of_gates(gates, 3)
    optimized = unitary_of_gates(out.gates, 2)
    assert np.allclose(original[0::2, 0::2], optimized)


def test_relaxed_peephole_negative_controls():
    gates = [
        g("x", [1]),
        g("h", [1]),
        g("x", [1], controls=[0], ctrl_states=[0]),
        g("h", [1]),
        g("x", [1]),
    ]
    out = run_peephole(make(2, gates))
    names = [gate.name for gate in out.gates]
    assert "z" in names
    assert out.num_qubits == 1


def test_relaxed_peephole_not_applied_to_dirty_qubit():
    # The target qubit is NOT freshly |0> (an H ran first).
    gates = [
        g("h", [2]),
        g("x", [2]),
        g("h", [2]),
        g("x", [2], controls=[0, 1]),
        g("h", [2]),
        g("x", [2]),
    ]
    out = run_peephole(make(3, gates))
    assert any(gate.name == "x" and gate.controls for gate in out.gates)


def test_measurements_block_window():
    circuit = Circuit(1, 1)
    circuit.add(g("x", [0]))
    circuit.add(Measurement(0, 0))
    circuit.add(g("x", [0]))
    out = run_peephole(circuit)
    assert len(out.gates) == 2


def test_peephole_preserves_unitary_random():
    import itertools

    rng = np.random.default_rng(7)
    names = ["x", "h", "s", "t", "z", "sdg", "tdg"]
    for trial in range(20):
        # Pin both wires with un-cancellable rotations so compaction
        # cannot renumber them.
        gates = [g("p", [0], params=[0.123]), g("p", [1], params=[0.123])]
        for _ in range(12):
            name = names[rng.integers(len(names))]
            qubit = int(rng.integers(2))
            gates.append(g(name, [qubit]))
        out = run_peephole(make(2, gates))
        before = unitary_of_gates(gates, 2)
        after = unitary_of_gates(out.gates, 2)
        assert np.allclose(before, after)
