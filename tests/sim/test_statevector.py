"""Tests for the statevector helpers and one-trajectory (1-row) runs of
the engine, :class:`repro.sim.BatchedStatevector`."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.sim import (
    MAX_STATEVECTOR_QUBITS,
    BatchedStatevector,
    apply_gates_to_state,
    run_circuit,
    unitary_of_gates,
)


def g(name, targets, controls=(), params=(), ctrl_states=(), condition=None):
    return CircuitGate(
        name,
        tuple(targets),
        tuple(controls),
        tuple(params),
        tuple(ctrl_states),
        condition,
    )


def test_x_flips():
    state = apply_gates_to_state([g("x", [0])], 1)
    assert np.allclose(state, [0, 1])


def test_h_superposition():
    state = apply_gates_to_state([g("h", [0])], 1)
    assert np.allclose(state, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_qubit0_is_most_significant():
    state = apply_gates_to_state([g("x", [0])], 2)
    # |10>: index 2.
    assert np.allclose(state, [0, 0, 1, 0])
    state = apply_gates_to_state([g("x", [1])], 2)
    assert np.allclose(state, [0, 1, 0, 0])


def test_cx():
    # CX with control qubit 0: |10> -> |11>.
    gates = [g("x", [0]), g("x", [1], controls=[0])]
    state = apply_gates_to_state(gates, 2)
    assert np.allclose(state, [0, 0, 0, 1])
    # Control not satisfied: |01> stays.
    gates = [g("x", [1]), g("x", [0], controls=[1], ctrl_states=[0])]
    state = apply_gates_to_state(gates, 2)
    assert np.allclose(state, [0, 1, 0, 0])


def test_negative_control():
    # Control on |0>: fires when control qubit is 0.
    gates = [g("x", [1], controls=[0], ctrl_states=[0])]
    state = apply_gates_to_state(gates, 2)
    assert np.allclose(state, [0, 1, 0, 0])


def test_toffoli():
    gates = [
        g("x", [0]),
        g("x", [1]),
        g("x", [2], controls=[0, 1]),
    ]
    state = apply_gates_to_state(gates, 3)
    assert np.allclose(state, [0, 0, 0, 0, 0, 0, 0, 1])


def test_swap():
    gates = [g("x", [0]), g("swap", [0, 1])]
    state = apply_gates_to_state(gates, 2)
    assert np.allclose(state, [0, 1, 0, 0])


def test_controlled_swap():
    # Fredkin: control 0 set -> swap 1, 2.
    gates = [g("x", [0]), g("x", [1]), g("swap", [1, 2], controls=[0])]
    state = apply_gates_to_state(gates, 3)
    # |101>: index 5.
    assert np.allclose(state, [0, 0, 0, 0, 0, 1, 0, 0])


def test_phase_gate():
    gates = [g("x", [0]), g("p", [0], params=[math.pi / 2])]
    state = apply_gates_to_state(gates, 1)
    assert np.allclose(state, [0, 1j])


def test_hxh_equals_z():
    hxh = unitary_of_gates([g("h", [0]), g("x", [0]), g("h", [0])], 1)
    z = unitary_of_gates([g("z", [0])], 1)
    assert np.allclose(hxh, z)


def test_s_t_relations():
    t_squared = unitary_of_gates([g("t", [0]), g("t", [0])], 1)
    s = unitary_of_gates([g("s", [0])], 1)
    assert np.allclose(t_squared, s)
    sdg_s = unitary_of_gates([g("sdg", [0]), g("s", [0])], 1)
    assert np.allclose(sdg_s, np.eye(2))


def test_rotation_gates_unitary():
    for name in ("rx", "ry", "rz"):
        u = unitary_of_gates([g(name, [0], params=[0.7])], 1)
        assert np.allclose(u @ u.conj().T, np.eye(2))


def trajectory(num_qubits, seed=0):
    """One trajectory: a 1-row batch with its own seeded generator."""
    return BatchedStatevector(
        1, num_qubits, rng=np.random.default_rng(seed)
    )


def test_deterministic_measurement():
    sim = trajectory(1)
    sim.apply_gate(g("x", [0]))
    assert sim.measure(0).tolist() == [1]


def test_measurement_collapse():
    sim = trajectory(2, seed=3)
    sim.apply_gate(g("h", [0]))
    sim.apply_gate(g("x", [1], controls=[0]))
    outcome = sim.measure(0)
    # Bell state: second qubit must agree.
    assert sim.measure(1).tolist() == outcome.tolist()


def test_measurement_statistics():
    ones = 0
    for seed in range(200):
        sim = trajectory(1, seed=seed)
        sim.apply_gate(g("h", [0]))
        ones += int(sim.measure(0)[0])
    assert 60 < ones < 140


def test_reset():
    sim = trajectory(1)
    sim.apply_gate(g("x", [0]))
    sim.reset(0)
    assert np.allclose(sim.state[0], [1, 0])


def test_conditioned_gate():
    circuit = Circuit(num_qubits=2, num_bits=2)
    circuit.add(g("x", [0]))
    circuit.add(Measurement(0, 0))
    circuit.add(g("x", [1], condition=(0, 1)))
    circuit.add(Measurement(1, 1))
    (result,) = run_circuit(circuit)
    assert result == (1, 1)


def test_conditioned_gate_not_taken():
    circuit = Circuit(num_qubits=2, num_bits=2)
    circuit.add(Measurement(0, 0))
    circuit.add(g("x", [1], condition=(0, 1)))
    circuit.add(Measurement(1, 1))
    (result,) = run_circuit(circuit)
    assert result == (0, 0)


def test_run_circuit_output_bits():
    circuit = Circuit(num_qubits=1, num_bits=2, output_bits=[1])
    circuit.add(g("x", [0]))
    circuit.add(Measurement(0, 1))
    (result,) = run_circuit(circuit)
    assert result == (1,)


def test_too_many_qubits_rejected():
    with pytest.raises(SimulationError):
        trajectory(40)
    with pytest.raises(SimulationError, match="dense-simulation"):
        trajectory(MAX_STATEVECTOR_QUBITS + 1)


def test_reset_instruction():
    circuit = Circuit(num_qubits=1, num_bits=1)
    circuit.add(g("x", [0]))
    circuit.add(Reset(0))
    circuit.add(Measurement(0, 0))
    (result,) = run_circuit(circuit)
    assert result == (0,)
