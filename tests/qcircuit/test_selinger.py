"""Tests for multi-controlled gate decomposition (paper §6.5)."""

import math

import numpy as np
import pytest

from repro.errors import SourceSpan
from repro.qcircuit import Circuit, CircuitGate, decompose_multi_controlled
from repro.qcircuit.selinger import full_toffoli, relative_phase_toffoli
from repro.sim import unitary_of_gates


def g(name, targets, controls=(), params=(), ctrl_states=()):
    return CircuitGate(
        name, tuple(targets), tuple(controls), tuple(params), tuple(ctrl_states)
    )


def mc_unitary(name, num_controls, params=(), ctrl_states=None):
    """Reference unitary of an n-controlled gate via the simulator."""
    gate = g(
        name,
        [num_controls] if name != "swap" else [num_controls, num_controls + 1],
        controls=range(num_controls),
        params=params,
        ctrl_states=ctrl_states or (),
    )
    targets = 2 if name == "swap" else 1
    return unitary_of_gates([gate], num_controls + targets), gate


def check_decomposition(name, num_controls, params=(), ctrl_states=None,
                        use_selinger=True):
    expected, gate = mc_unitary(name, num_controls, params, ctrl_states)
    targets = 2 if name == "swap" else 1
    circuit = Circuit(num_controls + targets)
    circuit.add(gate)
    out = decompose_multi_controlled(circuit, use_selinger=use_selinger)
    # No multi-controlled gates remain.
    assert all(len(gate.controls) <= 1 for gate in out.gates)
    assert all(
        not gate.controls or gate.name == "x" for gate in out.gates
    )
    got = unitary_of_gates(out.gates, out.num_qubits)
    # Compare on the sector where ancillas are |0>.
    dim = 2 ** (num_controls + targets)
    stride = 2 ** (out.num_qubits - num_controls - targets)
    got_sector = got[::stride, ::stride]
    assert np.allclose(got_sector, expected, atol=1e-9), name
    # Ancillas must be returned to |0>: columns map sector to sector.
    full_cols = got[:, ::stride]
    assert np.allclose(
        np.abs(full_cols[::stride, :]), np.abs(expected), atol=1e-9
    )
    return out


def test_full_toffoli_exact():
    got = unitary_of_gates(full_toffoli(0, 1, 2), 3)
    expected, _ = mc_unitary("x", 2)
    assert np.allclose(got, expected)


def test_relative_phase_toffoli_is_ccx_up_to_phase():
    got = unitary_of_gates(relative_phase_toffoli(0, 1, 2), 3)
    expected, _ = mc_unitary("x", 2)
    # Same absolute amplitudes (a relative-phase Toffoli).
    assert np.allclose(np.abs(got), np.abs(expected))
    # And compute/uncompute cancels the phases exactly.
    roundtrip = unitary_of_gates(
        relative_phase_toffoli(0, 1, 2)
        + [gate.dagger() for gate in reversed(relative_phase_toffoli(0, 1, 2))],
        3,
    )
    assert np.allclose(roundtrip, np.eye(8))


def test_ccx_decomposition():
    check_decomposition("x", 2)


def test_c3x_decomposition():
    check_decomposition("x", 3)


def test_c4x_decomposition():
    check_decomposition("x", 4)


def test_c3x_naive_decomposition():
    check_decomposition("x", 3, use_selinger=False)


def test_selinger_beats_naive_t_count():
    circuit = Circuit(6)
    circuit.add(g("x", [5], controls=[0, 1, 2, 3, 4]))
    selinger = decompose_multi_controlled(circuit, use_selinger=True)
    naive = decompose_multi_controlled(circuit, use_selinger=False)

    def t_count(c):
        return sum(1 for gate in c.gates if gate.name in ("t", "tdg"))

    assert t_count(selinger) < t_count(naive)


def test_negative_controls():
    check_decomposition("x", 2, ctrl_states=(0, 1))
    check_decomposition("x", 3, ctrl_states=(0, 0, 1))


def test_controlled_z():
    check_decomposition("z", 1)
    check_decomposition("z", 2)


def test_controlled_h():
    check_decomposition("h", 1)
    check_decomposition("h", 2)


def test_controlled_phase():
    check_decomposition("p", 1, params=(math.pi / 3,))
    check_decomposition("p", 2, params=(0.7,))


def test_controlled_rotations():
    check_decomposition("ry", 1, params=(0.9,))
    check_decomposition("rx", 1, params=(1.1,))


def test_controlled_rz_up_to_phase():
    # CRZ decomposition is exact (not merely up to phase).
    check_decomposition("rz", 1, params=(0.5,))


def test_controlled_s():
    check_decomposition("s", 1)
    check_decomposition("sdg", 1)


def test_controlled_y():
    check_decomposition("y", 1)


def test_controlled_swap():
    check_decomposition("swap", 1)
    check_decomposition("swap", 2)


def test_plain_gates_untouched():
    circuit = Circuit(2)
    circuit.add(g("h", [0]))
    circuit.add(g("x", [1], controls=[0]))
    out = decompose_multi_controlled(circuit)
    assert [gate.name for gate in out.gates] == ["h", "x"]


LOC = SourceSpan("kernel.py", 3, 5, 3, 20)


@pytest.mark.parametrize("use_selinger", [True, False])
@pytest.mark.parametrize(
    "source",
    [
        # A conditioned C4X with negative controls: X flips, an AND
        # ladder, its uncompute, and a full Toffoli.
        CircuitGate("x", (4,), (0, 1, 2, 3), (), (0, 1, 0, 1), (1, 1), LOC),
        # A controlled swap: CX conjugation around a C2X.
        CircuitGate("swap", (4, 5), (0, 1), (), (1, 0), (0, 0), LOC),
        # A doubly controlled phase: ladder plus a single-control build.
        CircuitGate("p", (4,), (2, 3), (0.7,), (0, 1), (1, 0), LOC),
        # An uncontrolled gate passes through.
        CircuitGate("h", (5,), (), (), (), (0, 1), LOC),
    ],
    ids=["c4x", "cswap", "ccp", "h"],
)
def test_decomposed_gates_carry_source_condition_and_loc(source, use_selinger):
    circuit = Circuit(6, 2)
    circuit.add(source)
    out = decompose_multi_controlled(circuit, use_selinger=use_selinger)
    # Negative controls are X-conjugated, and the flips inherit too.
    negative = [
        control
        for control, state in zip(source.controls, source.ctrl_states)
        if state == 0
    ]
    flips = [
        CircuitGate("x", (control,), condition=source.condition)
        for control in negative
    ]
    assert out.gates[: len(negative)] == flips
    assert out.gates[len(out.gates) - len(negative):] == flips[::-1]
    for gate in out.gates:
        assert gate.condition == source.condition
        assert gate.loc is LOC
