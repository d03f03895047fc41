"""The compile-time gate-fusion pass (repro.qcircuit.fusion).

Covers the PR's correctness obligations: fused circuits are unitarily
equivalent to their sources on random circuits (hypothesis property),
histograms are equivalent across every backend on the examples suite
(derived TVD thresholds from tests/stats.py), terminal-measurement
structure survives fusion (the fast path stays alive), the pass is
registered in the PassManager, and the pipeline produces a fused
``execution_circuit``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.qcircuit import make_circuit_pass_manager
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.qcircuit.examples import (
    conditioned_fanout_circuit,
    qubit_reuse_circuit,
    repeat_until_success_circuit,
    teleport_circuit,
)
from repro.qcircuit.fusion import (
    FusedUnitary,
    FusionPass,
    controlled_matrix,
    fuse_adjacent_gates,
    fused_gate_savings,
)
from repro.sim import run_circuit, unitary_of_gates
from repro.sim.backend import run_circuit_with_info
from tests.stats import assert_histograms_close

# ----------------------------------------------------------------------
# Random-circuit strategy (<= 6 qubits, random targets/controls/params).
# ----------------------------------------------------------------------
_SINGLE = ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg")
_ROTATION = ("rx", "ry", "rz", "p")


@st.composite
def random_gates(draw, max_qubits=6, max_gates=20):
    n = draw(st.integers(min_value=2, max_value=max_qubits))
    count = draw(st.integers(min_value=0, max_value=max_gates))
    gates = []
    for _ in range(count):
        kind = draw(st.sampled_from(("single", "rotation", "controlled",
                                     "swap")))
        if kind == "swap" and n >= 2:
            a, b = draw(
                st.lists(
                    st.integers(0, n - 1), min_size=2, max_size=2,
                    unique=True,
                )
            )
            gates.append(CircuitGate("swap", (a, b)))
        elif kind == "controlled" and n >= 2:
            qubits = draw(
                st.lists(
                    st.integers(0, n - 1),
                    min_size=2,
                    max_size=min(3, n),
                    unique=True,
                )
            )
            polarity = tuple(
                draw(st.integers(0, 1)) for _ in qubits[1:]
            )
            gates.append(
                CircuitGate(
                    draw(st.sampled_from(_SINGLE)),
                    (qubits[0],),
                    controls=tuple(qubits[1:]),
                    ctrl_states=polarity,
                )
            )
        elif kind == "rotation":
            angle = draw(
                st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
            )
            gates.append(
                CircuitGate(
                    draw(st.sampled_from(_ROTATION)),
                    (draw(st.integers(0, n - 1)),),
                    params=(angle,),
                )
            )
        else:
            gates.append(
                CircuitGate(
                    draw(st.sampled_from(_SINGLE)),
                    (draw(st.integers(0, n - 1)),),
                )
            )
    return n, gates


@settings(max_examples=60, deadline=None)
@given(
    random_gates(),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
)
def test_fused_circuits_are_unitarily_equivalent(spec, max_qubits, layer):
    n, gates = spec
    circuit = Circuit(n, 0, list(gates))
    fused = fuse_adjacent_gates(circuit, max_qubits=max_qubits, layer=layer)
    expected = unitary_of_gates(gates, n)
    actual = unitary_of_gates(fused.instructions, n)
    assert np.allclose(actual, expected, atol=1e-9)
    # Fusion is idempotent: fused blocks pass through a second run.
    refused = fuse_adjacent_gates(fused, max_qubits=max_qubits, layer=layer)
    assert np.allclose(unitary_of_gates(refused.instructions, n), expected,
                       atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(random_gates(max_qubits=4, max_gates=12))
def test_fusion_preserves_terminal_histograms(spec):
    n, gates = spec
    circuit = Circuit(n, n, list(gates))
    for q in range(n):
        circuit.add(Measurement(q, q))
    fused = fuse_adjacent_gates(circuit)
    # Terminal structure (and therefore the vectorized fast path's
    # single-evolution sampling) must survive fusion, so the two runs
    # share the sampling path bit for bit at equal seeds.
    assert run_circuit(circuit, shots=128, seed=3) == run_circuit(
        fused, shots=128, seed=3
    )


def test_measurement_flushes_every_pending_block():
    # A gate on a never-measured qubit must not drift past the
    # measurements (it would break terminal-measurement structure).
    circuit = Circuit(3, 1)
    circuit.add(CircuitGate("h", (0,)))
    circuit.add(CircuitGate("h", (2,)))
    circuit.add(CircuitGate("t", (2,)))
    circuit.add(Measurement(0, 0))
    fused = fuse_adjacent_gates(circuit)
    kinds = [type(inst) for inst in fused.instructions]
    assert kinds.index(Measurement) == len(kinds) - 1


@pytest.mark.parametrize(
    "make_circuit",
    [
        teleport_circuit,
        conditioned_fanout_circuit,
        qubit_reuse_circuit,
        repeat_until_success_circuit,
    ],
)
@pytest.mark.parametrize("backend", ["statevector"])
def test_examples_histograms_survive_fusion(make_circuit, backend):
    circuit = make_circuit()
    fused = fuse_adjacent_gates(circuit)
    shots = 2000
    assert_histograms_close(
        run_circuit(circuit, shots=shots, seed=11, backend=backend),
        run_circuit(fused, shots=shots, seed=12, backend=backend),
        label=f"{make_circuit.__name__}/{backend}",
    )


def test_density_matrix_histograms_survive_fusion():
    circuit = teleport_circuit()
    fused = fuse_adjacent_gates(circuit)
    shots = 2000
    assert_histograms_close(
        run_circuit(circuit, shots=shots, seed=5, backend="density_matrix"),
        run_circuit(fused, shots=shots, seed=6, backend="density_matrix"),
        label="teleport/density_matrix",
    )


def test_fused_unitary_validates_shape():
    with pytest.raises(Exception):
        FusedUnitary(np.eye(2, dtype=complex), (0, 1))
    with pytest.raises(Exception):
        FusedUnitary(np.eye(4, dtype=complex), (1, 1))


def test_fused_unitary_matrix_is_read_only():
    import pickle

    matrix = np.eye(4, dtype=complex)
    block = FusedUnitary(matrix, (0, 1), gate_count=2)
    with pytest.raises(ValueError, match="read-only"):
        block.matrix[0, 0] = 2
    # The caller's array is the block's matrix, frozen in place.
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 2
    # A view is copied, so writes through its base cannot reach it.
    base = np.eye(8, dtype=complex)
    viewed = FusedUnitary(base[:4, :4], (0, 1))
    base[0, 0] = 2
    assert viewed.matrix[0, 0] == 1
    # Unpickling (a disk-cache load) re-freezes the matrix.
    restored = pickle.loads(pickle.dumps(block))
    assert restored == block
    with pytest.raises(ValueError, match="read-only"):
        restored.matrix[0, 0] = 2


def test_controlled_matrix_folds_polarity():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    cx = controlled_matrix(x, (1,))
    assert np.allclose(cx[:2, :2], np.eye(2))
    assert np.allclose(cx[2:, 2:], x)
    # Negative control: the X block sits where the control reads 0.
    nx = controlled_matrix(x, (0,))
    assert np.allclose(nx[:2, :2], x)
    assert np.allclose(nx[2:, 2:], np.eye(2))


def test_gate_savings_and_runinfo_telemetry():
    circuit = Circuit(2, 2)
    for _ in range(4):
        circuit.add(CircuitGate("h", (0,)))
        circuit.add(CircuitGate("t", (1,)))
    circuit.add(Measurement(0, 0))
    circuit.add(Measurement(1, 1))
    fused = fuse_adjacent_gates(circuit)
    savings = fused_gate_savings(fused)
    assert savings > 0
    _, info = run_circuit_with_info(fused, shots=16, seed=0)
    assert info.gates_fused == savings
    _, unfused_info = run_circuit_with_info(circuit, shots=16, seed=0)
    assert unfused_info.gates_fused == 0


def test_conditioned_gates_are_barriers():
    circuit = Circuit(2, 1)
    circuit.add(CircuitGate("h", (0,)))
    circuit.add(Measurement(0, 0))
    circuit.add(CircuitGate("x", (0,), condition=(0, 1)))
    circuit.add(CircuitGate("h", (0,)))
    fused = fuse_adjacent_gates(circuit)
    conditioned = [
        inst
        for inst in fused.instructions
        if isinstance(inst, CircuitGate) and inst.condition is not None
    ]
    assert len(conditioned) == 1  # never absorbed into a block


def test_reset_is_a_barrier():
    circuit = Circuit(1, 0)
    circuit.add(CircuitGate("h", (0,)))
    circuit.add(Reset(0))
    circuit.add(CircuitGate("h", (0,)))
    fused = fuse_adjacent_gates(circuit)
    assert [type(i) for i in fused.instructions] == [
        CircuitGate,
        Reset,
        CircuitGate,
    ]


def test_fusion_pass_registered_in_pass_manager():
    circuit = Circuit(2, 0)
    circuit.add(CircuitGate("h", (0,)))
    circuit.add(CircuitGate("h", (1,)))
    circuit.add(CircuitGate("x", (1,), controls=(0,)))
    expected = unitary_of_gates(circuit.gates, 2)
    make_circuit_pass_manager("fuse{max_qubits=2,layer=true}").run(circuit)
    assert any(
        isinstance(inst, FusedUnitary) for inst in circuit.instructions
    )
    assert np.allclose(
        unitary_of_gates(circuit.instructions, 2), expected, atol=1e-9
    )


def test_fusion_pass_rejects_bad_options():
    from repro.errors import PassPipelineError

    with pytest.raises(PassPipelineError):
        FusionPass(max_qubits=0)
    with pytest.raises(PassPipelineError):
        make_circuit_pass_manager("fuse{bogus=1}")


def test_pipeline_produces_fused_execution_circuit():
    from repro.algorithms import bernstein_vazirani
    from repro.pipeline import CompileOptions, compile_kernel

    kernel = bernstein_vazirani("1011")
    result = compile_kernel(kernel, CompileOptions())
    assert result.execution_circuit is not None
    assert any(
        isinstance(inst, FusedUnitary)
        for inst in result.execution_circuit.instructions
    )
    # The export artifacts never see fused ops.
    assert not any(
        isinstance(inst, FusedUnitary)
        for inst in result.optimized_circuit.instructions
    )
    assert fused_gate_savings(result.execution_circuit) > 0

    plain = compile_kernel(kernel, CompileOptions.preset("no-fusion"))
    assert plain.execution_circuit is plain.optimized_circuit


def test_simulate_kernel_matches_unfused_pipeline():
    from repro.pipeline import CompileOptions, simulate_kernel
    from repro.algorithms import bernstein_vazirani

    kernel = bernstein_vazirani("110")
    fused = simulate_kernel(kernel, shots=64, seed=9, cache=False)
    unfused = simulate_kernel(
        kernel,
        shots=64,
        seed=9,
        cache=False,
        options=CompileOptions.preset("no-fusion"),
    )
    assert [str(b) for b in fused] == [str(b) for b in unfused]
