"""Tests for the shot-batched statevector engine (repro.sim.batched)
and the in-place apply primitive (repro.sim.kernels.apply_matrix_inplace).

Histogram equivalence goes through the shared statistical helpers in
``tests/stats.py``: the TVD threshold is derived from the shot counts
(expected sampling deviation plus a McDiarmid tail), and the remaining
per-outcome count checks keep margins >= 4 sigma from the expected
mean, so fixed-seed draws are robust under any correctly-sampling
engine.
"""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.qcircuit import (
    conditioned_fanout_circuit,
    qubit_reuse_circuit,
    repeat_until_success_circuit,
    teleport_circuit,
)
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.sim import (
    BatchedStatevector,
    DensityMatrixBackend,
    apply_matrix_inplace,
    batch_chunk_size,
    batched_run,
    gate_matrix,
    run_circuit_with_info,
)
from repro.sim.backend import bit_tuples
from repro.sim.batched import control_sliced_view
from tests.stats import assert_matches_distribution, histogram


# ----------------------------------------------------------------------
# The in-place apply primitive vs the old tensordot reference.
# ----------------------------------------------------------------------
def tensordot_reference(state, matrix, targets, controls=(), ctrl_states=()):
    """The historical tensordot + moveaxis + copy-back sweep."""
    num_axes = state.ndim
    view = state
    if controls:
        index = [slice(None)] * num_axes
        for qubit, required in zip(controls, ctrl_states):
            index[qubit] = required
        view = state[tuple(index)]
        removed = sorted(controls)
        targets = tuple(
            t - sum(1 for r in removed if r < t) for t in targets
        )
    k = len(targets)
    tensor = matrix.reshape((2,) * (2 * k))
    moved = np.tensordot(tensor, view, axes=(range(k, 2 * k), targets))
    view[...] = np.moveaxis(moved, range(k), targets)


def random_state(rng, num_qubits):
    state = rng.normal(size=(2,) * num_qubits) + 1j * rng.normal(
        size=(2,) * num_qubits
    )
    return state / np.linalg.norm(state)


def random_unitary(rng, dim):
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(matrix)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inplace_kernel_matches_tensordot_reference(num_qubits, seed):
    rng = np.random.default_rng(100 * num_qubits + seed)
    for _ in range(8):
        k = int(rng.integers(1, min(num_qubits, 3) + 1))
        qubits = rng.permutation(num_qubits)
        targets = tuple(int(q) for q in qubits[:k])
        matrix = random_unitary(rng, 2**k)

        state = random_state(rng, num_qubits)
        expected = state.copy()
        apply_matrix_inplace(state, matrix, targets)
        tensordot_reference(expected, matrix, targets)
        assert np.allclose(state, expected)


@pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_controlled_apply_matches_reference_with_polarities(num_qubits, seed):
    """Control-sliced views, any polarity, through the engine's path."""
    rng = np.random.default_rng(7000 + 100 * num_qubits + seed)
    for _ in range(6):
        qubits = [int(q) for q in rng.permutation(num_qubits)]
        k = int(rng.integers(1, min(num_qubits - 1, 2) + 1))
        num_controls = int(rng.integers(1, num_qubits - k + 1))
        targets = tuple(qubits[:k])
        controls = tuple(qubits[k : k + num_controls])
        ctrl_states = tuple(
            int(s) for s in rng.integers(0, 2, size=num_controls)
        )
        matrix = random_unitary(rng, 2**k)

        initial = random_state(rng, num_qubits)
        batch = BatchedStatevector(1, num_qubits)
        batch.state[0] = initial
        view, axes = control_sliced_view(
            batch.state, targets, controls, ctrl_states
        )
        apply_matrix_inplace(view, matrix, axes)

        expected = initial.copy()
        tensordot_reference(expected, matrix, targets, controls, ctrl_states)
        assert np.allclose(batch.state[0], expected)


def test_inplace_kernel_batch_axis_rides_along():
    """A leading non-qubit axis (the shot axis) is preserved."""
    rng = np.random.default_rng(3)
    shots, num_qubits = 5, 3
    batch = np.stack([random_state(rng, num_qubits) for _ in range(shots)])
    matrix = random_unitary(rng, 4)
    targets = (2, 1)  # qubit axes 1-based in the batch array

    expected = batch.copy()
    for shot in range(shots):
        tensordot_reference(expected[shot], matrix, (1, 0))
    apply_matrix_inplace(batch, matrix, targets)
    assert np.allclose(batch, expected)


# ----------------------------------------------------------------------
# Batched engine semantics.
# ----------------------------------------------------------------------
def test_batched_rows_match_tensordot_reference_amplitudes():
    """With no measurements, each batch row is the reference state."""
    gates = [
        CircuitGate("h", (0,)),
        CircuitGate("x", (1,), controls=(0,)),
        CircuitGate("rz", (0,), params=(0.3,)),
        CircuitGate("x", (2,), controls=(1,), ctrl_states=(0,)),
    ]
    expected = np.zeros((2, 2, 2), dtype=complex)
    expected[0, 0, 0] = 1.0
    for gate in gates:
        tensordot_reference(
            expected, gate_matrix(gate.name, gate.params), gate.targets,
            gate.controls, gate.ctrl_states,
        )

    batch = BatchedStatevector(4, 3)
    for gate in gates:
        batch.apply_gate(gate)
    for shot in range(4):
        assert np.allclose(batch.state[shot], expected)


def test_batched_measurement_probabilities_and_projection():
    batch = BatchedStatevector(4000, 1, 1, rng=np.random.default_rng(2))
    batch.apply_gate(CircuitGate("h", (0,)))
    p_one = batch.probability_one(0)
    assert np.allclose(p_one, 0.5)
    outcomes = batch.measure(0)
    # Post-measurement, every row is a normalized basis state that
    # agrees with its recorded outcome.
    flat = batch.state.reshape(4000, -1)
    norms = np.einsum("si,si->s", flat, flat.conj()).real
    assert np.allclose(norms, 1.0)
    assert np.array_equal(
        (np.abs(flat[:, 1]) ** 2 > 0.5).astype(int), outcomes
    )
    # ~50/50 split, 5 sigma.
    sigma = math.sqrt(4000 * 0.25)
    assert abs(outcomes.sum() - 2000) < 5 * sigma


def test_batched_measurement_zero_probability_guard():
    batch = BatchedStatevector(8, 1, 1)
    outcomes = batch.measure(0)  # |0>: deterministic, never raises
    assert not outcomes.any()


def test_batched_conditioned_gate_applies_only_to_masked_shots():
    circuit = conditioned_fanout_circuit()
    results, sweeps = batched_run(circuit, shots=400, seed=9)
    assert sweeps == 1
    counts = histogram(bit_tuples(results))
    # The conditioned X's fan the coin out exactly: only '110'/'001'.
    assert set(counts) == {(1, 1, 0), (0, 0, 1)}
    sigma = math.sqrt(400 * 0.25)
    assert abs(counts[(1, 1, 0)] - 200) < 5 * sigma


def test_batched_reset_composes_measure_and_masked_x():
    batch = BatchedStatevector(400, 1, 0, rng=np.random.default_rng(4))
    batch.apply_gate(CircuitGate("h", (0,)))
    batch.reset(0)
    # Every trajectory is |0> again.
    assert np.allclose(batch.state[:, 0], 1.0)
    assert np.allclose(batch.state[:, 1], 0.0)


@pytest.mark.parametrize("qubit", [0, 1, 2])
def test_one_row_measure_matches_a_batch_row(qubit):
    """A 1-row batch measures on Python scalars; a wider batch on
    vectors.  Under the same generator both pick the same outcome for
    row 0 and leave it in the same post-measurement state."""
    rng = np.random.default_rng(40 + qubit)
    for seed in range(20):
        initial = random_state(rng, 3)
        single = BatchedStatevector(1, 3, rng=np.random.default_rng(seed))
        batch = BatchedStatevector(3, 3, rng=np.random.default_rng(seed))
        single.state[0] = initial
        batch.state[:] = initial
        assert single.measure(qubit)[0] == batch.measure(qubit)[0]
        assert np.allclose(single.state[0], batch.state[0])


def test_apply_gate_takes_a_per_row_matrix_stack():
    # Controlled p at three angles, one per row, against three 1-row
    # engines each applying its own bound gate.
    angles = [0.3, -1.1, 2.0]
    gate = CircuitGate("p", (1,), controls=(0,))
    batch = BatchedStatevector(3, 2)
    batch.apply_gate(CircuitGate("h", (0,)))
    batch.apply_gate(CircuitGate("h", (1,)))
    batch.apply_gate(gate, np.stack([gate_matrix("p", (a,)) for a in angles]))
    for row, angle in enumerate(angles):
        single = BatchedStatevector(1, 2)
        single.apply_gate(CircuitGate("h", (0,)))
        single.apply_gate(CircuitGate("h", (1,)))
        single.apply_gate(
            CircuitGate("p", (1,), controls=(0,), params=(angle,))
        )
        assert np.allclose(batch.state[row], single.state[0], atol=1e-12)


def test_batched_rejects_too_many_qubits_and_empty_batches():
    with pytest.raises(SimulationError, match="dense-simulation"):
        BatchedStatevector(2, 25)
    with pytest.raises(SimulationError, match="at least one shot"):
        BatchedStatevector(0, 2)


def test_batch_chunk_size_envelope():
    # 2^n * 16 bytes per shot against the envelope.
    assert batch_chunk_size(1, max_batch_bytes=1024) == 32
    assert batch_chunk_size(3, max_batch_bytes=1024) == 8
    # Never zero, even when one shot exceeds the envelope.
    assert batch_chunk_size(10, max_batch_bytes=16) == 1


def test_batched_run_chunks_report_honest_sweeps():
    circuit = teleport_circuit()
    # 3 qubits -> 2^3 * 16 = 128 bytes/shot; cap the envelope so 100
    # shots need four sweeps of at most 30 shots.
    results, sweeps = batched_run(
        circuit, shots=100, seed=1, max_batch_bytes=30 * 128
    )
    assert len(results) == 100
    assert sweeps == math.ceil(100 / 30)
    # Chunking must not distort the distribution (~sin^2(0.35)=0.118).
    full, one_sweep = batched_run(circuit, shots=1000, seed=1)
    assert one_sweep == 1
    expected = math.sin(0.35) ** 2
    ones = sum(r[0] for r in full)
    sigma = math.sqrt(expected * (1 - expected) * 1000)
    assert abs(ones - expected * 1000) < 5 * sigma


def test_batched_run_is_deterministic():
    circuit = repeat_until_success_circuit()
    first, sweeps = batched_run(circuit, 64, seed=3)
    again, again_sweeps = batched_run(circuit, 64, seed=3)
    assert np.array_equal(first, again) and sweeps == again_sweeps
    assert not np.array_equal(first, batched_run(circuit, 64, seed=4)[0])


# ----------------------------------------------------------------------
# Histogram convergence to the exact density-matrix distribution, within
# the derived TVD threshold (tests/stats.py).
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "label, circuit_factory",
    [
        ("teleport", teleport_circuit),
        ("cond-fanout", conditioned_fanout_circuit),
        ("qubit-reuse", qubit_reuse_circuit),
        ("repeat-until-success", repeat_until_success_circuit),
    ],
)
def test_batched_histograms_match_density_matrix(label, circuit_factory):
    circuit = circuit_factory()
    shots = 4000
    exact = DensityMatrixBackend().output_distribution(circuit)
    batched, info = run_circuit_with_info(
        circuit, shots=shots, seed=13, backend="statevector"
    )
    assert info.batched and not info.fast_path
    assert info.evolutions == 1
    assert len(batched) == shots
    # Every sampled outcome is possible, and the TVD sits inside the
    # shot-count-derived threshold.
    assert set(histogram(batched)) <= set(exact), label
    assert_matches_distribution(batched, exact, label=label)


def test_batched_mid_circuit_reset_reuse_histogram():
    """Three coins through one reused qubit: uniform over 8 outcomes."""
    circuit = qubit_reuse_circuit(rounds=3)
    results, info = run_circuit_with_info(
        circuit, shots=4000, seed=21, backend="statevector"
    )
    assert info.batched and info.evolutions == 1
    counts = histogram(results)
    assert len(counts) == 8
    sigma = math.sqrt(4000 * (1 / 8) * (7 / 8))
    for outcome, count in counts.items():
        assert abs(count - 500) < 5 * sigma, outcome


def test_batched_handles_unknown_instruction():
    class Bogus:
        qubit = 0

    circuit = Circuit(num_qubits=1, num_bits=1)
    circuit.add(Bogus())
    with pytest.raises(SimulationError, match="unknown instruction"):
        batched_run(circuit, shots=2)


def test_batched_respects_output_bits():
    circuit = Circuit(num_qubits=2, num_bits=3, output_bits=[2, 0])
    circuit.add(CircuitGate("x", (0,)))
    circuit.add(Measurement(0, 0))
    circuit.add(CircuitGate("h", (1,)))
    circuit.add(Measurement(1, 1))  # mid-circuit: forces the batched path
    circuit.add(CircuitGate("h", (1,)))
    circuit.add(Measurement(0, 2))
    results, info = run_circuit_with_info(
        circuit, shots=16, backend="statevector"
    )
    assert info.batched
    assert results == [(1, 1)] * 16


def test_batched_trailing_reset_after_measurement():
    circuit = Circuit(num_qubits=2, num_bits=2, output_bits=[0])
    circuit.add(CircuitGate("h", (0,)))
    circuit.add(Measurement(0, 0))
    circuit.add(CircuitGate("h", (0,)))  # mid-circuit measurement above
    circuit.add(Measurement(0, 1))
    circuit.add(Reset(1))
    results, info = run_circuit_with_info(
        circuit, shots=400, seed=2, backend="statevector"
    )
    assert info.batched
    counts = histogram(results)
    sigma = math.sqrt(400 * 0.25)
    assert abs(counts.get((0,), 0) - 200) < 5 * sigma
