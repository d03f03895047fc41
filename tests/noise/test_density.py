"""Density-matrix backend tests (repro.sim.density): exact evolution,
zero-noise equivalence with the statevector backend, and exact output
distributions under noise."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.noise import (
    NoiseModel,
    ReadoutError,
    amplitude_damping,
    bit_flip,
    depolarizing,
)
from repro.qcircuit import (
    conditioned_fanout_circuit,
    qubit_reuse_circuit,
    repeat_until_success_circuit,
    teleport_circuit,
)
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement
from repro.sim import (
    DensityMatrixBackend,
    DensityMatrixSimulator,
    available_backends,
    controlled_matrix,
    gate_matrix,
    get_backend,
    run_circuit_with_info,
    terminal_measurement_plan,
)
from tests.stats import assert_histograms_close


def bell_circuit():
    circuit = Circuit(num_qubits=2, num_bits=2)
    circuit.add(CircuitGate("h", (0,)))
    circuit.add(CircuitGate("x", (1,), controls=(0,)))
    circuit.add(Measurement(0, 0))
    circuit.add(Measurement(1, 1))
    return circuit


# ----------------------------------------------------------------------
# Registration and limits.
# ----------------------------------------------------------------------
def test_density_backend_registered():
    assert "density_matrix" in available_backends()
    assert isinstance(get_backend("density_matrix"), DensityMatrixBackend)


def test_density_qubit_limit():
    with pytest.raises(SimulationError, match="density-matrix limit"):
        DensityMatrixSimulator(13)


# ----------------------------------------------------------------------
# Exact evolution semantics.
# ----------------------------------------------------------------------
def test_pure_state_evolution_matches_statevector():
    """Noiseless rho stays |psi><psi| for the statevector's |psi|."""
    from repro.sim import apply_gates_to_state

    gates = [
        CircuitGate("h", (0,)),
        CircuitGate("x", (1,), controls=(0,)),
        CircuitGate("rz", (0,), params=(0.4,)),
        CircuitGate("x", (2,), controls=(1,), ctrl_states=(0,)),
        CircuitGate("swap", (0, 2)),
    ]
    dm = DensityMatrixSimulator(3)
    for gate in gates:
        dm.apply_gate(gate)
    psi = apply_gates_to_state(gates, 3)
    expected = np.outer(psi, psi.conj()).reshape((2,) * 6)
    assert np.allclose(dm.rho, expected)
    assert dm.trace() == pytest.approx(1.0)


def test_controlled_matrix_polarities():
    x = gate_matrix("x")
    # Control on |1>: the standard CNOT block layout.
    cnot = controlled_matrix(x, (1,))
    expected = np.eye(4, dtype=complex)
    expected[2:, 2:] = x
    assert np.array_equal(cnot, expected)
    # Control on |0>: the X block sits in the |0> subspace.
    anti = controlled_matrix(x, (0,))
    expected = np.eye(4, dtype=complex)
    expected[:2, :2] = x
    assert np.array_equal(anti, expected)
    assert controlled_matrix(x, ()) is x


def test_channel_application_matches_analytic_action():
    """A single-qubit channel inside an entangled 2-qubit state acts as
    (channel x id) on the full density matrix."""
    channel = amplitude_damping(0.3)
    dm = DensityMatrixSimulator(2)
    dm.apply_gate(CircuitGate("h", (0,)))
    dm.apply_gate(CircuitGate("x", (1,), controls=(0,)))
    rho_before = dm.rho.reshape(4, 4).copy()
    dm.apply_channel(channel, (0,))
    # Build (K x I) rho (K x I)^dag explicitly.
    expected = sum(
        np.kron(op, np.eye(2))
        @ rho_before
        @ np.kron(op, np.eye(2)).conj().T
        for op in channel.operators
    )
    assert np.allclose(dm.rho.reshape(4, 4), expected)


def test_reset_is_trace_preserving_collapse():
    dm = DensityMatrixSimulator(1)
    dm.apply_gate(CircuitGate("h", (0,)))
    dm.reset(0)
    assert np.allclose(
        dm.rho.reshape(2, 2), [[1, 0], [0, 0]]
    )


# ----------------------------------------------------------------------
# Zero-noise equivalence with the statevector backend.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shots", [1, 7, 400])
def test_zero_noise_terminal_histograms_match_statevector_exactly(shots):
    """Acceptance: same seed convention, identical shot sequences."""
    circuit = bell_circuit()
    for seed in (0, 3, 11):
        sv = run_circuit_with_info(
            circuit, shots=shots, seed=seed, backend="statevector"
        )[0]
        dm, info = run_circuit_with_info(
            circuit, shots=shots, seed=seed, backend="density_matrix"
        )
        assert dm == sv
        assert info.fast_path and info.evolutions == 1
        assert info.channel_applications == 0


def test_zero_noise_grover_matches_statevector_exactly():
    from repro.algorithms import grover

    circuit = grover(3).compile(cache=True).optimized_circuit
    sv = run_circuit_with_info(
        circuit, shots=400, seed=5, backend="statevector"
    )[0]
    dm = run_circuit_with_info(
        circuit, shots=400, seed=5, backend="density_matrix"
    )[0]
    assert dm == sv


@pytest.mark.parametrize(
    "label, factory",
    [
        ("teleport", teleport_circuit),
        ("cond-fanout", conditioned_fanout_circuit),
        ("qubit-reuse", qubit_reuse_circuit),
        ("repeat-until-success", repeat_until_success_circuit),
    ],
)
def test_zero_noise_nonterminal_matches_statevector_distribution(
    label, factory
):
    """Branched rho evolution agrees with batched trajectories on every
    non-terminal example circuit (same distribution; the sampling paths
    differ, so this is a TVD comparison, not bit equality)."""
    circuit = factory()
    shots = 4000
    batched, _ = run_circuit_with_info(
        circuit, shots=shots, seed=13, backend="statevector"
    )
    density, info = run_circuit_with_info(
        circuit, shots=shots, seed=13, backend="density_matrix"
    )
    assert not info.fast_path and info.evolutions == 1
    assert_histograms_close(batched, density, label=label)


# ----------------------------------------------------------------------
# Exact output distributions under noise.
# ----------------------------------------------------------------------
def test_output_distribution_ideal_teleport_is_analytic():
    distribution = DensityMatrixBackend().output_distribution(
        teleport_circuit()
    )
    expected_one = math.sin(0.35) ** 2
    assert distribution[(1,)] == pytest.approx(expected_one)
    assert distribution[(0,)] == pytest.approx(1 - expected_one)


def test_output_distribution_bit_flip_before_measurement():
    """X-gate circuit with bit-flip noise: P(0) = p, analytically."""
    p = 0.2
    circuit = Circuit(num_qubits=1, num_bits=1)
    circuit.add(CircuitGate("x", (0,)))
    circuit.add(Measurement(0, 0))
    model = NoiseModel().add_channel(bit_flip(p))
    distribution = DensityMatrixBackend().output_distribution(
        circuit, noise_model=model
    )
    assert distribution[(0,)] == pytest.approx(p)
    assert distribution[(1,)] == pytest.approx(1 - p)


def test_output_distribution_readout_only():
    """Readout confusion alone: P(recorded 0 | prepared 1) = p10."""
    circuit = Circuit(num_qubits=1, num_bits=1)
    circuit.add(CircuitGate("x", (0,)))
    circuit.add(Measurement(0, 0))
    model = NoiseModel().add_readout_error(
        ReadoutError.asymmetric(0.0, 0.3)
    )
    distribution = DensityMatrixBackend().output_distribution(
        circuit, noise_model=model
    )
    assert distribution[(0,)] == pytest.approx(0.3)
    assert distribution[(1,)] == pytest.approx(0.7)


def test_readout_error_feeds_classical_conditioning():
    """A conditioned gate sees the *recorded* (corrupted) bit: with
    certain misread (p01 = 1) of a |0> coin, the conditioned X always
    fires even though the true outcome is always 0."""
    circuit = Circuit(num_qubits=2, num_bits=2, output_bits=[1])
    circuit.add(Measurement(0, 0))  # qubit 0 is |0>: true outcome 0
    circuit.add(CircuitGate("x", (1,), condition=(0, 1)))
    circuit.add(Measurement(1, 1))
    model = NoiseModel().add_readout_error(
        ReadoutError.asymmetric(1.0, 0.0), qubits=(0,)
    )
    distribution = DensityMatrixBackend().output_distribution(
        circuit, noise_model=model
    )
    assert distribution == {(1,): pytest.approx(1.0)}


def test_noisy_teleport_distribution_interpolates_to_mixed():
    """Depolarizing noise pulls the teleported bit toward 50/50, and
    the exact distribution moves monotonically with strength."""
    backend = DensityMatrixBackend()
    circuit = teleport_circuit()
    ideal_one = math.sin(0.35) ** 2
    previous = ideal_one
    for strength in (0.05, 0.2, 0.5):
        model = NoiseModel().add_channel(depolarizing(strength))
        p_one = backend.output_distribution(circuit, model)[(1,)]
        assert previous < p_one < 0.5
        previous = p_one


def test_branch_merging_bounds_branch_count():
    """qubit_reuse(8) has 8 measurements (2^8 raw paths) but only 256
    register values; merged branching must stay exact and cheap."""
    circuit = qubit_reuse_circuit(rounds=8)
    distribution = DensityMatrixBackend().output_distribution(circuit)
    assert len(distribution) == 256
    for probability in distribution.values():
        assert probability == pytest.approx(1 / 256)


def test_duplicate_measurement_readout_uses_per_measurement_semantics():
    """A qubit measured into two bits under readout confusion draws one
    independent flip per Measurement (like the trajectory engines) —
    the density backend must route this off the marginal-folding
    terminal path, which would wrongly correlate the two records."""
    circuit = Circuit(num_qubits=1, num_bits=2)
    circuit.add(CircuitGate("x", (0,)))
    circuit.add(Measurement(0, 0))
    circuit.add(Measurement(0, 1))
    p = 0.2
    model = NoiseModel().add_readout_error(ReadoutError.symmetric(p))
    distribution = DensityMatrixBackend().output_distribution(
        circuit, noise_model=model
    )
    # True outcome is always 1; each record flips independently.
    assert distribution[(0, 1)] == pytest.approx(p * (1 - p))
    assert distribution[(1, 0)] == pytest.approx(p * (1 - p))
    assert distribution[(1, 1)] == pytest.approx((1 - p) ** 2)
    # And the sampled run agrees with the batched engine's convention.
    _, info = run_circuit_with_info(
        circuit, shots=16, seed=0,
        backend="density_matrix", noise_model=model,
    )
    assert not info.fast_path
    # Without readout confusion the terminal shortcut still applies.
    assert terminal_measurement_plan(circuit) is not None
    _, info = run_circuit_with_info(
        circuit, shots=16, seed=0, backend="density_matrix"
    )
    assert info.fast_path


def test_density_run_is_deterministic_per_seed():
    circuit = teleport_circuit()
    model = NoiseModel().add_channel(depolarizing(0.1))
    first = run_circuit_with_info(
        circuit, shots=64, seed=9, backend="density_matrix",
        noise_model=model,
    )[0]
    second = run_circuit_with_info(
        circuit, shots=64, seed=9, backend="density_matrix",
        noise_model=model,
    )[0]
    third = run_circuit_with_info(
        circuit, shots=64, seed=10, backend="density_matrix",
        noise_model=model,
    )[0]
    assert first == second
    assert first != third
