"""Stochastic Kraus unraveling tests: the batched trajectory engine and
the per-shot interpreter must both converge to the exact density-matrix
distribution, with honest RunInfo telemetry."""

import numpy as np
import pytest

from repro.noise import (
    KrausChannel,
    NoiseModel,
    NoiseStats,
    ReadoutError,
    amplitude_damping,
    depolarizing,
    phase_damping,
)
from repro.qcircuit import conditioned_fanout_circuit, teleport_circuit
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement
from repro.sim import (
    BatchedStatevector,
    DensityMatrixBackend,
    apply_matrix_inplace,
    batched_run,
    run_circuit_with_info,
)
from tests.stats import assert_matches_distribution, empirical_distribution


def teleport_noise_model():
    """The acceptance-criteria model: depolarizing + readout noise."""
    return (
        NoiseModel()
        .add_channel(depolarizing(0.05))
        .add_readout_error(ReadoutError.symmetric(0.02))
    )


# ----------------------------------------------------------------------
# Engine-level unraveling semantics.
# ----------------------------------------------------------------------
def test_batched_kraus_preserves_normalization():
    batch = BatchedStatevector(512, 2, rng=np.random.default_rng(1))
    batch.apply_gate(CircuitGate("h", (0,)))
    batch.apply_gate(CircuitGate("x", (1,), controls=(0,)))
    batch.apply_kraus(amplitude_damping(0.4), (0,))
    flat = batch.state.reshape(512, -1)
    norms = np.einsum("si,si->s", flat, flat.conj()).real
    assert np.allclose(norms, 1.0)


def test_batched_kraus_matches_channel_statistics():
    """Unraveled amplitude damping on |1>: P(damped to |0>) = gamma."""
    gamma = 0.3
    shots = 4000
    batch = BatchedStatevector(shots, 1, rng=np.random.default_rng(7))
    batch.apply_gate(CircuitGate("x", (0,)))
    batch.apply_kraus(amplitude_damping(gamma), (0,))
    p_one = batch.probability_one(0)
    # Each trajectory collapsed to exactly |0> or |1>.
    assert np.all((p_one < 1e-9) | (p_one > 1 - 1e-9))
    damped = int((p_one < 0.5).sum())
    sigma = (shots * gamma * (1 - gamma)) ** 0.5
    assert abs(damped - gamma * shots) < 5 * sigma


def test_batched_kraus_masked_subset_only():
    """A masked Kraus draw must leave unmasked trajectories untouched."""
    batch = BatchedStatevector(8, 1, rng=np.random.default_rng(3))
    batch.apply_gate(CircuitGate("x", (0,)))
    mask = np.zeros(8, dtype=bool)
    mask[:4] = True
    batch.apply_kraus(amplitude_damping(1.0), (0,), mask=mask)
    p_one = batch.probability_one(0)
    assert np.allclose(p_one[:4], 0.0)  # damped with certainty
    assert np.allclose(p_one[4:], 1.0)  # untouched


def test_single_shot_kraus_matches_channel_statistics():
    """The per-shot interpreter's unraveling of amplitude damping on
    |1>: P(read 0) = gamma."""
    gamma = 0.25
    trials = 2000
    circuit = Circuit(num_qubits=1, num_bits=1)
    circuit.add(CircuitGate("x", (0,)))
    circuit.add(Measurement(0, 0))
    model = NoiseModel().add_channel(amplitude_damping(gamma))
    results, info = run_circuit_with_info(
        circuit, shots=trials, seed=0,
        backend="interpreter", noise_model=model,
    )
    assert info.evolutions == trials
    assert info.channel_applications == trials
    damped = sum(1 for (bit,) in results if bit == 0)
    sigma = (trials * gamma * (1 - gamma)) ** 0.5
    assert abs(damped - gamma * trials) < 5 * sigma


def _random_state(rng, num_qubits):
    state = rng.normal(size=(2,) * num_qubits) + 1j * rng.normal(
        size=(2,) * num_qubits
    )
    return state / np.linalg.norm(state)


def _generic_channel(num_operators, num_qubits, seed):
    """Kraus operators cut from a random isometry: complete, with
    complex, non-diagonal K_i^dag K_i (unlike the named channels)."""
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    shape = (num_operators * dim, dim)
    isometry, _ = np.linalg.qr(
        rng.normal(size=shape) + 1j * rng.normal(size=shape)
    )
    return KrausChannel("generic", np.split(isometry, num_operators))


@pytest.mark.parametrize(
    "channel, qubits",
    [
        (amplitude_damping(0.3), (1,)),
        (phase_damping(0.4), (0,)),
        (depolarizing(0.2, num_qubits=2), (2, 0)),
        (_generic_channel(3, 1, seed=5), (2,)),
        (_generic_channel(2, 2, seed=6), (1, 2)),
    ],
)
def test_kraus_selection_matches_per_operator_norm_reference(
    channel, qubits
):
    """Each row picks operator i with probability ||K_i psi||^2 (one
    draw per row) and collapses to K_i psi / ||K_i psi||: checked row by
    row against a loop that applies every operator to a copy."""
    rng = np.random.default_rng(11)
    for seed in range(12):
        shots = 1 + seed % 4
        initial = np.stack([_random_state(rng, 3) for _ in range(shots)])
        batch = BatchedStatevector(
            shots, 3, rng=np.random.default_rng(seed)
        )
        batch.state[:] = initial
        batch.apply_kraus(channel, qubits)
        draws = np.random.default_rng(seed).random(shots)
        for row in range(shots):
            branches = []
            for op in channel.operators:
                branch = initial[row][None].copy()
                apply_matrix_inplace(
                    branch, op, tuple(1 + q for q in qubits)
                )
                branches.append(branch[0])
            norms = [float(np.vdot(b, b).real) for b in branches]
            draw = draws[row] * sum(norms)
            chosen = int(np.searchsorted(np.cumsum(norms), draw, "right"))
            expected = branches[chosen] / np.sqrt(norms[chosen])
            assert np.allclose(batch.state[row], expected)


# ----------------------------------------------------------------------
# Convergence to the density-matrix distribution (acceptance criteria).
# ----------------------------------------------------------------------
def test_teleport_unraveling_converges_to_density_matrix():
    """Acceptance: teleport with depolarizing + readout noise — the
    batched unraveling matches the exact distribution within the shared
    TVD threshold."""
    circuit = teleport_circuit()
    model = teleport_noise_model()
    exact = DensityMatrixBackend().output_distribution(circuit, model)
    shots = 8192
    results, info = run_circuit_with_info(
        circuit, shots=shots, seed=17,
        backend="statevector", noise_model=model,
    )
    assert info.batched and not info.fast_path
    assert info.evolutions == 1  # one sweep over all shots
    assert_matches_distribution(
        results, exact, label="teleport unraveling"
    )


def test_conditioned_fanout_unraveling_converges_to_density_matrix():
    circuit = conditioned_fanout_circuit()
    model = (
        NoiseModel()
        .add_channel(amplitude_damping(0.08))
        .add_channel(phase_damping(0.05))
        .add_readout_error(ReadoutError.asymmetric(0.03, 0.06))
    )
    exact = DensityMatrixBackend().output_distribution(circuit, model)
    results, info = run_circuit_with_info(
        circuit, shots=8192, seed=23,
        backend="statevector", noise_model=model,
    )
    assert info.batched
    assert_matches_distribution(
        results, exact, label="cond-fanout unraveling"
    )


def test_interpreter_unraveling_converges_to_density_matrix():
    """The per-shot interpreter is a second, independent unraveling —
    cross-validating the batched implementation."""
    circuit = teleport_circuit()
    model = teleport_noise_model()
    exact = DensityMatrixBackend().output_distribution(circuit, model)
    results, info = run_circuit_with_info(
        circuit, shots=4000, seed=29,
        backend="interpreter", noise_model=model,
    )
    assert info.evolutions == 4000 and not info.batched
    assert_matches_distribution(
        results, exact, label="interpreter unraveling"
    )


def test_noisy_terminal_circuit_takes_batched_path():
    """Noise rules out the single-evolution fast path even for
    terminal-measurement circuits."""
    circuit = Circuit(num_qubits=2, num_bits=2)
    circuit.add(CircuitGate("h", (0,)))
    circuit.add(CircuitGate("x", (1,), controls=(0,)))
    circuit.add(Measurement(0, 0))
    circuit.add(Measurement(1, 1))
    model = NoiseModel().add_channel(depolarizing(0.1))
    _, info = run_circuit_with_info(
        circuit, shots=32, seed=0,
        backend="statevector", noise_model=model,
    )
    assert info.batched and not info.fast_path
    # An empty model (or none) keeps the fast path.
    _, info = run_circuit_with_info(
        circuit, shots=32, seed=0,
        backend="statevector", noise_model=NoiseModel(),
    )
    assert info.fast_path


def test_noisy_bell_histogram_matches_density_exactly_in_distribution():
    circuit = Circuit(num_qubits=2, num_bits=2)
    circuit.add(CircuitGate("h", (0,)))
    circuit.add(CircuitGate("x", (1,), controls=(0,)))
    circuit.add(Measurement(0, 0))
    circuit.add(Measurement(1, 1))
    model = NoiseModel().add_channel(depolarizing(0.2))
    exact = DensityMatrixBackend().output_distribution(circuit, model)
    results, _ = run_circuit_with_info(
        circuit, shots=8192, seed=31,
        backend="statevector", noise_model=model,
    )
    assert_matches_distribution(results, exact, label="noisy bell")
    # The noise broke the perfect (00|11) correlation.
    assert set(empirical_distribution(results)) == set(exact)
    assert len(exact) == 4


# ----------------------------------------------------------------------
# Telemetry and determinism.
# ----------------------------------------------------------------------
def test_runinfo_reports_honest_counts_per_sweep():
    """One-chunk batched run: channel applications = attached channel
    events in one circuit walk; readout = measurements with confusion."""
    circuit = teleport_circuit()
    model = teleport_noise_model()
    _, info = run_circuit_with_info(
        circuit, shots=256, seed=0,
        backend="statevector", noise_model=model,
    )
    # teleport: rx, h, cx (2 qubits), cx (2 qubits), h, then the two
    # conditioned single-qubit corrections = 9 single-qubit channel
    # applications per sweep; 3 measurements with readout confusion.
    assert info.evolutions == 1
    assert info.channel_applications == 9
    assert info.readout_applications == 3


def test_never_fired_conditioned_gate_counts_no_channel_event():
    """A gate conditioned on a bit that never reads the required value
    applies no noise — both engines must report zero channel events
    (the batched engine's masked draw no-ops on an empty mask)."""
    circuit = Circuit(num_qubits=2, num_bits=2, output_bits=[1])
    circuit.add(Measurement(0, 0))  # qubit 0 is |0>: bit 0 always 0
    circuit.add(CircuitGate("x", (1,), condition=(0, 1)))  # never fires
    circuit.add(Measurement(1, 1))
    model = NoiseModel().add_channel(depolarizing(0.2), gates=("x",))
    for backend in ("statevector", "interpreter"):
        _, info = run_circuit_with_info(
            circuit, shots=64, seed=0,
            backend=backend, noise_model=model,
        )
        assert info.channel_applications == 0, backend


def test_runinfo_counts_scale_with_chunking():
    """Two sweeps double the per-sweep noise-event counts."""
    circuit = teleport_circuit()
    model = teleport_noise_model()
    stats = NoiseStats()
    # 3 qubits -> 128 bytes/shot; cap the envelope to force 2 chunks.
    _, sweeps = batched_run(
        circuit, shots=100, seed=1, max_batch_bytes=50 * 128,
        noise_model=model, stats=stats,
    )
    assert sweeps == 2
    assert stats.channel_applications == 18
    assert stats.readout_applications == 6


def test_noisy_batched_run_is_deterministic():
    circuit = conditioned_fanout_circuit()
    model = teleport_noise_model()
    first = run_circuit_with_info(
        circuit, shots=128, seed=5,
        backend="statevector", noise_model=model,
    )[0]
    second = run_circuit_with_info(
        circuit, shots=128, seed=5,
        backend="statevector", noise_model=model,
    )[0]
    third = run_circuit_with_info(
        circuit, shots=128, seed=6,
        backend="statevector", noise_model=model,
    )[0]
    assert first == second
    assert first != third


def test_kernel_entry_points_thread_noise_model():
    from repro.algorithms import bernstein_vazirani
    from repro.noise import standard_noise_model

    kernel = bernstein_vazirani("101")
    assert kernel.histogram(shots=32) == {"101": 32}
    noisy = kernel.histogram(
        shots=2048, noise_model=standard_noise_model(0.08)
    )
    assert max(noisy, key=noisy.get) == "101"
    assert len(noisy) > 1  # noise produced corrupted readouts
    # The density backend agrees through the same entry point.
    dense = kernel.histogram(
        shots=2048,
        backend="density_matrix",
        noise_model=standard_noise_model(0.08),
    )
    assert max(dense, key=dense.get) == "101"
