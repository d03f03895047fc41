"""Property-based differential testing across every execution engine.

One hypothesis strategy generates random flat circuits — arbitrary
known gates with random controls/polarities and rotation angles, and
(for the trajectory tests) mid-circuit measurement, classical
conditioning, and reset — and every engine configuration must produce
statistically equivalent histograms:

- the per-shot **interpreter** (the reference trajectory engine),
- the vectorized **statevector** backend (terminal-measurement fast
  path *and* the batched trajectory engine),
- **fused** vs unfused execution (``fuse_adjacent_gates``),
- under **Pauli noise**, the stochastic Kraus unraveling,

each judged against the exact **density-matrix** distribution with the
derived TVD thresholds of ``tests/stats.py`` — no hand-tuned margins.
A disagreement means two engines implement different physics for the
same circuit; hypothesis then shrinks it to a minimal reproducer.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.noise import NoiseModel, bit_flip, depolarizing, phase_flip
from repro.qcircuit.circuit import (
    KNOWN_GATES,
    Circuit,
    CircuitGate,
    Measurement,
    Reset,
)
from repro.qcircuit.fusion import fuse_adjacent_gates
from repro.sim import get_backend, run_circuit

from tests.stats import assert_matches_distribution, tvd_threshold

MAX_QUBITS = 4
SHOTS = 1500

ROTATION_GATES = ("p", "rx", "ry", "rz")
FIXED_GATES = tuple(
    sorted(set(KNOWN_GATES) - set(ROTATION_GATES) - {"swap"})
)

# A small palette of angles (including symmetry points) beats floats
# drawn from a continuum: shrinking converges and corpus entries are
# stable across runs.
ANGLES = tuple(
    float(a)
    for a in np.concatenate(
        [
            np.array([0.0, np.pi / 4, np.pi / 2, np.pi, -np.pi / 3]),
            np.linspace(0.1, 2.9, 8),
        ]
    )
)


@st.composite
def gates(draw, num_qubits: int):
    """One random gate: fixed/rotation/swap, with optional controls."""
    kind = draw(st.sampled_from(["fixed", "rotation", "swap"]))
    if kind == "swap" and num_qubits >= 2:
        a, b = draw(
            st.permutations(range(num_qubits)).map(lambda p: p[:2])
        )
        return CircuitGate("swap", (a, b))
    if kind == "rotation":
        name = draw(st.sampled_from(ROTATION_GATES))
        params = (draw(st.sampled_from(ANGLES)),)
    else:
        name = draw(st.sampled_from(FIXED_GATES))
        params = ()
    order = draw(st.permutations(range(num_qubits)))
    target = order[0]
    max_controls = min(2, num_qubits - 1)
    num_controls = draw(st.integers(0, max_controls))
    controls = tuple(order[1 : 1 + num_controls])
    ctrl_states = tuple(
        draw(st.sampled_from([0, 1])) for _ in controls
    )
    return CircuitGate(
        name, (target,), controls=controls,
        params=params, ctrl_states=ctrl_states,
    )


@st.composite
def terminal_circuits(draw):
    """Unitary circuit + measure-all: every backend's fast path."""
    num_qubits = draw(st.integers(1, MAX_QUBITS))
    circuit = Circuit(num_qubits, num_qubits)
    for gate in draw(st.lists(gates(num_qubits), min_size=1, max_size=10)):
        circuit.add(gate)
    for q in range(num_qubits):
        circuit.add(Measurement(q, q))
    circuit.output_bits = list(range(num_qubits))
    return circuit


@st.composite
def trajectory_circuits(draw):
    """Circuits with mid-circuit measurement, conditioning, and reset —
    the shapes that force per-shot (or batched-trajectory) execution."""
    num_qubits = draw(st.integers(2, MAX_QUBITS))
    circuit = Circuit(num_qubits, num_qubits)
    for gate in draw(st.lists(gates(num_qubits), min_size=1, max_size=5)):
        circuit.add(gate)
    measured = draw(st.integers(0, num_qubits - 1))
    circuit.add(Measurement(measured, measured))
    if draw(st.booleans()):
        circuit.add(Reset(measured))
    conditioned = draw(gates(num_qubits))
    circuit.add(
        CircuitGate(
            conditioned.name,
            conditioned.targets,
            controls=conditioned.controls,
            params=conditioned.params,
            ctrl_states=conditioned.ctrl_states,
            condition=(measured, draw(st.sampled_from([0, 1]))),
        )
    )
    for gate in draw(st.lists(gates(num_qubits), min_size=0, max_size=4)):
        circuit.add(gate)
    for q in range(num_qubits):
        if q != measured:
            circuit.add(Measurement(q, q))
    circuit.output_bits = list(range(num_qubits))
    return circuit


def _reference_distribution(circuit, noise_model=None):
    return get_backend("density_matrix").output_distribution(
        circuit, noise_model=noise_model
    )


def _check_config(label, outcomes, exact):
    assert_matches_distribution(
        outcomes,
        exact,
        outcomes=len(exact) + 1,
        label=label,
    )


@given(circuit=terminal_circuits(), seed=st.integers(0, 2**16))
def test_terminal_circuits_agree_across_engines(circuit, seed):
    exact = _reference_distribution(circuit)
    fused = fuse_adjacent_gates(circuit)
    configs = [
        ("statevector", circuit),
        ("statevector", fused),
        ("interpreter", circuit),
    ]
    for backend_name, form in configs:
        outcomes = run_circuit(
            form, shots=SHOTS, seed=seed, backend=backend_name
        )
        _check_config(
            backend_name + ("/fused" if form is fused else ""),
            outcomes,
            exact,
        )


@given(circuit=trajectory_circuits(), seed=st.integers(0, 2**16))
def test_trajectory_circuits_agree_across_engines(circuit, seed):
    exact = _reference_distribution(circuit)
    for backend_name in ("statevector", "interpreter"):
        outcomes = run_circuit(
            circuit, shots=SHOTS, seed=seed, backend=backend_name
        )
        _check_config(backend_name, outcomes, exact)


@given(
    circuit=terminal_circuits(),
    seed=st.integers(0, 2**16),
    strength=st.sampled_from([0.02, 0.08]),
    channel=st.sampled_from(["depolarizing", "bit_flip", "phase_flip"]),
)
def test_noisy_circuits_agree_with_exact_density(
    circuit, seed, strength, channel
):
    factory = {
        "depolarizing": depolarizing,
        "bit_flip": bit_flip,
        "phase_flip": phase_flip,
    }[channel]
    noise_model = NoiseModel().add_channel(factory(strength))
    exact = _reference_distribution(circuit, noise_model)
    for backend_name in ("statevector", "interpreter"):
        outcomes = run_circuit(
            circuit,
            shots=SHOTS,
            seed=seed,
            backend=backend_name,
            noise_model=noise_model,
        )
        _check_config(f"{backend_name}/{channel}", outcomes, exact)


def test_threshold_sanity():
    """The derived margin actually separates signal from noise at the
    harness's shot count: far below the O(0.3) TVD a wrong engine
    produces, far above the statistical fluctuation of a correct one."""
    threshold = tvd_threshold(SHOTS, outcomes=2**MAX_QUBITS + 1)
    assert 0.02 < threshold < 0.2
