"""Statevector helpers over the one engine, :mod:`repro.sim.batched`.

:func:`run_circuit` samples a flat circuit through the pluggable
backends of :mod:`repro.sim.backend` (together, the reproduction's
substitute for qir-runner, paper §7); :func:`apply_gates_to_state` and
:func:`unitary_of_gates` evolve a gate list — plain
:class:`~repro.qcircuit.circuit.CircuitGate` entries and compile-time
:class:`~repro.qcircuit.fusion.FusedUnitary` blocks alike — on a
:class:`~repro.sim.batched.BatchedStatevector`.

Convention: qubit 0 is the *leftmost* qubit of a ket, matching the
position order of Qwerty qubit literals ('10' means qubit 0 is |1> and
qubit 1 is |0>), so basis state index ``x`` has qubit ``q`` equal to
bit ``(x >> (n - 1 - q)) & 1``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.qcircuit.circuit import Circuit
from repro.sim.batched import BatchedStatevector

__all__ = [
    "apply_gates_to_state",
    "run_circuit",
    "unitary_of_gates",
]


def run_circuit(
    circuit: Circuit,
    shots: int = 1,
    seed: int = 0,
    backend: str | None = None,
    noise_model=None,
    parallel_workers: Optional[int] = None,
) -> list[tuple[int, ...]]:
    """Run ``shots`` executions of ``circuit``; returns output-bit tuples.

    ``backend`` names a registered simulation backend (see
    :mod:`repro.sim.backend` and docs/simulators.md).  ``None`` resolves
    to the one shared :data:`~repro.sim.backend.DEFAULT_BACKEND` — the
    vectorized ``"statevector"`` sampler — like every other execution
    entry point (``simulate_kernel``, ``kernel()``,
    ``interpret_module``).  Pass ``backend="density_matrix"`` for the
    exact reference, and ``noise_model`` (a
    :class:`repro.noise.NoiseModel`) to execute under noise
    (docs/noise.md).

    Like every shot run, this goes through the parallel shot executor
    (:mod:`repro.exec`): ``parallel_workers`` chunks (``None`` means
    1, ``0`` one per core), each seeded from ``seed``, so results are
    deterministic per ``(seed, workers)`` (docs/performance.md).
    """
    from repro.sim.backend import run_circuit_with_info

    results, _ = run_circuit_with_info(
        circuit,
        shots,
        seed,
        backend=backend,
        noise_model=noise_model,
        parallel_workers=parallel_workers,
    )
    return results


def apply_gates_to_state(
    gates: Sequence,
    num_qubits: int,
    initial: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply a gate list to a statevector (default |0...0>).

    Accepts :class:`~repro.qcircuit.circuit.CircuitGate` and
    :class:`~repro.qcircuit.fusion.FusedUnitary` entries, so fused and
    unfused circuits can be compared through one helper.
    """
    engine = BatchedStatevector(1, num_qubits)
    if initial is not None:
        if initial.size != 2**num_qubits:
            raise SimulationError("initial state has the wrong dimension")
        engine.state[0] = initial.reshape(engine.state.shape[1:])
    for gate in gates:
        engine.apply(gate)
    return engine.state.reshape(-1)


def unitary_of_gates(
    gates: Sequence, num_qubits: int
) -> np.ndarray:
    """The full 2^n x 2^n unitary of a gate list (small n only).

    One sweep evolves all 2^n basis states as the rows of a batch; row
    ``c`` ends as column ``c`` of the unitary.
    """
    dim = 2**num_qubits
    if num_qubits > 10:
        raise SimulationError("unitary extraction limited to 10 qubits")
    engine = BatchedStatevector(dim, num_qubits)
    rows = engine.state.reshape(dim, -1)
    rows[...] = np.eye(dim, rows.shape[1])
    for gate in gates:
        engine.apply(gate)
    return rows[:, :dim].T
