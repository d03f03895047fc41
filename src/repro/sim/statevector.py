"""A dense statevector simulator for flat circuits.

The simulation engine under the pluggable backends of
:mod:`repro.sim.backend` (together, the reproduction's substitute for
qir-runner, paper §7): it executes the same circuits the backends emit,
including mid-circuit measurement, reset, classically conditioned
gates, multi-controlled gates with arbitrary control polarity, and the
:class:`~repro.qcircuit.fusion.FusedUnitary` blocks produced by the
compile-time fusion pass.  Gate matrices are cached per (name, params)
and every matrix application goes through the pluggable apply-kernel
registry (:mod:`repro.sim.kernels` — pure NumPy or the optional numba
JIT).

Convention: qubit 0 is the *leftmost* qubit of a ket, matching the
position order of Qwerty qubit literals ('10' means qubit 0 is |1> and
qubit 1 is |0>), so basis state index ``x`` has qubit ``q`` equal to
bit ``(x >> (n - 1 - q)) & 1``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.qcircuit.fusion import FusedUnitary
from repro.sim.kernels import apply_matrix_inplace, gate_matrix

__all__ = [
    "StatevectorSimulator",
    "apply_gates_to_state",
    "apply_matrix_inplace",
    "control_sliced_view",
    "gate_matrix",
    "run_circuit",
    "unitary_of_gates",
]


def control_sliced_view(
    state: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...],
    ctrl_states: tuple[int, ...],
    axis_offset: int = 0,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The control-sliced view of ``state`` plus renumbered target axes.

    Indexing each control qubit's axis at its required polarity yields
    the sub-array a controlled unitary acts on; the surviving target
    axes shrink by one for every removed control axis below them.
    ``axis_offset`` maps qubit numbers to array axes (0 for a bare
    statevector, 1 when axis 0 is the shot axis of a batch).  Shared by
    the single-shot simulator and the batched trajectory engine so
    control handling cannot diverge between them.
    """
    view = state
    if controls:
        index: list = [slice(None)] * state.ndim
        for qubit, required in zip(controls, ctrl_states):
            index[axis_offset + qubit] = required
        view = state[tuple(index)]
        removed = sorted(controls)
        targets = tuple(
            target - sum(1 for r in removed if r < target)
            for target in targets
        )
    return view, tuple(axis_offset + target for target in targets)


class StatevectorSimulator:
    """Simulates a fixed number of qubits plus a classical bit register."""

    def __init__(self, num_qubits: int, num_bits: int = 0, seed: int = 0) -> None:
        if num_qubits > 24:
            raise SimulationError(
                f"{num_qubits} qubits exceeds the dense-simulation limit"
            )
        self.num_qubits = num_qubits
        self.state = np.zeros((2,) * max(num_qubits, 1), dtype=complex)
        self.state[(0,) * max(num_qubits, 1)] = 1.0
        self.bits = [0] * num_bits
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Gate application.
    # ------------------------------------------------------------------
    def apply_gate(self, gate: CircuitGate) -> None:
        if gate.condition is not None:
            bit, required = gate.condition
            if self.bits[bit] != required:
                return
        matrix = gate_matrix(gate.name, gate.params)
        self._apply_matrix(matrix, gate.targets, gate.controls, gate.ctrl_states)

    def apply_unitary(
        self,
        matrix: np.ndarray,
        targets: tuple[int, ...],
        controls: tuple[int, ...] = (),
        ctrl_states: tuple[int, ...] = (),
    ) -> None:
        """Apply a raw (possibly fused) unitary to explicit qubits."""
        dim = 2 ** len(targets)
        if matrix.shape != (dim, dim):
            raise SimulationError(
                f"unitary of shape {matrix.shape} does not act on "
                f"{len(targets)} qubit(s)"
            )
        self._apply_matrix(matrix, targets, controls, ctrl_states)

    def apply(self, op: "CircuitGate | FusedUnitary") -> None:
        """Apply one gate or compile-time fused block."""
        if isinstance(op, FusedUnitary):
            self._apply_matrix(op.matrix, op.targets)
        else:
            self.apply_gate(op)

    def _apply_matrix(
        self,
        matrix: np.ndarray,
        targets: tuple[int, ...],
        controls: tuple[int, ...] = (),
        ctrl_states: tuple[int, ...] = (),
    ) -> None:
        view, axes = control_sliced_view(
            self.state, tuple(targets), controls, ctrl_states
        )
        apply_matrix_inplace(view, matrix, axes)

    # ------------------------------------------------------------------
    # Non-unitary operations.
    # ------------------------------------------------------------------
    def probability_one(self, qubit: int) -> float:
        index: list = [slice(None)] * self.num_qubits
        index[qubit] = 1
        return float(np.sum(np.abs(self.state[tuple(index)]) ** 2))

    def measure(self, qubit: int) -> int:
        p_one = self.probability_one(qubit)
        outcome = 1 if self.rng.random() < p_one else 0
        self._project(qubit, outcome, p_one)
        return outcome

    def _project(self, qubit: int, outcome: int, p_one: float) -> None:
        probability = p_one if outcome else 1.0 - p_one
        if probability <= 0.0:
            raise SimulationError("projection onto zero-probability outcome")
        index: list = [slice(None)] * self.num_qubits
        index[qubit] = 1 - outcome
        self.state[tuple(index)] = 0.0
        self.state /= math.sqrt(probability)

    def reset(self, qubit: int) -> None:
        outcome = self.measure(qubit)
        if outcome == 1:
            self.apply_gate(CircuitGate("x", (qubit,)))

    # ------------------------------------------------------------------
    # Stochastic Kraus unraveling (noise).
    # ------------------------------------------------------------------
    def apply_kraus(self, operators, targets) -> None:
        """Unravel one Kraus channel along this trajectory.

        Selects operator ``i`` with probability ``||K_i |psi>||^2``
        (one ``rng.random()`` draw, the same convention as
        :meth:`measure`) and collapses to the renormalized
        ``K_i |psi>``.  The single-shot twin of
        :meth:`repro.sim.batched.BatchedStatevector.apply_kraus`.
        """
        targets = tuple(targets)
        if len(operators) == 1:
            apply_matrix_inplace(self.state, operators[0], targets)
            return
        probabilities = []
        buffer = np.empty_like(self.state)
        for op in operators:
            buffer[...] = self.state
            apply_matrix_inplace(buffer, op, targets)
            probabilities.append(float(np.vdot(buffer, buffer).real))
        total = sum(probabilities)
        if total <= 0.0:
            raise SimulationError(
                "Kraus probabilities vanished (non-normalized state?)"
            )
        draw = self.rng.random() * total
        accumulated = 0.0
        chosen = len(operators) - 1
        for index, probability in enumerate(probabilities):
            accumulated += probability
            if draw < accumulated:
                chosen = index
                break
        apply_matrix_inplace(self.state, operators[chosen], targets)
        self.state /= math.sqrt(probabilities[chosen])

    # ------------------------------------------------------------------
    # Whole-circuit execution.
    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        noise_model=None,
        stats=None,
        channel_plan=None,
    ) -> list[int]:
        """Execute the circuit; returns the classical bit register.

        ``noise_model`` (a :class:`repro.noise.NoiseModel`) unravels
        each attached channel after its gate and corrupts recorded
        measurement bits through the model's readout confusion
        matrices; ``stats`` (a :class:`repro.noise.NoiseStats`)
        accumulates per-trajectory noise-event counts.
        ``channel_plan`` optionally supplies the per-instruction
        ``channels_for`` results precomputed by a caller running many
        trajectories of one circuit (rule matching is pure per
        instruction, so per-shot re-matching is wasted work).

        :class:`~repro.qcircuit.fusion.FusedUnitary` blocks execute as
        single sweeps; noise models attach channels by gate *name*, so
        fused blocks receive no channels — noisy runs should execute
        the unfused circuit (``simulate_kernel`` routes this
        automatically; see docs/performance.md).
        """
        for index, inst in enumerate(circuit.instructions):
            if isinstance(inst, CircuitGate):
                fired = True
                if inst.condition is not None:
                    bit, required = inst.condition
                    fired = self.bits[bit] == required
                self.apply_gate(inst)
                if fired and noise_model is not None:
                    applications = (
                        channel_plan[index]
                        if channel_plan is not None
                        else noise_model.channels_for(inst)
                    )
                    for channel, qubits in applications:
                        self.apply_kraus(channel.operators, qubits)
                        if stats is not None:
                            stats.channel_applications += 1
            elif isinstance(inst, FusedUnitary):
                self.apply(inst)
            elif isinstance(inst, Measurement):
                outcome = self.measure(inst.qubit)
                error = (
                    noise_model.readout_error_for(inst.qubit)
                    if noise_model is not None
                    else None
                )
                if error is not None:
                    flip_probability = (
                        error.p10 if outcome == 1 else error.p01
                    )
                    if self.rng.random() < flip_probability:
                        outcome ^= 1
                    if stats is not None:
                        stats.readout_applications += 1
                self.bits[inst.bit] = outcome
            elif isinstance(inst, Reset):
                self.reset(inst.qubit)
            else:
                raise SimulationError(f"unknown instruction {inst!r}")
        return list(self.bits)

    def statevector(self) -> np.ndarray:
        """The state as a flat 2^n vector (qubit 0 most significant)."""
        return self.state.reshape(-1)


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
    ``interpret_module``).  Pass ``backend="interpreter"`` for one
    independent trajectory per shot, and ``noise_model`` (a
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
    sim = StatevectorSimulator(num_qubits)
    if initial is not None:
        if initial.size != 2**num_qubits:
            raise SimulationError("initial state has the wrong dimension")
        sim.state = np.array(initial, dtype=complex).reshape((2,) * num_qubits)
    for gate in gates:
        sim.apply(gate)
    return sim.statevector()


def unitary_of_gates(
    gates: Sequence, num_qubits: int
) -> np.ndarray:
    """The full 2^n x 2^n unitary of a gate list (small n only)."""
    dim = 2**num_qubits
    if num_qubits > 10:
        raise SimulationError("unitary extraction limited to 10 qubits")
    unitary = np.zeros((dim, dim), dtype=complex)
    for column in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[column] = 1.0
        unitary[:, column] = apply_gates_to_state(gates, num_qubits, basis)
    return unitary
