"""Exact density-matrix simulation: the small-n noise reference.

The ``density_matrix`` backend evolves the full density operator
:math:`\\rho` as a ``(2, …, 2)`` tensor with ``2n`` axes — axis ``q``
is qubit ``q``'s *row* index, axis ``n + q`` its *column* index — so a
gate applies as two :func:`~repro.sim.kernels.apply_matrix_inplace`
sweeps (:math:`U` on the row axes, :math:`\\overline{U}` on the column
axes) and a Kraus channel as the exact sum
:math:`\\rho \\mapsto \\sum_i K_i \\rho K_i^\\dagger`.

Memory envelope: :math:`\\rho` holds :math:`4^n` complex128 amplitudes
— the *square* of a statevector — so the backend is capped at
:data:`MAX_DENSITY_QUBITS` qubits (12 ⇒ 256 MiB).  It is the
reference the stochastic Kraus-unraveling engines are validated
against, not a throughput backend.

Mid-circuit measurement and classically conditioned gates run by
*branching on the classical register*: the state is a list of
``(probability, bits, rho)`` branches, a measurement splits each branch
by outcome (and, under a readout confusion matrix, by recorded bit),
and branches with identical classical bits are re-merged into one
mixture — bounding the branch count by the number of distinct
classical-register values, and keeping the whole evolution exact.
Sampling happens once at the end, from the exact output distribution.

For *terminal-measurement* circuits the backend skips branching
entirely and draws shots from the diagonal of :math:`\\rho` through the
same sampling helper as the vectorized statevector backend — with the
same seed convention, so at zero noise the two backends' histograms
match **exactly**, not just in distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.qcircuit.fusion import FusedUnitary, controlled_matrix
from repro.sim.backend import (
    RunInfo,
    SimBackend,
    register_backend,
    sample_marginal,
    terminal_marginal,
    terminal_measurement_plan,
)
from repro.sim.kernels import (
    active_kernel_name,
    apply_matrix_inplace,
    gate_matrix,
)

__all__ = [
    "MAX_DENSITY_QUBITS",
    "DensityMatrixBackend",
    "DensityMatrixSimulator",
    "controlled_matrix",  # canonical home: repro.qcircuit.fusion
]

#: Dense density-matrix limit: 4^n complex128 amplitudes (4^12 = 256 MiB).
MAX_DENSITY_QUBITS = 12

#: Branches below this probability are pruned (they cannot influence
#: any reported digit of the output distribution).
_BRANCH_EPSILON = 1e-15

_PROJECT_ZERO = np.array([[1, 0], [0, 0]], dtype=complex)
_X_PROJECT_ONE = np.array([[0, 1], [0, 0]], dtype=complex)  # X @ P1


class DensityMatrixSimulator:
    """One density operator on ``num_qubits`` qubits, evolved exactly."""

    def __init__(self, num_qubits: int) -> None:
        if num_qubits > MAX_DENSITY_QUBITS:
            raise SimulationError(
                f"{num_qubits} qubits exceeds the density-matrix limit "
                f"of {MAX_DENSITY_QUBITS} (rho holds 4^n amplitudes)"
            )
        self.num_qubits = num_qubits
        axes = max(num_qubits, 1)
        self._axes = axes
        self.rho = np.zeros((2,) * (2 * axes), dtype=complex)
        self.rho[(0,) * (2 * axes)] = 1.0

    def copy(self) -> "DensityMatrixSimulator":
        duplicate = object.__new__(DensityMatrixSimulator)
        duplicate.num_qubits = self.num_qubits
        duplicate._axes = self._axes
        duplicate.rho = self.rho.copy()
        return duplicate

    # ------------------------------------------------------------------
    # Unitary evolution.
    # ------------------------------------------------------------------
    def _row_axes(self, qubits) -> tuple[int, ...]:
        return tuple(qubits)

    def _col_axes(self, qubits) -> tuple[int, ...]:
        return tuple(self._axes + q for q in qubits)

    def apply_unitary(self, matrix: np.ndarray, qubits) -> None:
        """rho -> U rho U^dag on the given qubits."""
        apply_matrix_inplace(self.rho, matrix, self._row_axes(qubits))
        apply_matrix_inplace(
            self.rho, matrix.conj(), self._col_axes(qubits)
        )

    def apply_gate(self, gate: CircuitGate) -> None:
        matrix = controlled_matrix(
            gate_matrix(gate.name, gate.params), gate.ctrl_states
        )
        self.apply_unitary(matrix, gate.qubits)

    # ------------------------------------------------------------------
    # Channels and non-unitary operations.
    # ------------------------------------------------------------------
    def apply_operators(self, operators, qubits) -> None:
        """rho -> sum_i K_i rho K_i^dag (exact Kraus-sum application)."""
        rows = self._row_axes(qubits)
        cols = self._col_axes(qubits)
        result: Optional[np.ndarray] = None
        for op in operators:
            term = self.rho.copy()
            apply_matrix_inplace(term, op, rows)
            apply_matrix_inplace(term, op.conj(), cols)
            result = term if result is None else result + term
        self.rho = result

    def apply_channel(self, channel, qubits) -> None:
        self.apply_operators(channel.operators, qubits)

    def diagonal_probabilities(self) -> np.ndarray:
        """The computational-basis distribution as a ``(2, …, 2)`` real
        tensor (one axis per qubit) — the diagonal of rho."""
        dim = 1 << self._axes
        diagonal = self.rho.reshape(dim, dim).diagonal().real
        return diagonal.reshape((2,) * self._axes).copy()

    def probability_one(self, qubit: int) -> float:
        index: list = [slice(None)] * self._axes
        index[qubit] = 1
        return float(self.diagonal_probabilities()[tuple(index)].sum())

    def project(self, qubit: int, outcome: int, probability: float) -> None:
        """Collapse ``qubit`` to ``outcome`` (probability must be its
        pre-computed likelihood; the caller branches on both outcomes)."""
        if probability <= 0.0:
            raise SimulationError(
                "projection onto zero-probability outcome"
            )
        index: list = [slice(None)] * self.rho.ndim
        index[qubit] = 1 - outcome
        self.rho[tuple(index)] = 0.0
        index = [slice(None)] * self.rho.ndim
        index[self._axes + qubit] = 1 - outcome
        self.rho[tuple(index)] = 0.0
        self.rho /= probability

    def reset(self, qubit: int) -> None:
        """Reset to |0> without recording: P0 rho P0 + X P1 rho P1 X."""
        self.apply_operators((_PROJECT_ZERO, _X_PROJECT_ONE), (qubit,))

    def trace(self) -> float:
        dim = 1 << self._axes
        return float(self.rho.reshape(dim, dim).trace().real)


@dataclass(frozen=True)
class _Branch:
    """One classical-register branch of an exact noisy evolution."""

    probability: float
    bits: tuple[int, ...]
    sim: DensityMatrixSimulator


class DensityMatrixBackend(SimBackend):
    """Exact rho evolution under a noise model (the small-n reference).

    ``run_with_info`` computes the exact output distribution once
    (``evolutions == 1`` regardless of shot count) and samples shots
    from it.  Zero-noise terminal-measurement circuits reuse the
    vectorized statevector backend's sampling helper with the same
    seed convention, so their histograms match that backend exactly.
    """

    name = "density_matrix"

    def run_with_info(
        self,
        circuit: Circuit,
        shots: int = 1,
        seed: int = 0,
        noise_model=None,
    ) -> tuple[list[tuple[int, ...]], RunInfo]:
        from repro.noise.model import NoiseStats, effective_noise_model

        noise_model = effective_noise_model(noise_model)
        stats = NoiseStats()
        rng = np.random.default_rng(seed)
        plan = self._usable_terminal_plan(circuit, noise_model)
        if plan is not None:
            probabilities = self._terminal_probabilities(
                circuit, noise_model, stats
            )
            results = sample_marginal(
                terminal_marginal(probabilities, circuit, plan),
                circuit,
                plan,
                shots,
                rng,
            )
        else:
            distribution = self._branched_distribution(
                circuit, noise_model, stats
            )
            outcomes = sorted(distribution)
            weights = np.array(
                [distribution[outcome] for outcome in outcomes]
            )
            weights = weights / weights.sum()
            drawn = rng.choice(len(outcomes), size=shots, p=weights)
            results = [outcomes[index] for index in drawn]
        from repro.qcircuit.fusion import fused_gate_savings

        info = RunInfo(
            self.name,
            shots,
            evolutions=1,
            fast_path=plan is not None,
            channel_applications=stats.channel_applications,
            readout_applications=stats.readout_applications,
            gates_fused=fused_gate_savings(circuit),
            kernel=active_kernel_name(),
        )
        return results, info

    # ------------------------------------------------------------------
    # Exact distributions (also the public analysis API).
    # ------------------------------------------------------------------
    def output_distribution(
        self, circuit: Circuit, noise_model=None
    ) -> dict[tuple[int, ...], float]:
        """The exact probability of every output-bit tuple.

        The analysis twin of :meth:`run_with_info`: no sampling, just
        the distribution the shots are drawn from.  Benchmarks use it
        to compute fidelity-vs-noise-strength tables, and the
        unraveling tests converge to it.
        """
        from repro.noise.model import NoiseStats, effective_noise_model

        noise_model = effective_noise_model(noise_model)
        stats = NoiseStats()
        plan = self._usable_terminal_plan(circuit, noise_model)
        output = list(circuit.output_bits or range(circuit.num_bits))
        if plan is None:
            return self._branched_distribution(circuit, noise_model, stats)
        probabilities = self._terminal_probabilities(
            circuit, noise_model, stats
        )
        if not plan:
            return {(0,) * len(output): 1.0}
        marginal = terminal_marginal(probabilities, circuit, plan)
        measured = sorted({m.qubit for m in plan})
        position = {qubit: i for i, qubit in enumerate(measured)}
        width = len(measured)
        distribution: dict[tuple[int, ...], float] = {}
        for index, probability in enumerate(marginal):
            if probability <= 0.0:
                continue
            bits = [0] * circuit.num_bits
            for meas in plan:
                bits[meas.bit] = (
                    index >> (width - 1 - position[meas.qubit])
                ) & 1
            key = tuple(bits[i] for i in output)
            distribution[key] = distribution.get(key, 0.0) + float(
                probability
            )
        return distribution

    @staticmethod
    def _usable_terminal_plan(circuit: Circuit, noise_model):
        """The terminal plan, unless readout confusion makes the
        marginal-folding shortcut wrong.

        The terminal path folds confusion once per measured *qubit*
        axis; a qubit measured into two bits would then record two
        perfectly correlated corrupted bits, while the trajectory
        engines draw one independent flip per ``Measurement``.  Such
        circuits (never emitted by the compiler, but legal) route
        through the branched path, whose per-measurement semantics
        match the other engines exactly.
        """
        plan = terminal_measurement_plan(circuit)
        if plan is None or noise_model is None:
            return plan
        measured = [m.qubit for m in plan]
        for qubit in {q for q in measured if measured.count(q) > 1}:
            if noise_model.readout_error_for(qubit) is not None:
                return None
        return plan

    def _terminal_probabilities(
        self, circuit: Circuit, noise_model, stats
    ) -> np.ndarray:
        """Evolve rho through gates + channels; return the diagonal with
        readout confusion folded onto each measured qubit's axis."""
        sim = DensityMatrixSimulator(circuit.num_qubits)
        for inst in circuit.instructions:
            if isinstance(inst, FusedUnitary):
                # Fused blocks carry no noise channels (channels attach
                # by gate name; noisy runs execute the unfused circuit).
                sim.apply_unitary(inst.matrix, inst.targets)
                continue
            if not isinstance(inst, CircuitGate):
                break  # terminal plan: only measurements/resets follow
            sim.apply_gate(inst)
            if noise_model is not None:
                for channel, qubits in noise_model.channels_for(inst):
                    sim.apply_channel(channel, qubits)
                    stats.channel_applications += 1
        probabilities = sim.diagonal_probabilities()
        if noise_model is not None:
            for qubit in sorted(
                {m.qubit for m in circuit.measurements}
            ):
                error = noise_model.readout_error_for(qubit)
                if error is None:
                    continue
                probabilities = np.moveaxis(
                    np.tensordot(
                        error.matrix.T,
                        probabilities,
                        axes=([1], [qubit]),
                    ),
                    0,
                    qubit,
                )
                stats.readout_applications += 1
        return probabilities

    def _branched_distribution(
        self, circuit: Circuit, noise_model, stats
    ) -> dict[tuple[int, ...], float]:
        branches = [
            _Branch(
                1.0,
                (0,) * circuit.num_bits,
                DensityMatrixSimulator(circuit.num_qubits),
            )
        ]
        for inst in circuit.instructions:
            if isinstance(inst, CircuitGate):
                applications = (
                    noise_model.channels_for(inst)
                    if noise_model is not None
                    else ()
                )
                for branch in branches:
                    if inst.condition is not None:
                        bit, required = inst.condition
                        if branch.bits[bit] != required:
                            continue
                    branch.sim.apply_gate(inst)
                    for channel, qubits in applications:
                        branch.sim.apply_channel(channel, qubits)
                        stats.channel_applications += 1
            elif isinstance(inst, FusedUnitary):
                for branch in branches:
                    branch.sim.apply_unitary(inst.matrix, inst.targets)
            elif isinstance(inst, Measurement):
                branches = self._measure(
                    branches, inst, noise_model, stats
                )
            elif isinstance(inst, Reset):
                for branch in branches:
                    branch.sim.reset(inst.qubit)
            else:
                raise SimulationError(f"unknown instruction {inst!r}")
        output = list(circuit.output_bits or range(circuit.num_bits))
        distribution: dict[tuple[int, ...], float] = {}
        for branch in branches:
            key = tuple(branch.bits[i] for i in output)
            distribution[key] = (
                distribution.get(key, 0.0) + branch.probability
            )
        total = sum(distribution.values())
        return {key: p / total for key, p in distribution.items()}

    def _measure(
        self, branches, inst: Measurement, noise_model, stats
    ) -> list[_Branch]:
        error = (
            noise_model.readout_error_for(inst.qubit)
            if noise_model is not None
            else None
        )
        if error is not None:
            stats.readout_applications += 1
        split: list[_Branch] = []
        for branch in branches:
            p_one = branch.sim.probability_one(inst.qubit)
            for outcome, probability in ((0, 1.0 - p_one), (1, p_one)):
                if probability <= _BRANCH_EPSILON:
                    continue
                collapsed = branch.sim.copy()
                collapsed.project(inst.qubit, outcome, probability)
                if error is None:
                    recorded_options = ((outcome, 1.0),)
                else:
                    recorded_options = tuple(
                        (recorded, float(error.matrix[outcome, recorded]))
                        for recorded in (0, 1)
                        if error.matrix[outcome, recorded]
                        > _BRANCH_EPSILON
                    )
                for index, (recorded, record_p) in enumerate(
                    recorded_options
                ):
                    bits = list(branch.bits)
                    bits[inst.bit] = recorded
                    split.append(
                        _Branch(
                            branch.probability * probability * record_p,
                            tuple(bits),
                            collapsed if index == 0 else collapsed.copy(),
                        )
                    )
        return self._merge(split)

    @staticmethod
    def _merge(branches: list[_Branch]) -> list[_Branch]:
        """Re-merge branches with identical classical bits into one
        mixture, bounding the branch count by the register's support."""
        grouped: dict[tuple[int, ...], list[_Branch]] = {}
        for branch in branches:
            grouped.setdefault(branch.bits, []).append(branch)
        merged: list[_Branch] = []
        for bits, group in grouped.items():
            if len(group) == 1:
                merged.append(group[0])
                continue
            total = sum(branch.probability for branch in group)
            mixed = group[0].sim.copy()
            mixed.rho *= group[0].probability / total
            for branch in group[1:]:
                mixed.rho += (branch.probability / total) * branch.sim.rho
            merged.append(replace(group[0], probability=total, sim=mixed))
        return merged


register_backend(DensityMatrixBackend.name, DensityMatrixBackend)
