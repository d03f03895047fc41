"""The statevector engine: shot-batched trajectories.

Every statevector simulation in the repository runs here — the
terminal-measurement fast path's single evolution, the module
interpreter, and the shot-batched trajectory runs of non-terminal
circuits (teleportation, repeat-until-success patterns, the
qubit-reuse layouts of Fig. 12).
One trajectory is simply a batch of one row.

The state is one ``(shots, 2, 2, ..., 2)`` complex array — axis 0 is
the shot, axis ``1 + q`` is qubit ``q`` (qubit 0 is the leftmost ket
bit) — and:

- gates and compile-time fused blocks apply via one
  :func:`~repro.sim.kernels.apply_matrix_inplace` sweep over the whole
  batch (the shot axis rides along in the matmul's column dimension);
- a :class:`~repro.qcircuit.circuit.Measurement` computes every shot's
  ``p(1)`` with one einsum, draws all outcomes from a single
  ``rng.random(shots)`` call, and scales each row's two halves in
  place (the complementary half by 0, the kept half by its
  renormalization);
- classically conditioned gates apply the unitary only to the
  boolean-masked sub-batch whose condition bit matches;
- :class:`~repro.qcircuit.circuit.Reset` composes a measurement with an
  X on the shots that collapsed to |1>;
- a Kraus channel (noisy runs — docs/noise.md) is unraveled with **one
  masked draw per application**: per-shot operator probabilities
  ``||K_i |psi>||^2`` from each shot's reduced density matrix on the
  channel's qubits, a single ``rng.random(shots)`` selection, and one
  sweep per chosen operator over its sub-batch (:meth:`apply_kraus`).

Memory envelope: the batch array holds ``shots x 2^n`` complex128
amplitudes (16 bytes each).  When that exceeds
:data:`MAX_BATCH_BYTES`, the shots are split into chunks and each chunk
runs as its own batched sweep — ``RunInfo.evolutions`` reports the
number of sweeps honestly (1 for teleportation at 4096 shots; more
only for very wide circuits at very high shot counts).

:func:`batched_run` drives every shot of a run from one
``Generator(seed)``: the one seed convention of every seeded
statevector run.  The shot executor passes each chunk's own
generator (:func:`repro.exec.parallel.chunk_stream`) as ``seed``.  See
docs/simulators.md ("Batched trajectory engine").
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.qcircuit.fusion import FusedUnitary
from repro.sim.kernels import apply_matrix_inplace, gate_matrix

#: The widest circuit the engine simulates: one row holds 2^n
#: complex128 amplitudes (24 qubits ⇒ 256 MiB).  The service rejects
#: wider suite requests before compiling them.
MAX_STATEVECTOR_QUBITS = 24

#: Memory envelope for one batched state array, in bytes.  A batch of
#: ``shots`` trajectories on ``n`` qubits holds ``shots * 2^n``
#: complex128 amplitudes; shot counts that would exceed this envelope
#: are chunked into multiple batched sweeps.
MAX_BATCH_BYTES = 1 << 28  # 256 MiB

_BYTES_PER_AMPLITUDE = 16  # complex128

#: Compared against each shot's outcome to pick the half it keeps.
_OUTCOMES = np.array([False, True])

_SWEEPS = _metrics.counter(
    "repro_sim_sweeps_total",
    "Simulator sweeps by engine (batched evolutions, fast-path evolutions "
    "on a marginal-memo miss)",
    labels=("engine",),
)


def batch_chunk_size(
    num_qubits: int, max_batch_bytes: int = MAX_BATCH_BYTES
) -> int:
    """Largest shot count whose batch state fits the memory envelope."""
    dim = 2 ** max(num_qubits, 1)
    return max(1, max_batch_bytes // (dim * _BYTES_PER_AMPLITUDE))


def control_sliced_view(
    states: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...],
    ctrl_states: tuple[int, ...],
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The control-sliced view of a batch array plus its target axes.

    ``states`` has a leading batch axis and qubit ``q`` on axis
    ``1 + q``.  Indexing each control qubit's axis at its required
    polarity yields the sub-array a controlled unitary acts on; the
    surviving target axes shrink by one for every removed control axis
    below them.  The batch axis always survives.
    """
    if not controls:
        return states, tuple(1 + target for target in targets)
    index: list = [slice(None)] * states.ndim
    for qubit, required in zip(controls, ctrl_states):
        index[1 + qubit] = required
    removed = sorted(controls)
    return states[tuple(index)], tuple(
        1 + target - sum(1 for r in removed if r < target)
        for target in targets
    )


def channel_plan(circuit: Circuit, noise_model) -> Optional[list]:
    """Each instruction's ``channels_for`` result, or ``None`` when the
    run is noiseless.  Rule matching is a pure function of the
    instruction, so a run computes its plan once, not once per shot or
    chunk."""
    if noise_model is None:
        return None
    return [
        noise_model.channels_for(inst)
        if isinstance(inst, CircuitGate)
        else None
        for inst in circuit.instructions
    ]


def _probability_one(halves: np.ndarray) -> np.ndarray:
    """Each row's ``p(1)`` from a :meth:`BatchedStatevector._halves`
    view."""
    one = halves[:, :, 1, :]
    return np.einsum("sij,sij->s", one, one)


class BatchedStatevector:
    """``shots`` statevector trajectories evolved as one array.

    Qubit 0 is the leftmost ket bit; every operation is vectorized
    across the batch, and one trajectory is a 1-row batch.  ``bits``
    is the ``(shots, num_bits)`` classical register.
    """

    def __init__(
        self,
        shots: int,
        num_qubits: int,
        num_bits: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if num_qubits > MAX_STATEVECTOR_QUBITS:
            raise SimulationError(
                f"{num_qubits} qubits exceeds the dense-simulation limit "
                f"of {MAX_STATEVECTOR_QUBITS}"
            )
        if shots < 1:
            raise SimulationError("a batch needs at least one shot")
        self.shots = shots
        self.num_qubits = num_qubits
        axes = max(num_qubits, 1)
        self.state = np.zeros((shots,) + (2,) * axes, dtype=complex)
        self.state[(slice(None),) + (0,) * axes] = 1.0
        self.bits = np.zeros((shots, num_bits), dtype=np.int64)
        self.rng = rng if rng is not None else np.random.default_rng(0)

    # ------------------------------------------------------------------
    # Gate application.
    # ------------------------------------------------------------------
    def apply(self, op: "CircuitGate | FusedUnitary") -> None:
        """Apply one gate or compile-time fused block to every shot."""
        if isinstance(op, FusedUnitary):
            axes = tuple(1 + q for q in op.targets)
            apply_matrix_inplace(self.state, op.matrix, axes)
        else:
            self.apply_gate(op)

    def apply_gate(
        self, gate: CircuitGate, matrix: Optional[np.ndarray] = None
    ) -> None:
        """Apply ``gate``, only on the shots whose condition bit
        matches when it is classically conditioned.  ``matrix``, a
        ``(shots, d, d)`` stack for an unconditioned gate, replaces the
        gate's own matrix with one per row."""
        mask = self._fired(gate)
        if mask is not False:
            self._apply_to_masked(mask, gate, matrix)

    def _fired(self, gate: CircuitGate) -> "Optional[np.ndarray] | bool":
        """The shots ``gate`` fires on: ``None`` for every shot, a
        boolean mask for some, ``False`` for none."""
        if gate.condition is None:
            return None
        bit, required = gate.condition
        mask = self.bits[:, bit] == required
        fired = np.count_nonzero(mask)
        if fired == self.shots:
            return None
        return mask if fired else False

    def _apply_to_masked(
        self, mask: Optional[np.ndarray], gate: CircuitGate, matrix=None
    ) -> None:
        """Apply ``gate`` (or ``matrix`` in its place) to the
        trajectories ``mask`` selects (all of them when ``mask`` is
        ``None``).

        Fancy indexing copies the selected trajectories out, so a
        sub-batch must be scattered back after the gate.
        """
        states = self.state if mask is None else self.state[mask]
        view, axes = control_sliced_view(
            states, gate.targets, gate.controls, gate.ctrl_states
        )
        if matrix is None:
            matrix = gate_matrix(gate.name, gate.params)
        apply_matrix_inplace(view, matrix, axes)
        if mask is not None:
            self.state[mask] = states

    # ------------------------------------------------------------------
    # Non-unitary operations.
    # ------------------------------------------------------------------
    def _halves(self, qubit: int) -> np.ndarray:
        """The state as real ``(shots, 2^qubit, 2, rest)``: axis 2 is
        ``qubit``'s value, the last axis interleaves real and imaginary
        parts.  A view, so writes land in the state."""
        return self.state.view(np.float64).reshape(
            self.shots, 1 << qubit, 2, -1
        )

    def probability_one(self, qubit: int) -> np.ndarray:
        """Each shot's probability that ``qubit`` reads 1."""
        return _probability_one(self._halves(qubit))

    def measure(self, qubit: int) -> np.ndarray:
        """Measure ``qubit`` on every shot; returns the outcome vector.

        One ``rng.random(shots)`` draw decides all outcomes
        (``outcome = random() < p(1)``, so the kept half always has
        nonzero probability); each row's complementary half is scaled
        by 0 and its kept half by ``1/sqrt(p(outcome))``, in place.
        """
        halves = self._halves(qubit)
        if self.shots == 1:
            # One trajectory: the same draw and scaling on Python
            # scalars, which beat ufuncs over 1-element arrays.
            one = halves[:, :, 1]
            p = float(np.vdot(one, one))
            outcome = int(self.rng.random() < p)
            halves[:, :, 1 - outcome] = 0.0
            kept = halves[:, :, outcome]
            kept *= 1.0 / math.sqrt(p if outcome else 1.0 - p)
            return np.array([outcome])
        p_one = _probability_one(halves)
        ones = self.rng.random(self.shots) < p_one
        norm = 1.0 / np.sqrt(np.where(ones, p_one, 1.0 - p_one))
        scale = norm[:, None] * (ones[:, None] == _OUTCOMES)
        halves *= scale[:, None, :, None]
        return ones.astype(np.int64)

    def reset(self, qubit: int) -> None:
        """Reset ``qubit`` to |0> on every shot: measure, then move the
        surviving |1> half of the shots that read 1 into |0>."""
        ones = self.measure(qubit) == 1
        if ones.any():
            rows = slice(None) if ones.all() else ones
            halves = self._halves(qubit)
            halves[rows, :, 0] = halves[rows, :, 1]
            halves[rows, :, 1] = 0.0

    # ------------------------------------------------------------------
    # Stochastic Kraus unraveling (noise).
    # ------------------------------------------------------------------
    def apply_kraus(
        self,
        channel,
        qubits,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Unravel one :class:`~repro.noise.KrausChannel` on ``qubits``
        across the batch, in one draw.

        Each shot independently selects operator ``i`` with probability
        ``||K_i |psi>||^2`` and collapses to ``K_i |psi> / ||...||`` —
        the trajectory unraveling whose shot-average reproduces the
        channel's exact density-matrix action.  The whole batch is
        served by **one** ``rng.random(shots)`` draw, mirroring how
        measurement is batched, then one sweep per chosen operator over
        the shots that chose it.  ``mask`` restricts the channel to a
        sub-batch (the shots whose classical condition fired alongside
        the noisy gate).
        """
        axes = tuple(1 + q for q in qubits)
        if mask is not None:
            if not mask.any():
                return
            if mask.all():
                mask = None
        if mask is None:
            self._kraus_on_states(self.state, channel, axes)
            return
        sub = self.state[mask]
        self._kraus_on_states(sub, channel, axes)
        self.state[mask] = sub

    def _kraus_on_states(self, states, channel, axes) -> None:
        count = states.shape[0]
        operators = channel.operators
        if len(operators) == 1:
            # One operator: completeness makes it norm-preserving (up
            # to float drift), so no draw and no renormalization.
            apply_matrix_inplace(states, operators[0], axes)
            return
        # Per-shot selection probabilities ||K_i |psi>||^2, as
        # tr(K_i^dag K_i rho) over each shot's reduced density matrix
        # rho on the channel's qubits: a fixed number of einsums
        # however many operators the channel has.
        rest = tuple(a for a in range(1, states.ndim) if a not in axes)
        block = states.transpose((0,) + axes + rest).reshape(
            count, 1 << len(axes), -1
        )
        rho = np.einsum("sar,sbr->sab", block, block.conj())
        probabilities = np.einsum("iac,sca->is", channel.gram, rho).real
        cumulative = np.cumsum(probabilities, axis=0)
        totals = cumulative[-1]  # ~1.0 by CPTP
        if not totals.all():
            raise SimulationError(
                "Kraus probabilities vanished (non-normalized state?)"
            )
        # Operator i is chosen when its cumulative range holds the draw.
        draws = self.rng.random(count) * totals
        chosen = (draws >= cumulative[:-1]).sum(axis=0)
        shape = (-1,) + (1,) * (states.ndim - 1)
        if count == 1 or (chosen == chosen[0]).all():
            # Every row picked the same operator (always so for one
            # trajectory): apply it in place, no sub-batch copies.
            index = int(chosen[0])
            apply_matrix_inplace(states, operators[index], axes)
            states /= np.sqrt(probabilities[index]).reshape(shape)
            return
        for index, op in enumerate(operators):
            mask = chosen == index
            if not mask.any():
                continue
            sub = states[mask]
            apply_matrix_inplace(sub, op, axes)
            sub /= np.sqrt(probabilities[index, mask]).reshape(shape)
            states[mask] = sub

    def _record_measurement(
        self, inst: Measurement, noise_model, stats
    ) -> None:
        """Measure, then corrupt the *recorded* bits through the
        qubit's readout confusion matrix (one vectorized flip draw)."""
        outcomes = self.measure(inst.qubit)
        error = (
            noise_model.readout_error_for(inst.qubit)
            if noise_model is not None
            else None
        )
        if error is not None:
            flip_probability = np.where(
                outcomes == 1, error.p10, error.p01
            )
            flips = self.rng.random(self.shots) < flip_probability
            outcomes = outcomes ^ flips.astype(np.int64)
            if stats is not None:
                stats.readout_applications += 1
        self.bits[:, inst.bit] = outcomes

    # ------------------------------------------------------------------
    # Whole-circuit execution.
    # ------------------------------------------------------------------
    def run(
        self, circuit: Circuit, noise_model=None, stats=None, plan=None
    ) -> np.ndarray:
        """Execute the circuit; returns the (shots, num_bits) register.

        ``noise_model`` unravels each attached channel right after its
        gate (restricted to the fired sub-batch for conditioned gates)
        and corrupts recorded measurement bits per the model's readout
        errors; ``stats`` (a :class:`repro.noise.NoiseStats`)
        accumulates the per-sweep noise-event counts.  ``plan`` is the
        run's :func:`channel_plan`, computed here when not given.

        Noise models attach channels by gate *name*, so fused blocks
        receive no channels — noisy runs execute the unfused circuit
        (``simulate_kernel`` routes this automatically; see
        docs/performance.md).
        """
        if noise_model is not None and plan is None:
            plan = channel_plan(circuit, noise_model)
        for index, inst in enumerate(circuit.instructions):
            if isinstance(inst, CircuitGate):
                mask = self._fired(inst)
                if mask is False:
                    # A conditioned gate that fired on no shot applies
                    # neither its unitary nor its noise.
                    continue
                self._apply_to_masked(mask, inst)
                if plan is not None:
                    for channel, qubits in plan[index]:
                        self.apply_kraus(channel, qubits, mask)
                        if stats is not None:
                            stats.channel_applications += 1
            elif isinstance(inst, FusedUnitary):
                self.apply(inst)
            elif isinstance(inst, Measurement):
                self._record_measurement(inst, noise_model, stats)
            elif isinstance(inst, Reset):
                self.reset(inst.qubit)
            else:
                raise SimulationError(f"unknown instruction {inst!r}")
        return self.bits


def batched_run(
    circuit: Circuit,
    shots: int,
    seed: int = 0,
    max_batch_bytes: int = MAX_BATCH_BYTES,
    noise_model=None,
    stats=None,
) -> tuple[np.ndarray, int]:
    """Run ``shots`` trajectories batched; returns ``(results, sweeps)``
    with the results as one ``(shots, output bits)`` uint8 array.

    ``sweeps`` is the number of batched evolutions performed: 1 when
    all shots fit the :data:`MAX_BATCH_BYTES` envelope, more when the
    shot count had to be chunked.  One ``Generator(seed)`` drives every
    chunk in order, so results are deterministic per
    ``(circuit, shots, seed, max_batch_bytes)``.

    ``noise_model`` unravels the model's channels stochastically (one
    masked Kraus draw per channel application per sweep — see
    :meth:`BatchedStatevector.apply_kraus`); ``stats`` (a
    :class:`repro.noise.NoiseStats`) accumulates noise-event counts
    across chunks.
    """
    output = list(circuit.output_bits or range(circuit.num_bits))
    rng = np.random.default_rng(seed)
    plan = channel_plan(circuit, noise_model)
    chunk = batch_chunk_size(circuit.num_qubits, max_batch_bytes)
    results = np.empty((shots, len(output)), dtype=np.uint8)
    sweeps = 0
    done = 0
    while done < shots:
        size = min(chunk, shots - done)
        with _trace.span(
            "sim.sweep",
            engine="batched", shots=size, qubits=circuit.num_qubits,
        ):
            engine = BatchedStatevector(
                size, circuit.num_qubits, circuit.num_bits, rng
            )
            bits = engine.run(circuit, noise_model, stats, plan)
        _SWEEPS.inc(engine="batched")
        results[done:done + size] = bits[:, output]
        sweeps += 1
        done += size
    return results, sweeps
