"""Pluggable simulation backends (the qir-runner substitute, paper §7).

A :class:`SimBackend` turns a flat :class:`~repro.qcircuit.circuit.Circuit`
plus a shot count into sampled output bits.  Backends are registered by
name (:func:`register_backend`) and looked up by every execution entry
point — ``run_circuit``, ``simulate_kernel``, ``interpret_module``, and
the evaluation harness — so a new simulation strategy plugs in without
touching any of them.  See docs/simulators.md for the full guide.

Three backends ship in-tree:

``"interpreter"``
    One independent statevector trajectory per shot, seeded
    ``seed + shot``.  O(shots x gates x 2^n), but handles every circuit
    one instruction at a time: the simple reference engine.

``"statevector"``
    The vectorized sampler.  For *terminal-measurement* circuits (all
    measurements after the last gate, no classical control, no reset
    before a measurement) it evolves the state **once**, one step per
    execution-circuit gate or fused block, and draws all shots from
    |psi|^2 with a single ``np.random.Generator.choice`` call, making
    shot count a near-constant cost.  Circuits with genuine mid-circuit
    measurement, classically conditioned gates, or mid-evolution reset
    — and every run under a noise model, whose per-shot Kraus draws
    rule out a shared evolution — run on the **batched trajectory
    engine** (:mod:`repro.sim.batched`): all shots evolve
    simultaneously as one ``(shots, 2, ..., 2)`` array, so
    teleportation at 4096 shots is one batched sweep instead of 4096
    Python evolutions.

``"density_matrix"``
    The exact noise reference (:mod:`repro.sim.density`): rho evolves
    through gates and exact Kraus sums (4^n amplitudes, <= 12 qubits),
    one evolution regardless of shot count.  See docs/noise.md.

Every backend takes an optional ``noise_model=``
(:class:`repro.noise.NoiseModel`) attaching Kraus channels per gate
and readout confusion per measured qubit.

Qubit-ordering convention (shared with the simulator): qubit 0 is the
*leftmost* ket bit, so basis-state index ``x`` has qubit ``q`` equal to
bit ``(x >> (n - 1 - q)) & 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.qcircuit.fusion import FusedUnitary, fused_gate_savings
from repro.sim.batched import batched_run
from repro.sim.kernels import active_kernel_name
from repro.sim.statevector import StatevectorSimulator

# Get-or-create: same series repro.sim.batched increments for its
# batched sweeps; this module adds the fast-path and interpreter ones.
_SWEEPS = _metrics.counter(
    "repro_sim_sweeps_total",
    "Simulator sweeps by engine (batched evolutions, fast-path samples, "
    "interpreter trajectory loops)",
    labels=("engine",),
)

#: The one default-backend decision for the whole execution layer: every
#: entry point — ``run_circuit``, ``run_circuit_with_info``,
#: ``simulate_kernel`` / ``kernel()``, and ``interpret_module`` —
#: resolves ``backend=None`` here (via :func:`get_backend`), so changing
#: this name (or registering a replacement backend under it) retargets
#: all of them at once.
DEFAULT_BACKEND = "statevector"


@dataclass(frozen=True)
class RunInfo:
    """Observability record for one :meth:`SimBackend.run_with_info`.

    ``evolutions`` counts full statevector evolution sweeps performed —
    the dominant cost.  The terminal-measurement fast path does exactly
    one regardless of shot count; the batched trajectory engine does
    one *batched* sweep per memory-envelope chunk (usually 1 — see
    :data:`repro.sim.batched.MAX_BATCH_BYTES`); per-shot trajectory
    execution does ``shots``; the exact density-matrix backend reports
    1 (one rho evolution serves every shot).  ``batched`` is True when
    the batched engine ran (so an ``evolutions`` of 1 means one sweep
    over all shots at once, not one single-shot evolution).
    ``fused_ops`` is the evolution step count on the fast path — the
    execution circuit's gates and fused blocks (``None`` otherwise).

    ``channel_applications`` / ``readout_applications`` count noise
    events the engine actually performed; the granularity differs per
    engine (and, on the density backend, per counter) — see
    :class:`repro.noise.NoiseStats` for the exact semantics.  Both are
    0 on noiseless runs.

    ``gates_fused`` counts gates eliminated by the compile-time fusion
    pass in the circuit this run executed (0 for unfused circuits);
    ``kernel`` records which apply-kernel performed the matrix sweeps
    (see :mod:`repro.sim.kernels` and docs/performance.md).

    ``workers`` / ``chunks`` record how the run was sharded: both 1
    for an ordinary single-process run; the parallel shot executor
    (:mod:`repro.exec`) merges its per-chunk records via
    :meth:`merge` and fills them in.  ``compile_cache`` is the compile
    provenance when the run went through ``simulate_kernel_with_info``
    — ``"compiled"``, ``"memory"``, or ``"disk"``
    (:attr:`repro.pipeline.CompileResult.provenance`); ``None`` for
    circuit-level runs that never touched the compiler.

    ``retries`` / ``faults_injected`` / ``degraded`` are the
    robustness counters filled in by the fault-tolerant dispatch path
    (:mod:`repro.exec.retry`): chunk attempts beyond the first, fault
    injections the run absorbed, and whether the dispatcher fell back
    to serial in-process execution after repeated pool breakage.  All
    zero/False on the ordinary path.
    """

    backend: str
    shots: int
    evolutions: int
    fast_path: bool
    batched: bool = False
    fused_ops: Optional[int] = None
    channel_applications: int = 0
    readout_applications: int = 0
    gates_fused: int = 0
    kernel: Optional[str] = None
    workers: int = 1
    chunks: int = 1
    compile_cache: Optional[str] = None
    retries: int = 0
    faults_injected: int = 0
    degraded: bool = False

    @staticmethod
    def merge(
        infos: "Sequence[RunInfo]", workers: Optional[int] = None
    ) -> "RunInfo":
        """Combine per-chunk records of one sharded run into one.

        Additive counters (``shots``, ``evolutions``,
        ``channel_applications``, ``readout_applications``,
        ``gates_fused``, ``fused_ops``, ``chunks``) sum exactly;
        ``fast_path`` holds only if every chunk took it, ``batched`` if
        any did; ``fused_ops`` stays ``None`` unless every chunk
        reported it.  All chunks must come from one backend; a mix of
        apply-kernels is recorded as ``"mixed"``.  ``workers`` defaults
        to the max the inputs carry.

        The robustness counters (``retries``, ``faults_injected``,
        ``degraded``) are read with ``getattr`` defaults: a
        :class:`RunInfo` unpickled from an artifact written before the
        counters existed (an old persistent-cache entry surviving a
        partial invalidation) merges as zero rather than crashing the
        telemetry path.
        """
        infos = list(infos)
        if not infos:
            raise SimulationError("RunInfo.merge needs at least one record")
        backends = {info.backend for info in infos}
        if len(backends) > 1:
            raise SimulationError(
                f"cannot merge RunInfo across backends: {sorted(backends)}"
            )
        kernels = {info.kernel for info in infos}
        fused_ops = (
            sum(info.fused_ops for info in infos)
            if all(info.fused_ops is not None for info in infos)
            else None
        )
        provenances = {info.compile_cache for info in infos}
        return RunInfo(
            backend=infos[0].backend,
            shots=sum(info.shots for info in infos),
            evolutions=sum(info.evolutions for info in infos),
            fast_path=all(info.fast_path for info in infos),
            batched=any(info.batched for info in infos),
            fused_ops=fused_ops,
            channel_applications=sum(
                info.channel_applications for info in infos
            ),
            readout_applications=sum(
                info.readout_applications for info in infos
            ),
            gates_fused=sum(info.gates_fused for info in infos),
            kernel=kernels.pop() if len(kernels) == 1 else "mixed",
            workers=(
                workers
                if workers is not None
                else max(info.workers for info in infos)
            ),
            chunks=sum(info.chunks for info in infos),
            compile_cache=(
                provenances.pop() if len(provenances) == 1 else None
            ),
            retries=sum(getattr(info, "retries", 0) for info in infos),
            faults_injected=sum(
                getattr(info, "faults_injected", 0) for info in infos
            ),
            degraded=any(
                getattr(info, "degraded", False) for info in infos
            ),
        )


class SimBackend:
    """Protocol for simulation backends.

    Subclasses implement :meth:`run_with_info`; :meth:`make_simulator`
    has a default implementation.  Instances must be stateless across
    calls (one backend object may serve many threads of the evaluation
    harness).
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def run_with_info(
        self,
        circuit: Circuit,
        shots: int = 1,
        seed: int = 0,
        noise_model=None,
    ) -> tuple[list[tuple[int, ...]], RunInfo]:
        """Sample ``shots`` output-bit tuples from ``circuit``; returns
        ``(results, RunInfo)``.

        ``noise_model`` is an optional :class:`repro.noise.NoiseModel`;
        backends that cannot execute under noise must raise
        :class:`~repro.errors.SimulationError` rather than silently
        ignore it.  Backends may omit the parameter: the dispatcher
        passes it only when set.
        """
        raise NotImplementedError

    def make_simulator(
        self, num_qubits: int, num_bits: int = 0, seed: int = 0
    ) -> StatevectorSimulator:
        """A step-by-step simulator for op-at-a-time execution.

        Used by the module interpreter, whose control flow (callable
        invocation, ``scf.if``) cannot be replayed as a flat circuit.
        """
        return StatevectorSimulator(num_qubits, num_bits, seed=seed)


def _trajectory_run(
    circuit: Circuit,
    shots: int,
    seed: int,
    noise_model=None,
    stats=None,
) -> list[tuple[int, ...]]:
    """One independent trajectory per shot, seeded ``seed + shot``.

    Under a noise model, each trajectory unravels every attached
    channel into its own Kraus draws (see
    :meth:`StatevectorSimulator.apply_kraus`), so ``stats`` counts
    noise events per shot.  Rule matching is a pure function of the
    instruction, so the per-instruction channel plan is computed once
    here rather than once per shot.
    """
    results = []
    output = circuit.output_bits or range(circuit.num_bits)
    channel_plan = None
    if noise_model is not None:
        channel_plan = [
            noise_model.channels_for(inst)
            if isinstance(inst, CircuitGate)
            else None
            for inst in circuit.instructions
        ]
    with _trace.span(
        "sim.sweep",
        engine="interpreter", shots=shots, qubits=circuit.num_qubits,
    ):
        for shot in range(shots):
            sim = StatevectorSimulator(
                circuit.num_qubits, circuit.num_bits, seed=seed + shot
            )
            bits = sim.run(
                circuit,
                noise_model=noise_model,
                stats=stats,
                channel_plan=channel_plan,
            )
            results.append(tuple(bits[i] for i in output))
    _SWEEPS.inc(engine="interpreter")
    return results


class InterpreterBackend(SimBackend):
    """Per-shot trajectory execution (the historical ``run_circuit``)."""

    name = "interpreter"

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
        results = _trajectory_run(
            circuit, shots, seed, noise_model=noise_model, stats=stats
        )
        return results, RunInfo(
            self.name,
            shots,
            evolutions=shots,
            fast_path=False,
            channel_applications=stats.channel_applications,
            readout_applications=stats.readout_applications,
            gates_fused=fused_gate_savings(circuit),
            kernel=active_kernel_name(),
        )


def terminal_measurement_plan(
    circuit: Circuit,
) -> Optional[list[Measurement]]:
    """The circuit's measurements, if sampling can be vectorized.

    Returns the :class:`Measurement` list (in program order) when the
    circuit is *terminal-measurement*: every measurement comes after
    the last gate, no gate is classically conditioned, and no qubit is
    measured after being reset.  Trailing resets (``qfree`` of
    discarded qubits after the measurements) are tolerated — they
    cannot affect the recorded bits.  Returns ``None`` when any of
    those conditions fail; the circuit then needs per-shot trajectory
    execution.
    """
    plan: list[Measurement] = []
    measured_started = False
    reset_qubits: set[int] = set()
    for inst in circuit.instructions:
        if isinstance(inst, FusedUnitary):
            # A fused block is an unconditioned unitary like any gate.
            if measured_started:
                return None
        elif isinstance(inst, CircuitGate):
            if inst.condition is not None or measured_started:
                return None
        elif isinstance(inst, Reset):
            if not measured_started:
                # A reset mid-evolution makes the prefix non-unitary.
                return None
            reset_qubits.add(inst.qubit)
        elif isinstance(inst, Measurement):
            if inst.qubit in reset_qubits:
                return None
            measured_started = True
            plan.append(inst)
        else:
            return None
    return plan


class VectorizedStatevectorBackend(SimBackend):
    """Vectorized statevector backend.

    Terminal-measurement circuits: one evolution + vectorized sampling.
    Everything else — including *every* run under a noise model, whose
    per-shot Kraus draws rule out the single-evolution fast path — runs
    on the shot-batched trajectory engine (:mod:`repro.sim.batched`),
    which evolves all shots as one array.
    """

    name = "statevector"

    def run_with_info(
        self,
        circuit: Circuit,
        shots: int = 1,
        seed: int = 0,
        noise_model=None,
    ) -> tuple[list[tuple[int, ...]], RunInfo]:
        from repro.noise.model import NoiseStats, effective_noise_model

        noise_model = effective_noise_model(noise_model)
        plan = (
            terminal_measurement_plan(circuit)
            if noise_model is None
            else None
        )
        if plan is None:
            # Non-terminal circuit (or a noisy run, where each shot's
            # Kraus draws differ): evolve all shots simultaneously on
            # the batched trajectory engine (repro.sim.batched) rather
            # than one Python evolution per shot.
            stats = NoiseStats()
            results, sweeps = batched_run(
                circuit, shots, seed, noise_model=noise_model, stats=stats
            )
            return results, RunInfo(
                self.name,
                shots,
                evolutions=sweeps,
                fast_path=False,
                batched=True,
                channel_applications=stats.channel_applications,
                readout_applications=stats.readout_applications,
                gates_fused=fused_gate_savings(circuit),
                kernel=active_kernel_name(),
            )

        # The unitary prefix mixes plain gates with FusedUnitary blocks
        # from the compile-time fusion pass; each is one evolution step.
        prefix = [
            inst
            for inst in circuit.instructions
            if isinstance(inst, (CircuitGate, FusedUnitary))
        ]
        with _trace.span(
            "sim.sweep",
            engine="fast-path", shots=shots, qubits=circuit.num_qubits,
        ):
            sim = StatevectorSimulator(circuit.num_qubits, circuit.num_bits)
            for inst in prefix:
                sim.apply(inst)
            results = _sample_terminal(
                sim.state, circuit, plan, shots, np.random.default_rng(seed)
            )
        _SWEEPS.inc(engine="fast-path")
        return results, RunInfo(
            self.name,
            shots,
            evolutions=1,
            fast_path=True,
            fused_ops=len(prefix),
            gates_fused=fused_gate_savings(circuit),
            kernel=active_kernel_name(),
        )


def _sample_terminal(
    state: np.ndarray,
    circuit: Circuit,
    plan: Sequence[Measurement],
    shots: int,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """Draw ``shots`` samples of the plan's measurements from |psi|^2."""
    return sample_measurement_probabilities(
        np.abs(state) ** 2, circuit, plan, shots, rng
    )


def sample_measurement_probabilities(
    probabilities: np.ndarray,
    circuit: Circuit,
    plan: Sequence[Measurement],
    shots: int,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """Draw ``shots`` samples of the plan's measurements from a
    computational-basis probability tensor (one axis per qubit).

    Shared by the vectorized statevector backend (which passes
    |psi|^2) and the exact density-matrix backend (which passes the
    diagonal of rho) — one sampling path, one seed convention, so the
    two backends' zero-noise histograms match exactly.
    """
    output = list(circuit.output_bits or range(circuit.num_bits))
    if not plan:
        # Nothing measured: the classical register stays all-zero.
        return [(0,) * len(output)] * shots

    measured = sorted({m.qubit for m in plan})
    unmeasured = tuple(
        axis for axis in range(circuit.num_qubits) if axis not in measured
    )
    if unmeasured:
        probabilities = probabilities.sum(axis=unmeasured)
    probabilities = probabilities.reshape(-1)
    # Guard against float drift; choice() requires an exact simplex.
    probabilities = probabilities / probabilities.sum()

    outcomes = rng.choice(probabilities.size, size=shots, p=probabilities)

    # Marginal axis order is sorted qubit order, so the outcome's bit
    # for qubit q sits at position pos[q] from the left (the same
    # most-significant-first convention as full basis-state indices).
    pos = {qubit: i for i, qubit in enumerate(measured)}
    width = len(measured)
    bits = np.zeros((shots, circuit.num_bits), dtype=np.int64)
    for meas in plan:
        bits[:, meas.bit] = (outcomes >> (width - 1 - pos[meas.qubit])) & 1
    selected = bits[:, output]
    return [tuple(int(b) for b in row) for row in selected]


# ----------------------------------------------------------------------
# The backend registry.
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[], SimBackend]] = {}


def register_backend(
    name: str, factory: Callable[[], SimBackend], *, replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called once per :func:`get_backend` lookup and must
    return a fresh (or stateless shared) :class:`SimBackend`.  Re-using
    a name raises unless ``replace=True``.
    """
    if not replace and name in _REGISTRY:
        raise SimulationError(
            f"simulation backend {name!r} is already registered; pass "
            f"replace=True to override it"
        )
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(backend: "str | SimBackend | None" = None) -> SimBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves to :data:`DEFAULT_BACKEND`.  Unknown names raise
    :class:`SimulationError` listing what is registered.
    """
    if isinstance(backend, SimBackend):
        return backend
    name = backend or DEFAULT_BACKEND
    factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(available_backends())
        raise SimulationError(
            f"unknown simulation backend {name!r} (registered backends: "
            f"{known}); see docs/simulators.md for how to add one"
        )
    return factory()


def run_circuit_with_info(
    circuit: Circuit,
    shots: int = 1,
    seed: int = 0,
    backend: "str | SimBackend | None" = None,
    noise_model=None,
    parallel_workers: Optional[int] = None,
) -> tuple[list[tuple[int, ...]], RunInfo]:
    """Run a circuit and return ``(results, RunInfo)`` for telemetry.

    ``backend=None`` resolves to :data:`DEFAULT_BACKEND`, the same
    single resolution point every execution entry point consults.
    ``noise_model`` (a :class:`repro.noise.NoiseModel`) makes the run
    noisy.

    Every run goes through the parallel shot executor
    (:func:`repro.exec.parallel.parallel_run_with_info`): the shots
    split into at most ``parallel_workers`` chunks, each with a seed
    derived from ``seed``, so results are deterministic per
    ``(seed, workers)``.  ``None`` means one worker (one in-process
    chunk), ``0`` one worker per core.  Sharding pays off for
    trajectory workloads (mid-circuit measurement or noise); the
    terminal-measurement fast path already makes shots near-free in
    one process, and sharding it repeats the one evolution per chunk.
    """
    from repro.exec.parallel import parallel_run_with_info

    return parallel_run_with_info(
        circuit,
        shots,
        seed,
        workers=parallel_workers,
        backend=backend,
        noise_model=noise_model,
    )


register_backend(InterpreterBackend.name, InterpreterBackend)
register_backend(
    VectorizedStatevectorBackend.name, VectorizedStatevectorBackend
)
