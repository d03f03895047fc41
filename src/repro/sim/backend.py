"""Pluggable simulation backends (the qir-runner substitute, paper §7).

A :class:`SimBackend` turns a flat :class:`~repro.qcircuit.circuit.Circuit`
plus a shot count into sampled output bits.  Backends are registered by
name (:func:`register_backend`) and looked up by every execution entry
point — ``run_circuit``, ``simulate_kernel``, ``interpret_module``, and
the evaluation harness — so a new simulation strategy plugs in without
touching any of them.  See docs/simulators.md for the full guide.

Two backends ship in-tree:

``"statevector"``
    The vectorized sampler.  For *terminal-measurement* circuits (all
    measurements after the last gate, no classical control, no reset
    before a measurement) it evolves the state **once**, one step per
    execution-circuit gate or fused block, memoizes the marginal of
    |psi|^2 over the measured qubits as its CDF per process (keyed by
    circuit content), and draws all shots from it in one vectorized
    ``searchsorted``, making shot count — and every later run of the
    same circuit — a near-constant cost.
    Circuits with genuine mid-circuit measurement, classically
    conditioned gates, or mid-evolution reset — and every run under a
    noise model, whose per-shot Kraus draws rule out a shared
    evolution — run on the **batched trajectory engine**
    (:mod:`repro.sim.batched`): all shots evolve
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

The engines return shots as one ``(shots, output bits)`` uint8 array
(:meth:`SimBackend.run_array_with_info`), and so does the shot
executor.  Per-shot tuples are made only at the public boundary:
:meth:`SimBackend.run_with_info`, ``run_circuit`` and
``run_circuit_with_info`` (``simulate_kernel`` makes ``Bits``).

Qubit-ordering convention (shared with the engine): qubit 0 is the
*leftmost* ket bit, so basis-state index ``x`` has qubit ``q`` equal to
bit ``(x >> (n - 1 - q)) & 1``.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.qcircuit.fusion import FusedUnitary, fused_gate_savings
from repro.sim.batched import BatchedStatevector, batched_run

# Get-or-create: same series repro.sim.batched increments for its
# batched sweeps; this module adds the fast-path ones.
_SWEEPS = _metrics.counter(
    "repro_sim_sweeps_total",
    "Simulator sweeps by engine (batched evolutions, fast-path samples)",
    labels=("engine",),
)

_MEMO_LOOKUPS = _metrics.counter(
    "repro_sim_marginal_memo_total",
    "Fast-path terminal-marginal memo lookups by outcome (hit, miss)",
    labels=("outcome",),
)

#: Bounds of the per-process memo of terminal-measurement marginals
#: (see :meth:`VectorizedStatevectorBackend.run_array_with_info`): the
#: bytes its entries keep alive — each marginal's sampling CDF plus the
#: fused-block matrices its key holds — and the entry count.  An entry
#: over the byte budget is not memoized.
MARGINAL_MEMO_MAX_BYTES = 32 * 1024 * 1024
MARGINAL_MEMO_MAX_ENTRIES = 128

#: Each entry holds a marginal's sampling CDF (see :func:`sampling_cdf`;
#: a hit only draws shots, so the marginal itself is not kept) and the
#: bytes the entry keeps alive.
_MARGINAL_MEMO: "OrderedDict[tuple, tuple[np.ndarray, int]]" = OrderedDict()
_MARGINAL_MEMO_LOCK = threading.Lock()


def _reset_marginal_memo_lock() -> None:
    # A pool worker forked while another thread held the lock would
    # otherwise inherit it locked.
    global _MARGINAL_MEMO_LOCK
    _MARGINAL_MEMO_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_marginal_memo_lock)


def _memo_key(circuit: Circuit) -> tuple:
    return (circuit.num_qubits, tuple(circuit.instructions))


def _memo_get(key: tuple) -> Optional[np.ndarray]:
    with _MARGINAL_MEMO_LOCK:
        entry = _MARGINAL_MEMO.get(key)
        if entry is None:
            return None
        _MARGINAL_MEMO.move_to_end(key)
        return entry[0]


def _memo_put(key: tuple, cdf: np.ndarray) -> None:
    size = cdf.nbytes + sum(
        inst.matrix.nbytes
        for inst in key[1]
        if isinstance(inst, FusedUnitary)
    )
    if size > MARGINAL_MEMO_MAX_BYTES:
        return
    cdf.setflags(write=False)
    with _MARGINAL_MEMO_LOCK:
        _MARGINAL_MEMO[key] = (cdf, size)
        _MARGINAL_MEMO.move_to_end(key)
        held = sum(size for _, size in _MARGINAL_MEMO.values())
        while (
            len(_MARGINAL_MEMO) > MARGINAL_MEMO_MAX_ENTRIES
            or held > MARGINAL_MEMO_MAX_BYTES
        ):
            _, (_, evicted) = _MARGINAL_MEMO.popitem(last=False)
            held -= evicted


def marginal_is_memoized(circuit: Circuit) -> bool:
    """Whether a noiseless ``statevector`` run of ``circuit`` would only
    draw shots: the circuit takes the terminal-measurement fast path
    and its marginal is in the memo.

    A peek, for callers deciding where to run a request: it counts no
    lookup and leaves the LRU order alone.  The entry may still be
    evicted before the run, which then evolves the circuit again.
    """
    if terminal_measurement_plan(circuit) is None:
        return False
    key = _memo_key(circuit)
    with _MARGINAL_MEMO_LOCK:
        return key in _MARGINAL_MEMO


def clear_marginal_memo() -> None:
    """Drop every memoized terminal-measurement marginal, so the next
    fast-path run of each circuit evolves again (benchmarks timing the
    evolution itself, tests counting evolutions)."""
    with _MARGINAL_MEMO_LOCK:
        _MARGINAL_MEMO.clear()


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
    the dominant cost.  The terminal-measurement fast path does one
    regardless of shot count on a marginal-memo miss and none on a hit
    (the circuit's marginal was already evolved in this process); the
    batched trajectory engine does one *batched* sweep per
    memory-envelope chunk (usually 1 — see
    :data:`repro.sim.batched.MAX_BATCH_BYTES`); the exact
    density-matrix backend reports 1 (one rho evolution serves every
    shot).  ``batched`` is True when the batched engine ran (so an
    ``evolutions`` of 1 means one sweep over all shots at once, not one
    single-shot evolution).
    ``fused_ops`` is the fast path's evolution step count — the
    execution circuit's gates and fused blocks, reported on memo hits
    too (``None`` off the fast path).

    ``channel_applications`` / ``readout_applications`` count noise
    events the engine actually performed; the granularity differs per
    engine (and, on the density backend, per counter) — see
    :class:`repro.noise.NoiseStats` for the exact semantics.  Both are
    0 on noiseless runs.

    ``gates_fused`` counts gates eliminated by the compile-time fusion
    pass in the circuit this run executed (0 for unfused circuits).

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
        ``gates_fused``, ``fused_ops``, ``chunks``, ``retries``,
        ``faults_injected``) sum exactly; ``fast_path`` holds only if
        every chunk took it, ``batched`` and ``degraded`` if any did;
        ``fused_ops`` stays ``None`` unless every chunk reported it.
        All chunks must come from one backend.  ``workers`` defaults
        to the max the inputs carry.
        """
        infos = list(infos)
        if not infos:
            raise SimulationError("RunInfo.merge needs at least one record")
        backends = {info.backend for info in infos}
        if len(backends) > 1:
            raise SimulationError(
                f"cannot merge RunInfo across backends: {sorted(backends)}"
            )
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
            workers=(
                workers
                if workers is not None
                else max(info.workers for info in infos)
            ),
            chunks=sum(info.chunks for info in infos),
            compile_cache=(
                provenances.pop() if len(provenances) == 1 else None
            ),
            retries=sum(info.retries for info in infos),
            faults_injected=sum(info.faults_injected for info in infos),
            degraded=any(info.degraded for info in infos),
        )


class SimBackend:
    """Protocol for simulation backends.

    Subclasses implement :meth:`run_array_with_info`.  Instances must
    be stateless across calls (one backend object may serve many
    threads of the evaluation harness).
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def run_array_with_info(
        self,
        circuit: Circuit,
        shots: int = 1,
        seed: int = 0,
        noise_model=None,
    ) -> tuple[np.ndarray, RunInfo]:
        """Sample ``shots`` runs of ``circuit``; returns ``(bits,
        RunInfo)`` with the shots as one ``(shots, output bits)`` uint8
        array: what the shot executor runs, merges and ships between
        processes.

        ``noise_model`` is an optional :class:`repro.noise.NoiseModel`;
        backends that cannot execute under noise must raise
        :class:`~repro.errors.SimulationError` rather than silently
        ignore it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement run_array_with_info"
        )

    def run_with_info(
        self,
        circuit: Circuit,
        shots: int = 1,
        seed: int = 0,
        noise_model=None,
    ) -> tuple[list[tuple[int, ...]], RunInfo]:
        """:meth:`run_array_with_info` with the shots as output-bit
        tuples."""
        bits, info = self.run_array_with_info(
            circuit, shots, seed, noise_model
        )
        return bit_tuples(bits), info


def bit_tuples(bits: np.ndarray) -> list[tuple[int, ...]]:
    """A ``(shots, bits)`` array as the public per-shot tuples."""
    return list(map(tuple, bits.tolist()))


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

    Terminal-measurement circuits: one evolution per process (the
    marginal over the measured qubits is memoized) + vectorized
    sampling.
    Everything else — including *every* run under a noise model, whose
    per-shot Kraus draws rule out the single-evolution fast path — runs
    on the shot-batched trajectory engine (:mod:`repro.sim.batched`),
    which evolves all shots as one array.
    """

    name = "statevector"

    def run_array_with_info(
        self,
        circuit: Circuit,
        shots: int = 1,
        seed: int = 0,
        noise_model=None,
    ) -> tuple[np.ndarray, RunInfo]:
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
            )

        # The normalized marginal over the measured qubits depends only
        # on the circuit's content — never on the seed or shot count —
        # so it is evolved once per process and its sampling CDF is
        # memoized; every later run of the circuit only draws shots.
        key = _memo_key(circuit)
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
        ) as span:
            cdf = _memo_get(key)
            evolutions = int(cdf is None)
            if cdf is None:
                engine = BatchedStatevector(1, circuit.num_qubits)
                for inst in prefix:
                    engine.apply(inst)
                cdf = sampling_cdf(
                    terminal_marginal(
                        np.abs(engine.state[0]) ** 2, circuit, plan
                    )
                )
                _memo_put(key, cdf)
            outcome = "miss" if evolutions else "hit"
            span.set(memo=outcome)
            results = sample_cdf(
                cdf, circuit, plan, shots, np.random.default_rng(seed)
            )
        _MEMO_LOOKUPS.inc(outcome=outcome)
        if evolutions:
            _SWEEPS.inc(engine="fast-path")
        return results, RunInfo(
            self.name,
            shots,
            evolutions=evolutions,
            fast_path=True,
            fused_ops=len(prefix),
            gates_fused=fused_gate_savings(circuit),
        )


def terminal_marginal(
    probabilities: np.ndarray,
    circuit: Circuit,
    plan: Sequence[Measurement],
) -> np.ndarray:
    """The normalized marginal of a computational-basis probability
    tensor (one axis per qubit) over the plan's measured qubits.

    Flattened in sorted-qubit order, so entry ``x`` holds qubit
    ``measured[i]`` at bit ``(x >> (width - 1 - i)) & 1``.  Shared by
    the vectorized statevector backend (which passes |psi|^2) and the
    exact density-matrix backend (which passes the diagonal of rho).
    """
    measured = sorted({m.qubit for m in plan})
    unmeasured = tuple(
        axis for axis in range(circuit.num_qubits) if axis not in measured
    )
    if unmeasured:
        probabilities = probabilities.sum(axis=unmeasured)
    probabilities = probabilities.reshape(-1)
    # Guard against float drift; choice() requires an exact simplex.
    return probabilities / probabilities.sum()


def sampling_cdf(marginal: np.ndarray) -> np.ndarray:
    """The normalized cumulative sum that ``Generator.choice`` builds
    from ``p``: ``cdf.searchsorted(rng.random(shots), side="right")``
    draws exactly what ``rng.choice(marginal.size, shots, p=marginal)``
    draws, without validating and summing ``p`` again on every run."""
    cdf = marginal.cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_marginal(
    marginal: np.ndarray,
    circuit: Circuit,
    plan: Sequence[Measurement],
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``shots`` outputs from a :func:`terminal_marginal`; returns
    the ``(shots, output bits)`` uint8 array (see :func:`sample_cdf`)."""
    return sample_cdf(sampling_cdf(marginal), circuit, plan, shots, rng)


def sample_cdf(
    cdf: np.ndarray,
    circuit: Circuit,
    plan: Sequence[Measurement],
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``shots`` outputs from a marginal's :func:`sampling_cdf`;
    returns the ``(shots, output bits)`` uint8 array.

    One vectorized draw, then the outcome bits scatter into the plan's
    classical bits.  Both terminal-measurement backends sample here —
    one sampling path, one seed convention, so their zero-noise
    histograms match exactly.
    """
    output = list(circuit.output_bits or range(circuit.num_bits))
    if not plan:
        # Nothing measured: the classical register stays all-zero.
        return np.zeros((shots, len(output)), dtype=np.uint8)

    outcomes = cdf.searchsorted(rng.random(shots), side="right")

    # Marginal axis order is sorted qubit order, so the outcome's bit
    # for qubit q sits at position pos[q] from the left (the same
    # most-significant-first convention as full basis-state indices).
    measured = sorted({m.qubit for m in plan})
    pos = {qubit: i for i, qubit in enumerate(measured)}
    width = len(measured)
    bits = np.zeros((shots, circuit.num_bits), dtype=np.uint8)
    for meas in plan:
        bits[:, meas.bit] = (outcomes >> (width - 1 - pos[meas.qubit])) & 1
    # take(), unlike bits[:, output], keeps the rows C-contiguous.
    return bits.take(output, axis=1)


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
    one process: it evolves a circuit once per process and every later
    chunk only samples its memoized marginal.
    """
    from repro.exec.parallel import parallel_run_with_info

    bits, info = parallel_run_with_info(
        circuit,
        shots,
        seed,
        workers=parallel_workers,
        backend=backend,
        noise_model=noise_model,
    )
    return bit_tuples(bits), info


register_backend(
    VectorizedStatevectorBackend.name, VectorizedStatevectorBackend
)
