"""The parallel shot executor: the one way shots are run.

Every shot-running entry point — ``run_circuit``,
``run_circuit_with_info``, ``simulate_kernel(_with_info)``,
``kernel()`` and the service — calls :func:`parallel_run_with_info`,
so there is one seed convention and one dispatcher:

- :func:`chunk_plan` ceil-splits a shot count into at most ``workers``
  chunks (``parallel_workers=None`` means one worker, so one chunk).
  Memory is not its concern: the batched engine already caps every
  sweep at :data:`~repro.sim.batched.MAX_BATCH_BYTES`;
- each chunk gets a **derived seed** from
  ``numpy.random.SeedSequence(seed).spawn(...)`` — statistically
  independent streams, so the sharded histogram is statistically
  equivalent to a single-process run and *fully deterministic* for a
  fixed ``(seed, workers)`` pair;
- every chunk is dispatched by
  :func:`repro.exec.retry.execute_with_retry`, in-process for one
  worker and on a cached :class:`~concurrent.futures.ProcessPoolExecutor`
  otherwise;
- per-chunk ``(shots, output bits)`` uint8 arrays (what pool workers
  pickle back) concatenate in plan order and per-chunk
  :class:`~repro.sim.backend.RunInfo` telemetry merges via
  :meth:`RunInfo.merge`, with ``workers``/``chunks`` recorded.

The one shortcut is :func:`parallel_draw_with_info`, for a caller that
already holds a circuit's memoized marginal (the service's warm
requests): it draws the same plan's chunks with the same derived seeds
and dispatches nothing, so its answer is the dispatcher's.

Determinism contract: the output depends only on the chunk plan and
the derived seeds — **not** on which process (or whether a process at
all) executed a chunk, nor on how many attempts it took.  A pool that
cannot start (sandboxed environments, missing semaphores) degrades to
in-process execution of the identical plan and produces bit-identical
results.

Statelessness: the worker entry point re-resolves everything it needs
from explicit task fields — backend *name* (resolved in the parent, so
a monkeypatched ``DEFAULT_BACKEND`` cannot diverge between parent and
worker), the pickled circuit and noise model.  In-tree backends
register at import time, so workers started with **any** start method
behave identically; custom backends registered only in the parent are
visible under ``fork`` but must be registered at import time (module
level) to work under ``spawn``.

Pools are cached per ``(workers, start method)`` and reused across
calls, so the process-warmup cost is paid once.  See
docs/performance.md ("Parallel execution & the persistent cache").
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.exec.faults import (
    FaultPlan,
    active_fault_plan,
    maybe_inject_chunk_fault,
)
from repro.exec.retry import RetryPolicy, execute_with_retry
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement
from repro.qcircuit.fusion import FusedUnitary, fused_gate_savings
from repro.sim.backend import (
    DEFAULT_BACKEND,
    RunInfo,
    SimBackend,
    VectorizedStatevectorBackend,
    draw_outcomes,
    get_backend,
    scatter_outcomes,
)

#: Environment override for the multiprocessing start method used by
#: the shared pools ("fork", "spawn", "forkserver").  Unset keeps the
#: platform default.  Results are identical either way (see the
#: determinism contract above); this only trades startup cost against
#: fork-safety.
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"

#: The retry policy of library calls: the service's bounds, but no
#: per-wave timeout, so a long library run is never killed as hung.
LIBRARY_RETRY = RetryPolicy(timeout=None)

_DISPATCHES = _metrics.counter(
    "repro_exec_dispatches_total",
    "Parallel run dispatches (one per parallel_run_with_info or "
    "parallel_draw_with_info call)",
)
_CHUNKS = _metrics.counter(
    "repro_exec_chunks_total",
    "Chunks planned for dispatch across all parallel runs",
)
# Get-or-create: the series repro.sim.backend counts its memo lookups
# in; a warm draw is one hit.
_MEMO_LOOKUPS = _metrics.counter(
    "repro_sim_marginal_memo_total",
    "Fast-path terminal-marginal memo lookups by outcome (hit, miss)",
    labels=("outcome",),
)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``parallel_workers`` request to a concrete count.

    ``None`` means one worker, ``0`` means "one per available core";
    negative counts are rejected.
    """
    if workers is None:
        return 1
    if workers == 0:
        return max(os.cpu_count() or 1, 1)
    if workers < 0:
        raise SimulationError(
            f"parallel_workers must be >= 0, got {workers}"
        )
    return workers


def chunk_plan(shots: int, workers: int) -> list[int]:
    """Split ``shots`` into at most ``workers`` per-chunk shot counts.

    Chunks are ceil-sized, so every chunk but a short final one has
    the same size.  The plan is a pure function of ``(shots, workers)``
    — the anchor of the determinism contract.
    """
    if shots < 1:
        raise SimulationError("a parallel run needs at least one shot")
    size = -(-shots // max(workers, 1))  # ceil division
    full, remainder = divmod(shots, size)
    return [size] * full + ([remainder] if remainder else [])


def derive_chunk_seeds(seed: int, chunks: int) -> list[int]:
    """One independent integer seed per chunk.

    ``SeedSequence(seed).spawn(chunks)`` gives statistically
    independent child streams; each child collapses to one uint63 the
    backends' integer ``seed`` parameter accepts.  Derivation is pure,
    so chunk *i* of a fixed plan always receives the same seed — in a
    worker process, in the serial fallback, or in a re-run — and is
    memoized per ``(seed, chunks)``: it costs more than sampling a
    warm run.
    """
    if seed is None:  # fresh entropy per call, as SeedSequence(None)
        return list(_chunk_seeds.__wrapped__(seed, chunks))
    return list(_chunk_seeds(seed, chunks))


@functools.lru_cache(maxsize=1024)
def _chunk_seeds(seed: int, chunks: int) -> tuple[int, ...]:
    children = np.random.SeedSequence(seed).spawn(chunks)
    return tuple(
        int(child.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
        for child in children
    )


@dataclass(frozen=True)
class _ChunkTask:
    """Everything a worker needs, explicit and picklable.

    ``faults`` ships the parent's active :class:`FaultPlan` (ambient
    contextvar/env state never crosses into ``spawn`` workers);
    ``attempt`` is the retry ordinal, folded into fault decisions only
    — the *data* seed never changes across attempts, which is what
    makes retried runs bit-identical to fault-free ones.  ``trace``
    ships the dispatcher's span context the same way, so worker-side
    ``exec.chunk`` spans stitch into the parent trace.
    """

    circuit: Circuit
    shots: int
    seed: int
    backend: "str | SimBackend"
    noise_model: Optional[object]
    faults: Optional[FaultPlan] = None
    attempt: int = 0
    trace: Optional[_trace.TraceContext] = None


def _run_chunk_body(task: _ChunkTask) -> tuple[np.ndarray, RunInfo]:
    with _trace.span(
        "exec.chunk",
        shots=task.shots, seed=task.seed, attempt=task.attempt,
    ):
        maybe_inject_chunk_fault(task.faults, task.seed, task.attempt)
        return get_backend(task.backend).run_array_with_info(
            task.circuit, task.shots, task.seed, task.noise_model
        )


def _run_chunk(
    task: _ChunkTask,
) -> tuple[np.ndarray, RunInfo, Optional[list[dict]]]:
    """Worker entry point: one chunk, no ambient state consulted.

    Returns ``(results, info, spans)``.  ``spans`` is non-``None`` only
    when this runs *in a pool worker* under a shipped trace context: a
    worker cannot append to the parent's tracer, so it records into a
    throwaway local one (:func:`repro.obs.trace.recording`) and ships
    the span dicts back with the result for the dispatcher to
    :func:`~repro.obs.trace.absorb_spans`.  In the serial/in-process
    path the ambient tracer receives spans directly and ``spans`` is
    ``None``.
    """
    if (
        task.trace is not None
        and multiprocessing.parent_process() is not None
    ):
        with _trace.recording(task.trace) as tracer:
            results, info = _run_chunk_body(task)
        return results, info, tracer.spans
    results, info = _run_chunk_body(task)
    return results, info, None


# ----------------------------------------------------------------------
# Shared worker pools (one per (workers, start method), reused).
# ----------------------------------------------------------------------
_POOLS: dict[tuple[int, str], ProcessPoolExecutor] = {}


def _mp_context():
    method = os.environ.get(START_METHOD_ENV)
    return (
        multiprocessing.get_context(method)
        if method
        else multiprocessing.get_context()
    )


def _get_pool(workers: int) -> ProcessPoolExecutor:
    context = _mp_context()
    key = (workers, context.get_start_method())
    pool = _POOLS.get(key)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every cached worker pool (tests, service teardown)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=True, cancel_futures=True)


def recycle_pool(workers: int) -> None:
    """Discard the cached pool(s) for ``workers``, killing stragglers.

    Used after a ``BrokenProcessPool`` or a hung-chunk timeout: a
    broken pool never recovers, and a hung worker would otherwise hold
    its slot (and block interpreter exit) indefinitely.  Surviving
    worker processes are terminated outright — their chunks are
    re-dispatched by the caller, and per-chunk seeding makes the
    re-run bit-identical, so killing them loses nothing.
    """
    for key in [k for k in _POOLS if k[0] == workers]:
        pool = _POOLS.pop(key)
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


def parallel_run_with_info(
    circuit: Circuit,
    shots: int,
    seed: int = 0,
    workers: Optional[int] = None,
    backend: "str | SimBackend | None" = None,
    noise_model=None,
    use_processes: bool = True,
    retry: RetryPolicy = LIBRARY_RETRY,
    cancel_event=None,
) -> tuple[np.ndarray, RunInfo]:
    """Run ``shots`` sharded across ``workers`` processes.

    Returns ``(results, info)`` where ``results`` is the ``(shots,
    output bits)`` uint8 array of the chunks' arrays concatenated in
    plan order and ``info`` is the :meth:`RunInfo.merge` of
    the per-chunk records with ``workers`` and ``chunks`` filled in.
    Deterministic for fixed ``(seed, workers)`` (and the workload);
    different worker counts give statistically equivalent histograms
    drawn from independent derived streams.  ``workers=None`` means
    one worker (one chunk, run in-process); ``0`` means one per core.

    ``backend`` may be a registry name or a (picklable) instance;
    ``None`` resolves to the registry default *here in the parent*, so
    workers can never disagree with the dispatcher about the default.
    ``use_processes=False`` executes the same plan in-process
    (bit-identical results).

    Chunks are dispatched by :func:`repro.exec.retry.execute_with_retry`
    under ``retry`` (a :class:`~repro.exec.retry.RetryPolicy`):
    per-wave timeouts, bounded retry with backoff, pool recycling on
    ``BrokenProcessPool``, and graceful serial degradation — with the
    recovery telemetry merged into ``info`` (``retries`` /
    ``faults_injected`` / ``degraded``).  The default,
    :data:`LIBRARY_RETRY`, sets no timeout.  ``cancel_event`` (a
    :class:`threading.Event`) cooperatively cancels the remaining work
    between chunk waves (the service's deadline path).  The parent's
    active fault plan (:func:`repro.exec.faults.active_fault_plan`) is
    shipped on every chunk task, so injected faults reach pool workers
    under any start method.
    """
    workers = resolve_workers(workers)
    if isinstance(backend, SimBackend):
        resolved_backend: "str | SimBackend" = backend
    else:
        resolved_backend = backend or DEFAULT_BACKEND
        get_backend(resolved_backend)  # fail fast on unknown names
    plan = chunk_plan(shots, workers)
    seeds = derive_chunk_seeds(seed, len(plan))
    fault_plan = active_fault_plan()
    with _trace.span(
        "exec.dispatch",
        shots=shots, chunks=len(plan), workers=workers,
    ) as dispatch_span:
        trace_ctx = _trace.current_context()
        tasks = [
            _ChunkTask(
                circuit, chunk_shots, chunk_seed,
                resolved_backend, noise_model, fault_plan,
                trace=trace_ctx,
            )
            for chunk_shots, chunk_seed in zip(plan, seeds)
        ]
        _DISPATCHES.inc()
        _CHUNKS.inc(len(tasks))
        outcomes, telemetry = execute_with_retry(
            tasks, workers, retry,
            use_processes=use_processes,
            cancel_event=cancel_event,
        )
        parts: list[np.ndarray] = []
        infos: list[RunInfo] = []
        for chunk_results, chunk_info, chunk_spans in outcomes:
            parts.append(chunk_results)
            infos.append(chunk_info)
            _trace.absorb_spans(chunk_spans)
        results = parts[0] if len(parts) == 1 else np.concatenate(parts)
        dispatch_span.set(
            retries=telemetry.retries, degraded=telemetry.degraded
        )
    merged = dataclasses.replace(
        RunInfo.merge(infos, workers=workers),
        retries=telemetry.retries,
        faults_injected=telemetry.faults_injected,
        degraded=telemetry.degraded,
    )
    return results, merged


def parallel_draw_with_info(
    circuit: Circuit,
    plan: "list[Measurement]",
    cdf: np.ndarray,
    shots: int,
    seed: int = 0,
    workers: Optional[int] = None,
) -> tuple[np.ndarray, RunInfo]:
    """:func:`parallel_run_with_info` for a noiseless ``statevector``
    run whose marginal the caller already holds: ``(plan, cdf)`` from
    :func:`repro.sim.backend.memoized_marginal`.

    Chunk *i* of the same chunk plan draws its outcomes from
    ``default_rng(chunk_seed_i)``, exactly as that chunk's
    ``run_array_with_info`` would on a memo hit; the outcomes
    concatenate in plan order and scatter into output bits once.  So
    the bits and the :class:`RunInfo` equal those of an in-process
    :func:`parallel_run_with_info` of ``circuit`` with the same
    ``(shots, seed, workers)``, with no chunk task, no dispatcher and
    no further memo lookup.  It counts one dispatch, the plan's chunks
    and one memo hit, and traces one ``exec.dispatch`` span around one
    ``sim.sweep``.  Nothing here injects faults or can be cancelled:
    callers (the service's warm path) check both beforehand.
    """
    workers = resolve_workers(workers)
    sizes = chunk_plan(shots, workers)
    seeds = derive_chunk_seeds(seed, len(sizes))
    with _trace.span(
        "exec.dispatch",
        shots=shots, chunks=len(sizes), workers=workers,
        retries=0, degraded=False,
    ), _trace.span(
        "sim.sweep",
        engine="fast-path", shots=shots, qubits=circuit.num_qubits,
        memo="hit",
    ):
        _DISPATCHES.inc()
        _CHUNKS.inc(len(sizes))
        outcomes = [
            draw_outcomes(cdf, size, np.random.default_rng(chunk_seed))
            for size, chunk_seed in zip(sizes, seeds)
        ]
        results = scatter_outcomes(
            outcomes[0] if len(outcomes) == 1 else np.concatenate(outcomes),
            circuit,
            plan,
        )
    _MEMO_LOOKUPS.inc(outcome="hit")
    steps = sum(
        isinstance(inst, (CircuitGate, FusedUnitary))
        for inst in circuit.instructions
    )
    return results, RunInfo(
        VectorizedStatevectorBackend.name,
        shots,
        evolutions=0,
        fast_path=True,
        fused_ops=len(sizes) * steps,
        gates_fused=len(sizes) * fused_gate_savings(circuit),
        workers=workers,
        chunks=len(sizes),
    )
