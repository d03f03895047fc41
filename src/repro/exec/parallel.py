"""The chunked shot executor: the one way shots are run.

Every shot-running entry point — ``run_circuit``,
``run_circuit_with_info``, ``simulate_kernel(_with_info)``,
``kernel()`` and the service — calls :func:`parallel_run_with_info`,
so there is one seed convention and one dispatcher:

- :func:`chunk_plan` ceil-splits a shot count into at most ``workers``
  chunks (``parallel_workers=None`` means one worker, so one chunk).
  Memory is not its concern: the batched engine already caps every
  sweep at :data:`~repro.sim.batched.MAX_BATCH_BYTES`;
- chunk *i* draws from its own **counter-based stream**,
  :func:`chunk_stream` ``(seed, i)`` = ``Generator(Philox(key=(seed,
  i)))``: keys that differ give independent Philox streams, so the
  sharded histogram is statistically equivalent to a one-chunk run
  and *fully deterministic* for a fixed ``(seed, workers)`` pair.  The
  engines receive that generator as their ``seed`` (their
  ``np.random.default_rng(seed)`` passes it through);
- every chunk runs in the calling process, dispatched by
  :func:`repro.exec.retry.execute_with_retry`;
- per-chunk ``(shots, output bits)`` uint8 arrays concatenate in plan
  order and per-chunk :class:`~repro.sim.backend.RunInfo` telemetry
  merges via :meth:`RunInfo.merge`, with ``workers``/``chunks``
  recorded.

The one shortcut is :func:`parallel_draw_with_info`, for a caller that
already holds a circuit's memoized marginal (the service's warm
requests): it draws the same plan's chunks from the same streams and
dispatches nothing, so its counts are those of the dispatcher's bits.

Determinism contract: the output depends only on the chunk plan and
the chunk streams — **not** on which thread ran a chunk, nor on how
many attempts it took.  See docs/performance.md ("Parallel execution &
the persistent cache").
"""

from __future__ import annotations

import dataclasses
import os
import threading
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
from repro.qcircuit.circuit import Circuit
from repro.sim.backend import (
    DEFAULT_BACKEND,
    RunFacts,
    RunInfo,
    SimBackend,
    VectorizedStatevectorBackend,
    draw_outcomes,
    get_backend,
    outcome_counts,
)

#: Request seeds are unsigned 64-bit integers, ``0 <= seed <
#: SEED_LIMIT``: chunk *i* is keyed ``(seed, i)`` and a Philox key is
#: two 64-bit words.  The service refuses a larger seed with ``QW604``
#: and the library entry points with :class:`SimulationError`.
SEED_LIMIT = 1 << 64

_DISPATCHES = _metrics.counter(
    "repro_exec_dispatches_total",
    "Parallel run dispatches (one per parallel_run_with_info or "
    "parallel_draw_with_info call)",
).labels()
_CHUNKS = _metrics.counter(
    "repro_exec_chunks_total",
    "Chunks planned for dispatch across all parallel runs",
).labels()
# Get-or-create: the series repro.sim.backend counts its memo lookups
# in; a warm draw is one hit.
_MEMO_HITS = _metrics.counter(
    "repro_sim_marginal_memo_total",
    "Fast-path terminal-marginal memo lookups by outcome (hit, miss)",
    labels=("outcome",),
).labels(outcome="hit")


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


def check_seed(seed) -> None:
    """Refuse a run seed that is not an integer in ``[0,
    SEED_LIMIT)`` (see :data:`SEED_LIMIT`)."""
    if (
        isinstance(seed, bool)
        or not isinstance(seed, (int, np.integer))
        or not 0 <= seed < SEED_LIMIT
    ):
        raise SimulationError(
            f"a run seed must be an integer in [0, 2**64), got {seed!r}"
        )


def chunk_stream(seed: int, index: int) -> np.random.Generator:
    """The random stream of chunk ``index`` of a run seeded ``seed``:
    ``Generator(Philox(key=(seed, index)))``.

    Counter-based: a stream is a pure function of its key, so chunk
    *i* draws the same numbers on every attempt, on every thread, and
    in the warm draw, and the streams of distinct chunks are
    independent (Salmon et al., SC'11).  ``seed`` must pass
    :func:`check_seed`.
    """
    key = np.array((seed, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


#: Each thread's generator for :func:`_rekeyed_stream`.
_THREAD_STREAM = threading.local()
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def _rekeyed_stream(seed: int, index: int) -> np.random.Generator:
    """:func:`chunk_stream` ``(seed, index)`` without building one: this
    thread's Philox generator, set through its ``state`` to key ``(seed,
    index)`` and counter 0, with an empty buffer.  A new ``Philox``
    first seeds itself from OS entropy and then discards that seeding,
    which costs several times the re-key.

    The generator is this thread's, and the next call on the thread
    re-keys it: draw everything needed from it first.
    """
    generator = getattr(_THREAD_STREAM, "generator", None)
    if generator is None:
        generator = _THREAD_STREAM.generator = np.random.Generator(
            np.random.Philox()
        )
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (seed, index)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


@dataclass(frozen=True)
class _ChunkTask:
    """One chunk of a run.

    ``seed`` and ``index`` (the run seed and the chunk's place in the
    plan) name the chunk's :func:`chunk_stream`, its fault sites and
    its retry jitter.  ``faults`` is the dispatcher's active
    :class:`FaultPlan`; ``attempt`` is the retry ordinal, folded into
    fault decisions only — the stream never changes across attempts,
    which is what makes retried runs bit-identical to fault-free ones.
    """

    circuit: Circuit
    shots: int
    seed: int
    index: int
    backend: "str | SimBackend"
    noise_model: Optional[object]
    faults: Optional[FaultPlan] = None
    attempt: int = 0


def _run_chunk(task: _ChunkTask) -> tuple[np.ndarray, RunInfo]:
    """Run one chunk attempt in the calling thread."""
    with _trace.span(
        "exec.chunk",
        shots=task.shots, seed=task.seed, chunk=task.index,
        attempt=task.attempt,
    ):
        maybe_inject_chunk_fault(
            task.faults, task.seed, task.index, task.attempt
        )
        return get_backend(task.backend).run_array_with_info(
            task.circuit,
            task.shots,
            chunk_stream(task.seed, task.index),
            task.noise_model,
        )


def parallel_run_with_info(
    circuit: Circuit,
    shots: int,
    seed: int = 0,
    workers: Optional[int] = None,
    backend: "str | SimBackend | None" = None,
    noise_model=None,
    retry: RetryPolicy = RetryPolicy(),
    cancel_event=None,
) -> tuple[np.ndarray, RunInfo]:
    """Run ``shots`` as ``workers`` chunks in the calling process.

    Returns ``(results, info)`` where ``results`` is the ``(shots,
    output bits)`` uint8 array of the chunks' arrays concatenated in
    plan order and ``info`` is the :meth:`RunInfo.merge` of
    the per-chunk records with ``workers`` and ``chunks`` filled in.
    Deterministic for fixed ``(seed, workers)`` (and the workload);
    different worker counts give statistically equivalent histograms
    drawn from independent chunk streams (:func:`chunk_stream`).
    ``seed`` must be an integer in ``[0, 2**64)``.  ``workers=None``
    means one chunk; ``0`` means one per core.  ``backend`` may be a
    registry name or an instance; ``None`` is the registry default.

    Chunks are dispatched by :func:`repro.exec.retry.execute_with_retry`
    under ``retry`` (a :class:`~repro.exec.retry.RetryPolicy`): bounded
    retry with backoff, with the recovery telemetry merged into
    ``info`` (``retries`` / ``faults_injected``).  ``cancel_event`` (a
    :class:`threading.Event`) cooperatively cancels the remaining work
    between chunk attempts (the service's deadline path).  Injected
    chunk faults come from the active fault plan
    (:func:`repro.exec.faults.active_fault_plan`).
    """
    check_seed(seed)
    workers = resolve_workers(workers)
    if isinstance(backend, SimBackend):
        resolved_backend: "str | SimBackend" = backend
    else:
        resolved_backend = backend or DEFAULT_BACKEND
        get_backend(resolved_backend)  # fail fast on unknown names
    plan = chunk_plan(shots, workers)
    fault_plan = active_fault_plan()
    with _trace.span(
        "exec.dispatch",
        shots=shots, chunks=len(plan), workers=workers,
    ) as dispatch_span:
        tasks = [
            _ChunkTask(
                circuit, chunk_shots, seed, index,
                resolved_backend, noise_model, fault_plan,
            )
            for index, chunk_shots in enumerate(plan)
        ]
        _DISPATCHES.inc()
        _CHUNKS.inc(len(tasks))
        outcomes, telemetry = execute_with_retry(
            tasks, _run_chunk, retry, cancel_event=cancel_event
        )
        parts = [chunk_results for chunk_results, _ in outcomes]
        results = parts[0] if len(parts) == 1 else np.concatenate(parts)
        dispatch_span.set(retries=telemetry.retries)
    merged = dataclasses.replace(
        RunInfo.merge([info for _, info in outcomes], workers=workers),
        retries=telemetry.retries,
        faults_injected=telemetry.faults_injected,
    )
    return results, merged


def parallel_draw_with_info(
    facts: RunFacts,
    cdf: np.ndarray,
    shots: int,
    seed: int = 0,
    workers: Optional[int] = None,
) -> tuple[dict[str, int], RunInfo]:
    """:func:`parallel_run_with_info` for a noiseless ``statevector``
    run whose marginal the caller already holds: the circuit's
    :class:`~repro.sim.backend.RunFacts` and the CDF
    :func:`repro.sim.backend.memoized_marginal` returned for them.

    Chunk *i* of the same chunk plan draws its outcomes from
    :func:`chunk_stream` ``(seed, i)`` (re-keyed, see
    :func:`_rekeyed_stream`), exactly as that chunk's
    ``run_array_with_info`` would on a memo hit, and the outcomes of
    all chunks are counted in plan order with the keys of the facts'
    output layout (:func:`~repro.sim.backend.outcome_counts`).
    Returns ``(counts, info)``: the counts are ``protocol.counts_of`` of the bits an
    in-process :func:`parallel_run_with_info` of the circuit returns
    for the same ``(shots, seed, workers)``, key order included, and
    the :class:`RunInfo` is its info.  There is no chunk task, no
    dispatcher and no further memo lookup.  It counts one dispatch, the
    plan's chunks and one memo hit, and traces one ``exec.dispatch``
    span around one ``sim.sweep``.  Nothing here injects faults or can
    be cancelled: callers (the service's warm path) check both
    beforehand.
    """
    check_seed(seed)
    workers = resolve_workers(workers)
    sizes = chunk_plan(shots, workers)
    with _trace.span(
        "exec.dispatch",
        shots=shots, chunks=len(sizes), workers=workers, retries=0,
    ), _trace.span(
        "sim.sweep",
        engine="fast-path", shots=shots, qubits=facts.circuit.num_qubits,
        memo="hit",
    ):
        _DISPATCHES.inc()
        _CHUNKS.inc(len(sizes))
        # Each chunk's searchsorted consumes its uniforms before the
        # next re-key.
        outcomes = [
            draw_outcomes(cdf, size, _rekeyed_stream(seed, index))
            for index, size in enumerate(sizes)
        ]
        counts = outcome_counts(
            outcomes[0] if len(outcomes) == 1 else np.concatenate(outcomes),
            facts.layout,
        )
    _MEMO_HITS.inc()
    return counts, RunInfo(
        VectorizedStatevectorBackend.name,
        shots,
        evolutions=0,
        fast_path=True,
        fused_ops=len(sizes) * facts.steps,
        gates_fused=len(sizes) * facts.gates_fused,
        workers=workers,
        chunks=len(sizes),
    )
