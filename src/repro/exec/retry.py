"""Fault-tolerant chunk dispatch: timeouts, bounded retry, recycling.

:func:`execute_with_retry` is the one chunk dispatcher: every shot run
(:func:`repro.exec.parallel.parallel_run_with_info`) sends its chunks
through it.  One worker or one chunk runs in-process; otherwise chunks
go to a cached process pool, with **chunk-granular recovery**:

- every pending chunk is submitted as its own future and the wave is
  awaited with :func:`concurrent.futures.wait` under
  ``RetryPolicy.timeout`` — a hung worker (injected ``worker_hang``,
  a wedged BLAS call) turns into a timed-out wave, not a forever-block;
- a failed or hung chunk is retried with **decorrelated-jitter
  exponential backoff** (seeded by the chunk's data seed, so even the
  sleep schedule is deterministic), bounded twice: ``max_attempts``
  per chunk and a per-request ``budget`` across all chunks.
  Exhaustion raises :class:`~repro.errors.RetryBudgetExhaustedError`
  — a coded, rendered diagnostic, not a hang;
- a ``BrokenProcessPool`` or a timed-out wave recycles the pool
  (killing stragglers) and re-dispatches only the unfinished chunks;
  after ``degrade_after`` recycles the dispatcher **degrades
  gracefully** to serial in-process execution — slower, but it
  completes, and the run is flagged ``degraded`` in its telemetry;
- only *retryable* failures are retried:
  :class:`~repro.errors.FaultInjectedError`, pool breakage, and
  timeouts.  A genuine error raised by a chunk (a backend bug, an
  invalid circuit) propagates immediately — retrying a deterministic
  bug burns the budget to mask it.

Because a chunk's *data* seed never changes across attempts (only the
fault-decision key does), a run that absorbed crashes, hangs, and
recycles returns results **bit-identical** to a fault-free run — the
property the chaos tests and ``BENCH_service.json`` assert.

Cooperative cancellation: pass a :class:`threading.Event`; it is
checked between waves, and a set event cancels pending futures and
raises :class:`concurrent.futures.CancelledError` — the service's
deadline path actually stops the pool work instead of abandoning it.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import CancelledError, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.errors import FaultInjectedError, RetryBudgetExhaustedError
from repro.obs import logging as _obs_logging
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

_RETRIES = _metrics.counter(
    "repro_exec_retries_total",
    "Chunk retry attempts granted by the recovery path",
)
_RECYCLES = _metrics.counter(
    "repro_exec_pool_recycles_total",
    "Worker-pool recycles after breakage or a hung wave",
)
_DEGRADATIONS = _metrics.counter(
    "repro_exec_degradations_total",
    "Fallbacks to serial in-process execution",
)


def _note_degradation(reason: str, recycles: int) -> None:
    _DEGRADATIONS.inc()
    _trace.event("retry.degrade", reason=reason, recycles=recycles)
    _obs_logging.get_logger("exec.retry").warning(
        "degrading to serial in-process execution",
        extra={"fields": {"reason": reason, "recycles": recycles}},
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds for the fault-tolerant dispatch path.

    ``max_attempts`` caps executions *per chunk* (first try included);
    ``budget`` caps retries (attempts beyond the first) summed over
    the whole request, so a request-wide fault storm fails fast
    instead of multiplying per-chunk limits.  ``timeout`` is the
    per-wave wall-clock bound in seconds (``None`` waits forever —
    the library default, :data:`repro.exec.parallel.LIBRARY_RETRY`, so
    a long run is never killed as hung); ``backoff_base`` /
    ``backoff_cap`` shape the decorrelated-jitter sleep between a
    chunk's attempts; ``degrade_after`` is how many pool recycles are
    tolerated before falling back to serial in-process execution.
    """

    max_attempts: int = 3
    budget: int = 16
    timeout: Optional[float] = 30.0
    backoff_base: float = 0.01
    backoff_cap: float = 0.5
    degrade_after: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")


@dataclass
class RetryTelemetry:
    """What the recovery machinery actually did, for ``RunInfo``."""

    retries: int = 0
    faults_injected: int = 0
    pool_recycles: int = 0
    degraded: bool = False


def backoff_delay(policy: RetryPolicy, seed: int, attempt: int) -> float:
    """The decorrelated-jitter sleep before retry number ``attempt``.

    ``sleep_n = min(cap, uniform(base, 3 * sleep_{n-1}))`` (the AWS
    architecture-blog variant), with the jitter stream seeded by the
    chunk's data seed — deterministic per chunk, decorrelated across
    chunks, so a fault storm's retries do not stampede in lockstep.
    """
    rng = random.Random((seed << 8) ^ 0x5EED)
    delay = policy.backoff_base
    for _ in range(attempt):
        delay = min(
            policy.backoff_cap, rng.uniform(policy.backoff_base, delay * 3)
        )
    return delay


def _check_cancel(cancel_event: Optional[threading.Event]) -> None:
    if cancel_event is not None and cancel_event.is_set():
        raise CancelledError("execution cancelled (deadline or shutdown)")


def _budget_error(
    task, attempts: int, telemetry: RetryTelemetry, policy: RetryPolicy
) -> RetryBudgetExhaustedError:
    error = RetryBudgetExhaustedError(
        f"chunk (seed {task.seed}, {task.shots} shots) still failing "
        f"after {attempts} attempt(s)"
    )
    error.with_note(
        f"retry policy: max_attempts={policy.max_attempts}, "
        f"budget={policy.budget}; request consumed "
        f"{telemetry.retries} retr{'y' if telemetry.retries == 1 else 'ies'}"
    )
    if telemetry.faults_injected:
        error.with_note(
            f"{telemetry.faults_injected} injected fault(s) absorbed "
            f"before exhaustion (see repro.exec.faults)"
        )
    return error


def _fault_plan_is_active(tasks: Sequence) -> bool:
    return any(task.faults is not None for task in tasks)


def execute_with_retry(
    tasks: Sequence,
    workers: int,
    policy: RetryPolicy,
    *,
    use_processes: bool = True,
    cancel_event: Optional[threading.Event] = None,
) -> tuple[list, RetryTelemetry]:
    """Run chunk tasks with recovery; returns ``(outcomes, telemetry)``.

    ``outcomes`` preserves plan order.  ``tasks`` are
    :class:`repro.exec.parallel._ChunkTask` instances (shipped with
    their fault plan and ``attempt=0``).  One worker, one task, or
    ``use_processes=False`` runs in-process.
    """
    from repro.exec.parallel import _get_pool, _run_chunk, recycle_pool

    telemetry = RetryTelemetry()
    results: list = [None] * len(tasks)
    pending: dict[int, int] = {i: 0 for i in range(len(tasks))}  # -> attempt
    budget_left = policy.budget
    chaos = _fault_plan_is_active(tasks)

    def note_retry(index: int, *, injected: bool) -> None:
        nonlocal budget_left
        attempt = pending[index]
        if injected:
            telemetry.faults_injected += 1
        if attempt + 1 >= policy.max_attempts or budget_left <= 0:
            raise _budget_error(
                replace(tasks[index], attempt=attempt),
                attempt + 1,
                telemetry,
                policy,
            )
        budget_left -= 1
        telemetry.retries += 1
        pending[index] = attempt + 1
        _RETRIES.inc()
        _trace.event(
            "retry.attempt",
            chunk_seed=tasks[index].seed,
            attempt=attempt + 1,
            injected=injected,
        )

    serial = not use_processes or workers <= 1 or len(tasks) <= 1

    while pending:
        _check_cancel(cancel_event)
        if serial or telemetry.degraded:
            _serial_wave(
                tasks, pending, results, note_retry, policy, cancel_event
            )
            continue

        try:
            pool = _get_pool(workers)
        except OSError:
            # The pool cannot start here at all (sandbox): degrade.
            telemetry.degraded = True
            _note_degradation("pool failed to start", telemetry.pool_recycles)
            continue

        wave = {}
        broken = False
        for index in sorted(pending):
            task = replace(tasks[index], attempt=pending[index])
            try:
                wave[pool.submit(_run_chunk, task)] = index
            except (BrokenProcessPool, RuntimeError):
                # submit() after breakage/shutdown; retry this wave on
                # a fresh pool.
                broken = True
                break

        if wave:
            done, not_done = wait(wave, timeout=policy.timeout)
            for future in done:
                index = wave[future]
                try:
                    results[index] = future.result()
                    del pending[index]
                except FaultInjectedError:
                    note_retry(index, injected=True)
                except BrokenProcessPool:
                    broken = True
                    note_retry(index, injected=chaos)
                except CancelledError:
                    pass  # re-dispatched (or surfaced) next wave
            if not_done:
                # Hung chunks: count a retry for each, then recycle the
                # pool below so their stuck workers are killed.
                for future in not_done:
                    future.cancel()
                    note_retry(wave[future], injected=chaos)
                broken = True

        if broken:
            recycle_pool(workers)
            telemetry.pool_recycles += 1
            _RECYCLES.inc()
            _trace.event(
                "retry.pool_recycle", recycles=telemetry.pool_recycles
            )
            if telemetry.pool_recycles >= policy.degrade_after:
                telemetry.degraded = True
                _note_degradation(
                    "recycle limit reached", telemetry.pool_recycles
                )
        if pending:
            _check_cancel(cancel_event)
            index = min(pending)
            delay = backoff_delay(
                policy, tasks[index].seed, pending[index]
            )
            if delay > 0:
                time.sleep(delay)

    return results, telemetry


def _serial_wave(
    tasks, pending, results, note_retry, policy, cancel_event
) -> None:
    """One in-process pass over the pending chunks (degraded mode).

    No timeouts apply — there is no process to kill — but injected
    hangs are bounded by ``FaultPlan.hang_seconds``, so the pass always
    terminates; crashes retry exactly like the pooled path.
    """
    from repro.exec.parallel import _run_chunk

    for index in sorted(pending):
        while True:
            _check_cancel(cancel_event)
            task = replace(tasks[index], attempt=pending[index])
            try:
                results[index] = _run_chunk(task)
                del pending[index]
                break
            except FaultInjectedError:
                note_retry(index, injected=True)
                delay = backoff_delay(policy, task.seed, pending[index])
                if delay > 0:
                    time.sleep(delay)


__all__ = [
    "RetryPolicy",
    "RetryTelemetry",
    "backoff_delay",
    "execute_with_retry",
]
