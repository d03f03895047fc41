"""Fault-tolerant chunk dispatch: bounded retry with backoff.

:func:`execute_with_retry` is the one chunk dispatcher: every shot run
(:func:`repro.exec.parallel.parallel_run_with_info`) sends its chunks
through it, and it runs them one after another in the calling thread,
with **chunk-granular recovery**:

- a chunk whose attempt fails with an injected fault is retried with
  **decorrelated-jitter exponential backoff** (seeded by the chunk's
  run seed and index, so even the sleep schedule is deterministic),
  bounded twice: ``max_attempts`` per chunk and a per-request
  ``budget`` across all chunks.  Exhaustion raises
  :class:`~repro.errors.RetryBudgetExhaustedError` — a coded, rendered
  diagnostic, not a hang;
- only :class:`~repro.errors.FaultInjectedError` is retried.  A
  genuine error raised by a chunk (a backend bug, an invalid circuit)
  propagates immediately — retrying a deterministic bug burns the
  budget to mask it.  An injected hang just sleeps and then completes;
  the service's deadline bounds it.

Because a chunk's *data* stream never changes across attempts (only
the fault-decision key does), a run that absorbed crashes and hangs
returns results **bit-identical** to a fault-free run — the property
the chaos tests and ``BENCH_service.json`` assert.

Cooperative cancellation: pass a :class:`threading.Event`; it is
checked before every chunk attempt, and a set event raises
:class:`concurrent.futures.CancelledError` — the service's deadline
path stops the remaining chunks instead of running them to the end.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.errors import FaultInjectedError, RetryBudgetExhaustedError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

_RETRIES = _metrics.counter(
    "repro_exec_retries_total",
    "Chunk retry attempts granted by the recovery path",
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds for the fault-tolerant dispatch path.

    ``max_attempts`` caps executions *per chunk* (first try included);
    ``budget`` caps retries (attempts beyond the first) summed over
    the whole request, so a request-wide fault storm fails fast
    instead of multiplying per-chunk limits.  ``backoff_base`` /
    ``backoff_cap`` shape the decorrelated-jitter sleep between a
    chunk's attempts.
    """

    max_attempts: int = 3
    budget: int = 16
    backoff_base: float = 0.01
    backoff_cap: float = 0.5

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


def backoff_delay(
    policy: RetryPolicy, seed: int, index: int, attempt: int
) -> float:
    """The decorrelated-jitter sleep before retry number ``attempt``
    of chunk ``index`` of a run seeded ``seed``.

    ``sleep_n = min(cap, uniform(base, 3 * sleep_{n-1}))`` (the AWS
    architecture-blog variant), with the jitter stream seeded by the
    chunk's ``(seed, index)`` — deterministic per chunk, decorrelated
    across chunks, so a fault storm's retries do not stampede in
    lockstep.
    """
    rng = random.Random(f"{seed}/{index}")
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
        f"chunk {task.index} (seed {task.seed}, {task.shots} shots) "
        f"still failing after {attempts} attempt(s)"
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


def execute_with_retry(
    tasks: Sequence,
    run: Callable,
    policy: RetryPolicy,
    *,
    cancel_event: Optional[threading.Event] = None,
) -> tuple[list, RetryTelemetry]:
    """Run every chunk task with ``run`` and recovery; returns
    ``(outcomes, telemetry)``, with ``outcomes`` in plan order.

    ``tasks`` are :class:`repro.exec.parallel._ChunkTask` instances
    with ``attempt=0``; ``run`` receives each attempt's copy.
    """
    telemetry = RetryTelemetry()
    budget_left = policy.budget
    outcomes: list = []
    for task in tasks:
        attempt = 0
        while True:
            _check_cancel(cancel_event)
            try:
                outcomes.append(run(replace(task, attempt=attempt)))
                break
            except FaultInjectedError:
                telemetry.faults_injected += 1
                if attempt + 1 >= policy.max_attempts or budget_left <= 0:
                    raise _budget_error(task, attempt + 1, telemetry, policy)
            budget_left -= 1
            telemetry.retries += 1
            attempt += 1
            _RETRIES.inc()
            _trace.event(
                "retry.attempt",
                seed=task.seed,
                chunk=task.index,
                attempt=attempt,
                injected=True,
            )
            delay = backoff_delay(policy, task.seed, task.index, attempt)
            if delay > 0:
                time.sleep(delay)
    return outcomes, telemetry


__all__ = [
    "RetryPolicy",
    "RetryTelemetry",
    "backoff_delay",
    "execute_with_retry",
]
