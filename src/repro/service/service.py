"""The fault-tolerant async execution engine (transport-agnostic).

:class:`ExecutionService` is the whole service except the socket: the
TCP front end (:mod:`repro.service.server`) and the in-process
:class:`ServiceClient` both drive the same ``submit()``, so every
robustness property below is testable without binding a port.

Robustness model
----------------
- **Backpressure, not collapse.**  Admission is a bounded
  :class:`asyncio.PriorityQueue`; when it is full the request is shed
  *immediately* with ``QW601`` (the 429 of this protocol) instead of
  growing an unbounded backlog whose every entry will miss its
  deadline anyway.  Clients retry with backoff; the queue bound is the
  knob that converts overload into explicit, observable shedding.
- **Deadlines end-to-end.**  Every request carries one (default and
  ceiling from :class:`ServiceConfig`), measured from *admission*, so
  queue wait counts against it.  Expiry anywhere — still queued, or
  mid-execution via :func:`asyncio.timeout` — produces ``QW602`` and
  sets the request's cancel event, which the retry layer honors
  between chunk waves by cancelling pool futures: the deadline
  actually stops the work instead of abandoning a zombie computation.
- **Warm requests skip the hand-off.**  A request that only draws
  shots from memory (see :meth:`ExecutionService._warm`) runs on the
  event loop rather than an executor thread: on the submitting task
  when the admission queue is empty and an executor is idle (the
  request an idle worker would dequeue next), else on the worker loop
  that dequeues it.  Nothing can cancel it there, so if it completes
  past its deadline its result is discarded and the reply is still
  ``QW602``.
- **Retries with a budget.**  Chunk execution goes through
  :mod:`repro.exec.retry`; transient faults (crashes, hangs, pool
  breakage) are absorbed and reported in ``RunInfo.retries`` /
  ``faults_injected``, exhaustion surfaces as ``QW603``.
- **Graceful degradation.**  A run that had to recycle broken pools
  flags itself ``degraded``; after ``degrade_runs`` consecutive
  degraded runs the service pins itself to serial in-process execution
  (slow but alive) until :meth:`ExecutionService.reset_degradation`.
- **Graceful drain.**  :meth:`drain` stops admission (``QW605``),
  lets queued work finish within ``drain_timeout``, then cancels
  workers and shuts the thread pool down.

Every outcome increments a counter surfaced by ``op: "stats"`` —
queue depth, shed/deadline/retry totals, per-code error counts, and
the compile cache's hit rates — because a service whose failure modes
are invisible is a service whose failure modes are unhandled.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import linecache
import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import (
    BadRequestError,
    DeadlineExceededError,
    QueueFullError,
    QwertyError,
    ServiceUnavailableError,
)
from repro.exec.faults import FaultPlan, active_fault_plan, inject_faults
from repro.exec.retry import RetryPolicy, runs_in_process
from repro.obs import logging as obslog
from repro.obs import metrics as obs_metrics
from repro.obs import trace as tracing
from repro.service import protocol

#: Sequential per-process instance labels: two services in one test
#: process (or a restarted one) get distinct series, so per-instance
#: counts reconcile exactly with each instance's ``stats()``.
_INSTANCE_SEQ = itertools.count(1)

#: The lifecycle counter vocabulary ``stats()`` reports; each key is
#: one ``event`` label value on :data:`_EVENTS` — the registry is the
#: single counting substrate, ``stats()`` a derived view of it.
_COUNTER_EVENTS = (
    "received",
    "accepted",
    "completed",
    "shed",
    "deadline_exceeded",
    "failed",
    "retries",
    "faults_injected",
    "degraded_runs",
)

_EVENTS = obs_metrics.counter(
    "repro_service_events_total",
    "Request lifecycle events by service instance and event",
    labels=("service", "event"),
)
_ERRORS = obs_metrics.counter(
    "repro_service_errors_total",
    "Error responses by service instance and error code",
    labels=("service", "code"),
)
_QUEUE_DEPTH = obs_metrics.gauge(
    "repro_service_queue_depth",
    "Requests currently waiting in the admission queue",
    labels=("service",),
)
_LATENCY = obs_metrics.histogram(
    "repro_service_request_seconds",
    "End-to-end run-request latency, admission to completion",
    labels=("service",),
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`ExecutionService`.

    ``queue_limit`` bounds admission (beyond it: ``QW601`` shedding);
    ``executors`` is how many requests execute concurrently (each gets
    one thread driving the chunk dispatcher); ``parallel_workers`` /
    ``use_processes`` configure per-run shot sharding;
    ``default_deadline`` / ``max_deadline`` are seconds;
    ``retry`` bounds per-chunk recovery; ``degrade_runs`` is how many
    consecutive degraded runs pin the service to serial execution;
    ``fault_plan`` forces a fault plan for every request (benchmarks —
    normally the ambient plan from :mod:`repro.exec.faults` applies).
    """

    queue_limit: int = 64
    executors: int = 2
    parallel_workers: int = 2
    use_processes: bool = True
    default_deadline: float = 30.0
    max_deadline: float = 300.0
    drain_timeout: float = 10.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    degrade_runs: int = 2
    fault_plan: Optional[FaultPlan] = None


@dataclass
class _Work:
    """One admitted run request, in flight between queue and executor.

    ``trace`` carries the submitting request span's context: the
    worker loop and the executor thread both run outside the
    submitter's contextvar context, so they re-attach it explicitly
    (:func:`repro.obs.trace.attached`) and their spans land under the
    same ``service.request`` span.  ``future`` is made when the request
    is queued, ``cancel_event`` when it goes to an executor thread.
    ``warm`` is the verdict of the warm check, once it ran.
    ``compiled`` is the ``(compile, provenance)`` pair the warm check
    found, if any: whichever path runs the request uses it instead of
    looking it up again.  ``marginal`` is the ``(run facts, cdf)`` pair
    of the compile's execution circuit that a warm request draws its
    shots from.
    """

    request: protocol.RunRequest
    admitted_at: float
    deadline: float
    fault_plan: Optional[FaultPlan]
    trace: Optional[tracing.TraceContext] = None
    future: "Optional[asyncio.Future[dict]]" = None
    cancel_event: Optional[threading.Event] = None
    warm: Optional[bool] = None
    compiled: Optional[tuple] = None
    marginal: Optional[tuple] = None


class ExecutionService:
    """The asyncio execution service core.  Use as an async context
    manager, or call :meth:`start` / :meth:`drain` explicitly."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._queue: "asyncio.PriorityQueue" = asyncio.PriorityQueue(
            maxsize=self.config.queue_limit
        )
        self._seq = 0
        self._workers: list[asyncio.Task] = []
        self._threads: Optional[ThreadPoolExecutor] = None
        self._draining = False
        self._started = False
        self._started_at = 0.0
        self._in_flight = 0
        self._consecutive_degraded = 0
        self._serial_mode = False
        self._label = str(next(_INSTANCE_SEQ))
        # This instance's series, bound once (a warm request makes
        # about ten updates).
        self._events = {
            event: _EVENTS.labels(service=self._label, event=event)
            for event in _COUNTER_EVENTS
        }
        self._queue_depth = _QUEUE_DEPTH.labels(service=self._label)
        self._latency = _LATENCY.labels(service=self._label)

    # ------------------------------------------------------------------
    # Counting (one substrate: the repro.obs.metrics registry).
    # ------------------------------------------------------------------
    def _count(self, event: str, amount: int = 1) -> None:
        self._events[event].inc(amount)

    def _note_queue_depth(self) -> None:
        self._queue_depth.set(self._queue.qsize())

    @property
    def counters(self) -> dict[str, int]:
        """Lifecycle counters, derived from the metrics registry — the
        same series ``op: "metrics"`` exposes, so the two can never
        disagree."""
        return {
            event: int(_EVENTS.value(service=self._label, event=event))
            for event in _COUNTER_EVENTS
        }

    @property
    def error_codes(self) -> dict[str, int]:
        """Per-code error counts for this instance, registry-derived."""
        return {
            key[1]: int(value)
            for key, value in sorted(_ERRORS.series().items())
            if key[0] == self._label
        }

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> "ExecutionService":
        if self._started:
            return self
        self._started = True
        self._started_at = time.monotonic()
        self._threads = ThreadPoolExecutor(
            max_workers=self.config.executors,
            thread_name_prefix="repro-service",
        )
        for index in range(self.config.executors):
            self._workers.append(
                asyncio.create_task(
                    self._worker_loop(), name=f"repro-service-{index}"
                )
            )
        return self

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish queued work (up to
        ``drain_timeout``), then tear down workers and threads."""
        self._draining = True
        try:
            await asyncio.wait_for(
                self._queue.join(), timeout=self.config.drain_timeout
            )
        except asyncio.TimeoutError:
            pass  # whatever is still queued gets cancelled below
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        if self._threads is not None:
            self._threads.shutdown(wait=True, cancel_futures=True)
            self._threads = None
        while not self._queue.empty():
            # Anything admitted but never executed: fail it explicitly
            # rather than leaving its future forever pending.
            _, _, work = self._queue.get_nowait()
            self._queue.task_done()
            if not work.future.done():
                work.future.set_result(
                    self._error(
                        work.request.id,
                        ServiceUnavailableError(
                            "service drained before this request ran"
                        ),
                    )
                )

    async def __aenter__(self) -> "ExecutionService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------
    async def submit(self, payload: dict) -> dict:
        """One request in, one response out; never raises.

        ``payload`` is a parsed wire object (see
        :mod:`repro.service.protocol`).  Validation failures, shedding,
        deadline misses, and execution errors all come back as
        structured error responses.
        """
        self._count("received")
        request_id = payload.get("id") if isinstance(payload, dict) else None
        try:
            op = payload.get("op", "run")
            if op == "health":
                return protocol.ok_response(request_id, self.health())
            if op == "stats":
                return protocol.ok_response(request_id, self.stats())
            if op == "metrics":
                return protocol.ok_response(request_id, self.metrics())
        except Exception as error:  # noqa: BLE001 — the wire gets it all
            return self._error(request_id, error)
        bind = (
            obslog.bound_request(request_id)
            if request_id is not None
            else nullcontext()
        )
        with tracing.span(
            "service.request", request_id=request_id, service=self._label
        ) as span, bind:
            try:
                request = protocol.RunRequest.from_payload(payload)
                if self._draining or not self._started:
                    raise ServiceUnavailableError(
                        "service is draining and accepts no new requests"
                        if self._draining
                        else "service is not started"
                    )
                deadline = min(
                    request.deadline or self.config.default_deadline,
                    self.config.max_deadline,
                )
                work = _Work(
                    request=request,
                    admitted_at=time.monotonic(),
                    deadline=deadline,
                    fault_plan=(
                        self.config.fault_plan or active_fault_plan()
                    ),
                    trace=tracing.current_context(),
                )
                if (
                    self._queue.empty()
                    and self._in_flight < self.config.executors
                ):
                    # An idle worker would dequeue this request next: a
                    # warm one is answered here, without the queue hop.
                    work.warm = self._warm(work)
                if work.warm:
                    self._count("accepted")
                    response = self._run_warm(work)
                else:
                    response = await self._queued(work)
            except Exception as error:  # noqa: BLE001
                response = self._error(request_id, error)
            span.set(
                outcome=response["error"]["code"]
                if "error" in response
                else "done"
            )
            return response

    async def _queued(self, work: _Work) -> dict:
        """Admit ``work`` to the queue (or shed it) and await its
        answer from a worker loop."""
        work.future = asyncio.get_running_loop().create_future()
        self._seq += 1
        try:
            self._queue.put_nowait((work.request.priority, self._seq, work))
        except asyncio.QueueFull:
            self._count("shed")
            raise QueueFullError(
                f"admission queue full ({self.config.queue_limit} "
                f"requests); retry with backoff"
            ) from None
        self._note_queue_depth()
        self._count("accepted")
        return await work.future

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    async def _worker_loop(self) -> None:
        while True:
            _, _, work = await self._queue.get()
            self._note_queue_depth()
            try:
                response = await self._process(work)
            except asyncio.CancelledError:
                if not work.future.done():
                    work.future.set_result(
                        self._error(
                            work.request.id,
                            ServiceUnavailableError(
                                "service shut down mid-request"
                            ),
                        )
                    )
                raise
            except Exception as error:  # noqa: BLE001
                response = self._error(work.request.id, error)
            finally:
                self._queue.task_done()
            if not work.future.done():
                work.future.set_result(response)

    async def _process(self, work: _Work) -> dict:
        # The worker task's contextvar context is not the submitter's:
        # re-attach the request span so dequeue events and downstream
        # spans stitch under it.
        with tracing.attached(work.trace):
            return await self._process_attached(work)

    async def _process_attached(self, work: _Work) -> dict:
        request = work.request
        queued_s = time.monotonic() - work.admitted_at
        tracing.event("service.dequeue", queued_s=round(queued_s, 6))
        remaining = work.deadline - queued_s
        if remaining <= 0:
            # Expired while queued: never spend compute on it.
            self._count("deadline_exceeded")
            return self._error(
                request.id,
                DeadlineExceededError(
                    f"deadline of {work.deadline:.3f}s elapsed while "
                    f"queued"
                ),
            )
        if work.warm is None:
            work.warm = self._warm(work)
        if work.warm:
            # Only draws shots: cheaper than the executor hop, and too
            # short to hold up the other connections.
            return self._run_warm(work)
        work.cancel_event = threading.Event()
        loop = asyncio.get_running_loop()
        self._in_flight += 1
        try:
            # asyncio.wait_for rather than asyncio.timeout: identical
            # semantics here, and it exists on Python 3.10 (the oldest
            # version CI supports).
            result = await asyncio.wait_for(
                loop.run_in_executor(
                    self._threads, self._execute_sync, work
                ),
                timeout=remaining,
            )
        except asyncio.TimeoutError:
            # Cooperative cancellation: the retry layer checks the
            # event between chunk waves and cancels pool futures.
            work.cancel_event.set()
            self._count("deadline_exceeded")
            return self._error(
                request.id,
                DeadlineExceededError(
                    f"deadline of {work.deadline:.3f}s exceeded "
                    f"mid-execution; work cancelled"
                ),
            )
        except asyncio.CancelledError:
            if work.cancel_event.is_set():
                # The executor thread observed the cancel event and
                # aborted; report the deadline, don't die with it.
                self._count("deadline_exceeded")
                return self._error(
                    request.id,
                    DeadlineExceededError(
                        f"deadline of {work.deadline:.3f}s exceeded; "
                        f"work cancelled"
                    ),
                )
            raise  # genuine shutdown cancellation
        finally:
            self._in_flight -= 1
        return self._completed(work, result)

    def _run_warm(self, work: _Work) -> dict:
        """Answer a warm request on the event loop, on the submitting
        task or a worker loop."""
        self._in_flight += 1
        try:
            result = self._execute_sync(work)
        finally:
            self._in_flight -= 1
        if time.monotonic() - work.admitted_at > work.deadline:
            # Nothing could cancel a run on the loop; a late answer is
            # still a missed deadline.
            self._count("deadline_exceeded")
            return self._error(
                work.request.id,
                DeadlineExceededError(
                    f"deadline of {work.deadline:.3f}s exceeded; the "
                    f"result was discarded"
                ),
            )
        return self._completed(work, result)

    def _completed(self, work: _Work, result: dict) -> dict:
        """Count a run's completion and wrap its result."""
        self._count("completed")
        self._count("retries", result["info"]["retries"])
        self._count("faults_injected", result["info"]["faults_injected"])
        self._latency.observe(time.monotonic() - work.admitted_at)
        if result["info"]["degraded"]:
            self._count("degraded_runs")
            self._consecutive_degraded += 1
            if self._consecutive_degraded >= self.config.degrade_runs:
                self._serial_mode = True
        else:
            self._consecutive_degraded = 0
        return protocol.ok_response(work.request.id, result)

    def _run_settings(self, request: protocol.RunRequest) -> tuple:
        """The run's requested worker count and whether its chunks may
        go to a process pool."""
        return (
            request.workers or self.config.parallel_workers,
            self.config.use_processes and not self._serial_mode,
        )

    def _warm(self, work: _Work) -> bool:
        """Whether ``work`` only draws shots from memory, in-process.

        A warm request's kernel is resolved, its compile is an
        in-memory cache hit, it runs noiseless on the ``statevector``
        backend, its chunks run in-process, no fault of its plan (if
        any) fires on its first attempt, and its execution circuit's
        marginal is memoized.  Such a run costs less than the executor
        hop, so the event loop runs it itself (:meth:`_run_warm`),
        drawing from the ``work.marginal`` this check found.  It runs
        once per request, in ``submit`` when an executor is idle and
        nothing is queued, else when a worker dequeues the request.

        Once the cheap checks pass, this makes the request's one
        counted compile lookup, which never compiles; a hit rides on
        ``work.compiled`` to whichever path runs the request, so the
        loop never compiles or execs source, and an executor run after
        a memo miss does not look the compile up again.  A request
        this check cannot judge (an unknown preset, say) takes the
        executor path, which reports the error.
        """
        from repro.exec.faults import fires_on_first_attempt
        from repro.exec.parallel import chunk_plan, resolve_workers
        from repro.pipeline import _compile_with_provenance
        from repro.sim.backend import (
            DEFAULT_BACKEND,
            VectorizedStatevectorBackend,
            memoized_marginal,
        )

        request = work.request
        if request.noise:
            return False
        backend = request.backend or DEFAULT_BACKEND
        if backend != VectorizedStatevectorBackend.name:
            return False
        workers, use_processes = self._run_settings(request)
        workers = resolve_workers(workers)
        chunks = len(chunk_plan(request.shots, workers))
        if not runs_in_process(workers, chunks, use_processes):
            return False
        if work.fault_plan is not None and fires_on_first_attempt(
            work.fault_plan, request.seed, chunks
        ):
            return False
        try:
            kernel = _resolved_kernel(request)
            if kernel is not None:
                work.compiled = _compile_with_provenance(
                    kernel, pipeline=request.preset, cache=True,
                    build=False,
                )
        except QwertyError:
            return False
        if work.compiled is None:
            return False
        facts = work.compiled[0].run_facts
        cdf = None if facts is None else memoized_marginal(facts)
        if cdf is None:
            return False
        work.marginal = (facts, cdf)
        return True

    def _execute_sync(self, work: _Work) -> dict:
        """The blocking compile + sharded run, on a service executor
        thread or, for a warm request, on the worker loop.

        ``run_in_executor`` does not propagate contextvars, so the
        request span context rides on ``work.trace`` and is re-attached
        here before the ``service.execute`` span opens.
        """
        with tracing.attached(work.trace), tracing.span(
            "service.execute", request_id=work.request.id
        ):
            return self._run_request(work)

    def _run_request(self, work: _Work) -> dict:
        from repro.exec import parallel

        request = work.request
        workers, use_processes = self._run_settings(request)
        if work.marginal is not None:
            # Warm: count draws from the CDF the check holds, which an
            # eviction since cannot take away, so this never evolves.
            counts, info = parallel.parallel_draw_with_info(
                *work.marginal, request.shots, request.seed, workers
            )
            provenance = work.compiled[1]
        else:
            results, info, provenance = self._dispatch(
                work, workers, use_processes
            )
            counts = protocol.counts_of(results)
        return {
            "counts": counts,
            "shots": info.shots,
            "info": {
                "backend": info.backend,
                "workers": info.workers,
                "chunks": info.chunks,
                "retries": info.retries,
                "faults_injected": info.faults_injected,
                "degraded": info.degraded,
                "compile_cache": provenance,
            },
        }

    def _dispatch(
        self, work: _Work, workers: int, use_processes: bool
    ) -> tuple:
        """Compile (unless the warm check found the compile), then run
        the request's chunks through the shot executor's dispatcher."""
        from repro.exec.parallel import parallel_run_with_info
        from repro.pipeline import _compile_with_provenance, _run_circuit

        request = work.request
        plan_scope = (
            inject_faults(work.fault_plan)
            if work.fault_plan is not None
            else None
        )
        try:
            if plan_scope is not None:
                plan_scope.__enter__()
            # The warm check's hit is kept even if an executor thread
            # has evicted it since.  Otherwise an unknown preset raises
            # PassPipelineError (QW301), which already renders as a
            # structured coded response downstream.  The provenance is
            # this request's own: the cached result's field may be
            # rewritten by a concurrent request.
            compiled, provenance = work.compiled or _compile_with_provenance(
                _resolve_kernel(request), pipeline=request.preset, cache=True
            )
            noise_model = _build_noise_model(request.noise)
            circuit = _run_circuit(compiled, noise_model)
            if work.cancel_event.is_set():
                raise CancelledError("cancelled before execution")
            results, info = parallel_run_with_info(
                circuit,
                request.shots,
                request.seed,
                workers=workers,
                backend=request.backend,
                noise_model=noise_model,
                use_processes=use_processes,
                retry=self.config.retry,
                cancel_event=work.cancel_event,
            )
        finally:
            if plan_scope is not None:
                plan_scope.__exit__(None, None, None)
        return results, info, provenance

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return {
            "status": "draining" if self._draining else (
                "degraded" if self._serial_mode else "ok"
            ),
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.config.queue_limit,
            "in_flight": self._in_flight,
        }

    def stats(self) -> dict:
        from repro.pipeline import compile_cache_info

        cache = compile_cache_info()
        disk = cache.get("disk", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        return {
            **self.health(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "counters": dict(self.counters),
            "error_codes": dict(self.error_codes),
            "serial_mode": self._serial_mode,
            "compile_cache": {
                "memory_hits": cache.get("hits", 0),
                "memory_hit_rate": (
                    round(cache.get("hits", 0) / lookups, 4)
                    if lookups
                    else None
                ),
                "disk_hits": disk.get("hits", 0),
                "disk_corrupt": disk.get("corrupt", 0),
                "disk_tmp_swept": disk.get("tmp_swept", 0),
            },
        }

    def metrics(self) -> dict:
        """The ``op: "metrics"`` payload: the whole process-wide
        registry as Prometheus text exposition."""
        return {
            "exposition": obs_metrics.render(),
            "content_type": "text/plain; version=0.0.4; charset=utf-8",
        }

    def reset_degradation(self) -> None:
        """Re-enable process pools after operator intervention."""
        self._serial_mode = False
        self._consecutive_degraded = 0

    def _error(self, request_id: Any, error: Exception) -> dict:
        response = protocol.error_response(request_id, error)
        code = response["error"]["code"]
        _ERRORS.inc(service=self._label, code=code)
        if code not in ("QW601", "QW602"):  # already counted at source
            self._count("failed")
        return response


# ----------------------------------------------------------------------
# Request -> kernel / noise resolution.
# ----------------------------------------------------------------------
#: Exec'd ``source`` kernels by the sha256 of their text, least
#: recently used first, bounded by the compile cache's
#: ``compile_cache_max_entries()``.  A source is treated as a pure
#: function of its text: while cached it is not exec'd again, and its
#: ``linecache`` entry lives exactly as long as its entry here.
_SOURCE_KERNELS: "OrderedDict[str, Any]" = OrderedDict()
_SOURCE_LOCK = threading.Lock()


def _resolve_kernel(request: protocol.RunRequest):
    from repro.evaluation import ALGORITHMS
    from repro.pipeline import compile_cache_max_entries

    kernel = _resolved_kernel(request)
    if kernel is not None:
        return kernel
    if request.kernel is not None:
        raise BadRequestError(
            f"unknown kernel {request.kernel!r} (known algorithms: "
            f"{', '.join(ALGORITHMS)}; or send 'source')"
        )
    source = request.source or ""
    digest = hashlib.sha256(source.encode()).hexdigest()
    filename = _source_filename(digest)
    try:
        kernel = _exec_source(source, filename)
    except BaseException:
        # Failed sources are never cached; drop the text unless a
        # concurrent request cached the same source meanwhile.
        with _SOURCE_LOCK:
            if digest not in _SOURCE_KERNELS:
                linecache.cache.pop(filename, None)
        raise
    with _SOURCE_LOCK:
        # Concurrent misses of one text all share the first kernel in.
        kernel = _SOURCE_KERNELS.setdefault(digest, kernel)
        _SOURCE_KERNELS.move_to_end(digest)
        while len(_SOURCE_KERNELS) > compile_cache_max_entries():
            evicted, _ = _SOURCE_KERNELS.popitem(last=False)
            linecache.cache.pop(_source_filename(evicted), None)
    return kernel


def _resolved_kernel(request: protocol.RunRequest):
    """The request's kernel if resolving it needs no ``exec``: a suite
    kernel (memoized by ``asdf_kernel``) or a cached ``source``, which
    becomes the most recently used; otherwise ``None``."""
    from repro.evaluation import ALGORITHMS, asdf_kernel

    if request.kernel is not None:
        if request.kernel not in ALGORITHMS:
            return None
        return asdf_kernel(request.kernel, request.n)
    digest = hashlib.sha256((request.source or "").encode()).hexdigest()
    with _SOURCE_LOCK:
        kernel = _SOURCE_KERNELS.get(digest)
        if kernel is not None:
            _SOURCE_KERNELS.move_to_end(digest)
        return kernel


def _source_filename(digest: str) -> str:
    return f"<repro-service-kernel-{digest[:12]}>"


def _exec_source(source: str, filename: str):
    """Exec a ``source`` request's text; return its one ``@qpu`` kernel."""
    from repro.frontend.decorators import QpuKernel
    from repro.pipeline import _kernel_fingerprint

    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 — trusted tier
    # The frontend reparses kernels with inspect.getsource, which for
    # exec'd code only works if the pseudo-filename is in the linecache.
    linecache.cache[filename] = (
        len(source), None, source.splitlines(keepends=True), filename
    )
    try:
        code = compile(source, filename, "exec")
        exec(code, namespace)  # noqa: S102 — trusted tier
    except QwertyError:
        raise
    except Exception as error:
        raise BadRequestError(
            f"'source' failed to execute: {type(error).__name__}: {error}"
        ) from error
    kernels = [
        value
        for value in namespace.values()
        if isinstance(value, QpuKernel)
    ]
    if len(kernels) != 1:
        raise BadRequestError(
            f"'source' must define exactly one @qpu kernel, found "
            f"{len(kernels)}"
        )
    # Read the source back for the compile-cache key now, while the
    # text is certainly in the linecache.
    _kernel_fingerprint(kernels[0])
    return kernels[0]


def _build_noise_model(noise):
    if not noise:
        return None
    from repro import noise as noise_mod
    from repro.errors import NoiseError
    from repro.noise import NoiseModel

    model = NoiseModel()
    for name, parameter in noise.items():
        constructor = getattr(noise_mod, name)
        try:
            model = model.add_channel(constructor(float(parameter)))
        except (NoiseError, TypeError, ValueError) as error:
            raise BadRequestError(
                f"invalid parameter {parameter!r} for noise channel "
                f"{name!r}: {error}"
            ) from error
    return model


class ServiceClient:
    """In-process client: the service API without a socket.

    Wraps a started :class:`ExecutionService`; used by tests and
    benchmarks so protocol semantics (shedding, deadlines, error
    envelopes) are exercised without TCP timing noise.
    """

    def __init__(self, service: ExecutionService) -> None:
        self.service = service

    async def run(self, **fields) -> dict:
        return await self.service.submit({"op": "run", **fields})

    async def health(self) -> dict:
        return await self.service.submit({"op": "health"})

    async def stats(self) -> dict:
        return await self.service.submit({"op": "stats"})

    async def metrics(self) -> dict:
        return await self.service.submit({"op": "metrics"})
