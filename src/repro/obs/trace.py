"""Contextvar-based span tracing, stitched across threads.

A *span* is one named, timed region with attributes — ``span("compile.pass",
**{"pass": "peephole"})`` — and spans nest: the contextvar
:data:`_CTX` carries ``(trace id, span id)`` so a span opened inside
another records that span as its parent, across ``await`` points and
(explicitly, via :func:`attached`) across threads.  The span
vocabulary is documented in docs/observability.md.

Tracing is **disabled by default and near-free when off**: the module
global :data:`_TRACER` is ``None``, :func:`span` returns a shared
no-op context manager, and :func:`event` returns immediately — one
attribute read plus a branch on the hot path (the ``BENCH_obs.json``
benchmark gates this at <= 5% on a hot trajectory workload).

Enabling:

- ``REPRO_TRACE=/path/trace.json`` in the environment turns tracing on
  for the whole process and exports a Chrome trace-event JSON file at
  interpreter exit (loadable in Perfetto / ``chrome://tracing``);
- :func:`trace_to` scopes tracing to a block and exports on exit;
- :func:`enable_tracing` / :func:`disable_tracing` for manual control.

Thread stitching: the service's executor threads do not inherit the
submitting task's contextvars, so the service carries a
:class:`TraceContext` on each request and re-attaches it there
(:func:`attached`); their spans land under the request's span, in the
one process-wide tracer.

:func:`timed_span` is the **one timing source** rule
(docs/observability.md): it always measures wall time (one
``perf_counter`` pair — the same cost the bookkeeping it replaced
paid) and exposes ``.seconds`` after exit, but records into the
tracer only when tracing is on.  ``PassManager`` statistics read from
it, so the pass table and an exported trace can never disagree.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

#: Environment variable: a path enables process-wide tracing and
#: exports a Chrome trace-event JSON file there at interpreter exit.
TRACE_ENV = "REPRO_TRACE"

#: Maps ``perf_counter`` readings onto the epoch, so exported span
#: timestamps are wall-clock microseconds.
_EPOCH_ANCHOR = time.time() - time.perf_counter()

_IDS = itertools.count(1)

#: The active (trace id, span id) pair, or None outside any span.
_CTX: ContextVar[Optional[tuple[str, str]]] = ContextVar(
    "repro_trace_ctx", default=None
)


def _new_id() -> str:
    """A span/trace id, unique within the process (pid-prefixed)."""
    return f"{os.getpid():x}.{next(_IDS):x}"


@dataclass(frozen=True)
class TraceContext:
    """A parent span context, carried to another thread."""

    trace_id: str
    span_id: str


class Tracer:
    """A process-local span sink (thread-safe append-only list).

    Span records are plain dicts — directly serializable for
    export — with keys ``name``,
    ``trace_id``, ``span_id``, ``parent_id``, ``start_us``, ``dur_us``,
    ``pid``, ``tid``, ``attrs``.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()

    def record(self, span: dict) -> None:
        with self._lock:
            self.spans.append(span)

    def kinds(self) -> set[str]:
        """The distinct span names recorded so far."""
        return {span["name"] for span in self.spans}

    def by_name(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    # ------------------------------------------------------------------
    # Chrome trace-event export (Perfetto / chrome://tracing).
    # ------------------------------------------------------------------
    def chrome_events(self) -> list[dict]:
        """Complete-event (``ph: "X"``) records, one per span.

        Nesting within a (pid, tid) track is inferred by the viewer
        from timestamp containment; the explicit ids ride in ``args``
        so cross-thread parentage stays inspectable.
        """
        events = []
        for span in self.spans:
            args = dict(span["attrs"])
            args["trace_id"] = span["trace_id"]
            args["span_id"] = span["span_id"]
            if span["parent_id"] is not None:
                args["parent_id"] = span["parent_id"]
            events.append(
                {
                    "name": span["name"],
                    "cat": span["name"].split(".", 1)[0],
                    "ph": "X",
                    "ts": span["start_us"],
                    "dur": span["dur_us"],
                    "pid": span["pid"],
                    "tid": span["tid"],
                    "args": args,
                }
            )
        return events

    def export_chrome(self, path) -> None:
        """Write the collected spans as Chrome trace-event JSON."""
        payload = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


#: The process-wide tracer; ``None`` means tracing is disabled (the
#: default, and the state the no-op fast path branches on).
_TRACER: Optional[Tracer] = None


class _Span:
    """A live span handle; also the always-timing ``timed_span`` form.

    ``tracer`` may be ``None`` (a :func:`timed_span` with tracing off):
    the span then only measures ``seconds`` and touches neither the
    contextvar nor any sink.
    """

    __slots__ = ("name", "attrs", "seconds", "_tracer", "_token", "_ids",
                 "_start", "_discarded")

    def __init__(self, tracer: Optional[Tracer], name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.seconds = 0.0
        self._discarded = False

    def set(self, **attrs) -> "_Span":
        """Attach/overwrite attributes (e.g. an outcome discovered
        after entry)."""
        self.attrs.update(attrs)
        return self

    def discard(self) -> None:
        """Record nothing when the span exits: the work it would
        describe did not happen (a lookup that found nothing)."""
        self._discarded = True

    def __enter__(self) -> "_Span":
        if self._tracer is not None:
            parent = _CTX.get()
            if parent is None:
                trace_id, parent_id = _new_id(), None
            else:
                trace_id, parent_id = parent
            span_id = _new_id()
            self._ids = (trace_id, span_id, parent_id)
            self._token = _CTX.set((trace_id, span_id))
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._start
        if self._tracer is not None:
            _CTX.reset(self._token)
            if self._discarded:
                return False
            if exc_type is not None:
                self.attrs.setdefault("error", exc_type.__name__)
            trace_id, span_id, parent_id = self._ids
            self._tracer.record(
                {
                    "name": self.name,
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "start_us": (_EPOCH_ANCHOR + self._start) * 1e6,
                    "dur_us": self.seconds * 1e6,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "attrs": self.attrs,
                }
            )
        return False


class _NoopSpan:
    """The shared do-nothing span returned while tracing is off."""

    __slots__ = ()
    name = ""
    seconds = 0.0

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def discard(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP = _NoopSpan()


# ----------------------------------------------------------------------
# Public API.
# ----------------------------------------------------------------------
def span(name: str, **attrs):
    """A traced region: ``with span("exec.chunk", seed=7): ...``.

    Returns the shared no-op when tracing is disabled — the hot-path
    contract (one global read + branch, no allocation).
    """
    tracer = _TRACER
    if tracer is None:
        return _NOOP
    return _Span(tracer, name, attrs)


def timed_span(name: str, **attrs) -> _Span:
    """A span that *always* measures wall time (``.seconds`` after
    exit) and records into the tracer only when tracing is on.

    This is the one-timing-source primitive: consumers that need the
    elapsed time regardless (``PassManager`` statistics) read it from
    the same measurement an exported trace would show.
    """
    return _Span(_TRACER, name, attrs)


def event(name: str, **attrs) -> None:
    """An instant (zero-duration) span under the current context —
    retry attempts, fault injections."""
    tracer = _TRACER
    if tracer is None:
        return
    parent = _CTX.get()
    if parent is None:
        trace_id, parent_id = _new_id(), None
    else:
        trace_id, parent_id = parent
    now = time.perf_counter()
    tracer.record(
        {
            "name": name,
            "trace_id": trace_id,
            "span_id": _new_id(),
            "parent_id": parent_id,
            "start_us": (_EPOCH_ANCHOR + now) * 1e6,
            "dur_us": 0.0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": attrs,
        }
    )


def tracing_enabled() -> bool:
    return _TRACER is not None


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _TRACER


def enable_tracing() -> Tracer:
    """Turn tracing on (idempotent); returns the active tracer."""
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer()
    return _TRACER


def disable_tracing() -> Optional[Tracer]:
    """Turn tracing off; returns the tracer that was active (its
    collected spans stay inspectable/exportable)."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    return tracer


@contextmanager
def trace_to(path):
    """Trace the enclosing block and export Chrome trace-event JSON to
    ``path`` on exit (even on error — a failing run's trace is the one
    worth looking at)."""
    global _TRACER
    previous = _TRACER
    tracer = Tracer()
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous
        tracer.export_chrome(path)


# ----------------------------------------------------------------------
# Context propagation across threads.
# ----------------------------------------------------------------------
def current_context() -> Optional[TraceContext]:
    """The current span's context for another thread to
    :func:`attach <attached>`, or ``None`` when tracing is off or no
    span is open."""
    if _TRACER is None:
        return None
    ctx = _CTX.get()
    if ctx is None:
        return None
    return TraceContext(*ctx)


def current_ids() -> Optional[tuple[str, str]]:
    """The raw (trace id, span id) pair for log correlation, if any."""
    return _CTX.get()


@contextmanager
def attached(ctx: Optional[TraceContext]):
    """Adopt ``ctx`` as the parent context for the enclosing block.

    Used where contextvars do not flow by themselves: the service's
    executor threads (``run_in_executor`` does not copy context) and
    worker loops.  A ``None`` context is a no-op.
    """
    if ctx is None:
        yield
        return
    token = _CTX.set((ctx.trace_id, ctx.span_id))
    try:
        yield
    finally:
        _CTX.reset(token)


def _maybe_enable_from_env() -> None:
    """``REPRO_TRACE=path``: enable now, export at interpreter exit."""
    path = os.environ.get(TRACE_ENV)
    if not path:
        return
    tracer = enable_tracing()
    atexit.register(tracer.export_chrome, path)


_maybe_enable_from_env()


__all__ = [
    "TRACE_ENV",
    "TraceContext",
    "Tracer",
    "attached",
    "current_context",
    "current_ids",
    "disable_tracing",
    "enable_tracing",
    "event",
    "get_tracer",
    "span",
    "timed_span",
    "trace_to",
    "tracing_enabled",
]
