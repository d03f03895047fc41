"""Structured JSON-lines logging, correlated with traces and requests.

One log record per line, each a JSON object carrying the active trace
and span ids (when tracing is on) and the bound request id (inside
:func:`bound_request`) — so a service log line, an exported trace, and
a metrics series all join on the same identifiers.

Configuration is environment-driven and lazy (first
:func:`get_logger` call):

- ``REPRO_LOG_LEVEL`` — a standard level name (default ``INFO``);
- ``REPRO_LOG_FORMAT`` — ``"json"`` (default) for JSON lines or
  ``"text"`` for a classic human-readable format.

Handlers attach to the ``"repro"`` logger only (no root-logger
pollution: embedding applications keep their own logging setup), and
records stream to stdout line-buffered — the service-smoke harness
reads the listening announcement from the first line.

Extra structured fields ride on the standard ``extra`` mechanism::

    log.warning("retry budget low", extra={"fields": {"retries": 2}})
"""

from __future__ import annotations

import json
import logging
import os
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.obs import trace as _trace

LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"
LOG_FORMAT_ENV = "REPRO_LOG_FORMAT"

_TEXT_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"

_REQUEST_ID: ContextVar[Optional[str]] = ContextVar(
    "repro_log_request_id", default=None
)

_CONFIGURED = False


@contextmanager
def bound_request(request_id: object) -> Iterator[None]:
    """Bind a request id to every log record in the enclosing block
    (the service binds each admitted request's id)."""
    token = _REQUEST_ID.set(str(request_id))
    try:
        yield
    finally:
        _REQUEST_ID.reset(token)


def current_request_id() -> Optional[str]:
    return _REQUEST_ID.get()


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record, keys sorted for stable output."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        ids = _trace.current_ids()
        if ids is not None:
            payload["trace_id"], payload["span_id"] = ids
        request_id = _REQUEST_ID.get()
        if request_id is not None:
            payload["request_id"] = request_id
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict):
            payload.update(fields)
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


def _configure() -> None:
    global _CONFIGURED
    if _CONFIGURED:
        return
    _CONFIGURED = True
    root = logging.getLogger("repro")
    if root.handlers:
        return  # an embedder configured "repro" first; respect it
    handler = logging.StreamHandler(sys.stdout)
    fmt = os.environ.get(LOG_FORMAT_ENV, "json").strip().lower()
    if fmt == "text":
        handler.setFormatter(logging.Formatter(_TEXT_FORMAT))
    else:
        handler.setFormatter(JsonLineFormatter())
    root.addHandler(handler)
    root.propagate = False
    level = os.environ.get(LOG_LEVEL_ENV, "INFO").strip().upper()
    root.setLevel(logging.getLevelName(level) if level in {
        "CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG", "NOTSET"
    } else logging.INFO)


def reset_logging() -> None:
    """Drop the configured handlers so the next :func:`get_logger`
    re-reads the environment (tests exercising the env knobs)."""
    global _CONFIGURED
    _CONFIGURED = False
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)


def get_logger(name: str = "repro") -> logging.Logger:
    """A logger under the ``repro`` hierarchy, configured on first use."""
    _configure()
    if name != "repro" and not name.startswith("repro."):
        name = f"repro.{name}"
    return logging.getLogger(name)


__all__ = [
    "LOG_FORMAT_ENV",
    "LOG_LEVEL_ENV",
    "JsonLineFormatter",
    "bound_request",
    "current_request_id",
    "get_logger",
    "reset_logging",
]
