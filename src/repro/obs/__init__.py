"""Unified observability: tracing, metrics, and structured logging.

One substrate for everything the repo measures (docs/observability.md):

- :mod:`repro.obs.trace` — contextvar-based spans with parent/child
  nesting, stitching across the service's threads, and a Chrome
  trace-event exporter (``REPRO_TRACE=trace.json`` / ``trace_to``)
  loadable in Perfetto;
- :mod:`repro.obs.metrics` — a process-wide Counter/Gauge/Histogram
  registry with label support and Prometheus-style text exposition
  (the service's ``op: "metrics"`` endpoint);
- :mod:`repro.obs.logging` — a JSON-lines log formatter carrying
  trace and request ids, configured by ``REPRO_LOG_LEVEL`` /
  ``REPRO_LOG_FORMAT``.

Everything here is stdlib-only and import-light: the instrumented hot
paths (compile passes, chunk dispatch, batched sweeps) pay one module
attribute read plus a branch when tracing is disabled.
"""

from repro.obs import logging, metrics, trace  # noqa: F401

__all__ = ["logging", "metrics", "trace"]
