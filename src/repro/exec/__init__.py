"""The execution substrate: chunked shots, caching, and fault tolerance.

Four capabilities turn the simulator into something a multi-tenant
service can sit on (ROADMAP: async execution service):

- :mod:`repro.exec.parallel` — the one way shots are run: every entry
  point (``run_circuit``, ``simulate_kernel``, ``kernel()``, the
  service) splits its shots into a chunk plan with one counter-based
  random stream per chunk (``chunk_stream(seed, i)``), runs the chunks
  in the calling process, and merges their
  :class:`~repro.sim.backend.RunInfo` telemetry.  ``parallel_workers=``
  picks the chunk count (``None`` means 1, ``0`` one per core).
- :mod:`repro.exec.diskcache` — a persistent on-disk compile cache
  (atomic writes, version-salted keys, stale-tmpfile sweeping) layered
  under the in-memory LRU of :mod:`repro.pipeline`, so fresh processes
  start warm.
- :mod:`repro.exec.faults` — deterministic, seed-driven fault
  injection (chunk crash/hang, cache corruption, compile errors) so
  every recovery path below is exercised in CI, not discovered in
  production.
- :mod:`repro.exec.retry` — the one chunk dispatcher, with
  chunk-granular recovery: bounded retry with decorrelated-jitter
  backoff and cooperative cancellation between chunk attempts.

See docs/performance.md ("Parallel execution & the persistent cache")
and docs/service.md (fault injection, retry, and the service on top).
"""

#: Names re-exported from repro.exec.parallel.
_PARALLEL_EXPORTS = (
    "SEED_LIMIT",
    "chunk_plan",
    "chunk_stream",
    "parallel_run_with_info",
    "resolve_workers",
)

#: Names re-exported from repro.exec.faults.
_FAULTS_EXPORTS = (
    "FAULT_KINDS",
    "FaultPlan",
    "active_fault_plan",
    "inject_faults",
)

#: Names re-exported from repro.exec.retry.
_RETRY_EXPORTS = (
    "RetryPolicy",
    "RetryTelemetry",
)

__all__ = list(_PARALLEL_EXPORTS + _FAULTS_EXPORTS + _RETRY_EXPORTS)


def __getattr__(name: str):
    # Lazy re-exports: repro.pipeline imports repro.exec.diskcache at
    # module level, and an eager `from repro.exec.parallel import ...`
    # here would drag repro.sim into that import and close a cycle.
    if name in _PARALLEL_EXPORTS:
        from repro.exec import parallel

        return getattr(parallel, name)
    if name in _FAULTS_EXPORTS:
        from repro.exec import faults

        return getattr(faults, name)
    if name in _RETRY_EXPORTS:
        from repro.exec import retry

        return getattr(retry, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
