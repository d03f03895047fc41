"""The fault-tolerant async execution service (ROADMAP tentpole).

A thin, stdlib-only service tier over the execution substrate of
:mod:`repro.exec`: compile/run requests go through a bounded priority
queue with deadline enforcement, chunk-granular retry, and graceful
drain, and come back as structured JSON responses with stable
``QWnnn`` diagnostic codes.

- :mod:`repro.service.protocol` — the JSON-lines wire format and
  request validation.
- :mod:`repro.service.service` — the transport-agnostic engine
  (:class:`ExecutionService`) and the in-process
  :class:`ServiceClient`.
- :mod:`repro.service.server` — the TCP front end
  (``python -m repro.service``).

See docs/service.md for the protocol, semantics, and chaos-testing
knobs.
"""

#: Names re-exported from repro.service.service.
_SERVICE_EXPORTS = (
    "ExecutionService",
    "ServiceClient",
    "ServiceConfig",
)

#: Names re-exported from repro.service.server.
_SERVER_EXPORTS = (
    "main",
    "serve",
)

#: Names re-exported from repro.service.protocol.
_PROTOCOL_EXPORTS = (
    "RunRequest",
    "parse_request",
)

__all__ = list(_SERVICE_EXPORTS + _SERVER_EXPORTS + _PROTOCOL_EXPORTS)


def __getattr__(name: str):
    # Lazy re-exports keep `import repro.service.protocol` (pure
    # validation, no simulator) cheap for clients that only speak the
    # wire format.
    if name in _SERVICE_EXPORTS:
        from repro.service import service

        return getattr(service, name)
    if name in _SERVER_EXPORTS:
        from repro.service import server

        return getattr(server, name)
    if name in _PROTOCOL_EXPORTS:
        from repro.service import protocol

        return getattr(protocol, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
