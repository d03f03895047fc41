"""JSON-lines TCP front end over :class:`ExecutionService`.

One connection, many requests: every line is parsed, submitted, and
answered with one line; responses may interleave across a
connection's in-flight requests (pipelining), so clients match on
``id``.  A malformed line gets a ``QW604`` error line instead of a
dropped connection — a misbehaving client learns what it did wrong.
A line longer than :data:`MAX_LINE_BYTES` also gets a ``QW604`` line;
the connection then stops reading (the rest of that line cannot be
framed), answers its in-flight requests, and closes.

Graceful shutdown: :func:`serve` installs SIGINT/SIGTERM handlers
that drain the service (stop admitting -> ``QW605``, finish queued
work, stop the executor threads) before the sockets close, so an orchestrator's
stop signal never kills half-executed requests.

Run it standalone::

    python -m repro.service --host 127.0.0.1 --port 8787

with the fault-injection environment knobs (``REPRO_FAULTS=...``)
applying process-wide — the CI service-smoke job starts exactly this
under a 5% worker-crash plan.  See docs/service.md.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.errors import BadRequestError
from repro.obs.logging import get_logger
from repro.service.protocol import (
    encode_response,
    error_response,
    parse_request,
)
from repro.service.service import ExecutionService, ServiceConfig

_LOG = get_logger("service.server")

#: Longest request line the server reads (the ``limit`` of its stream
#: readers): asyncio's 64 KiB default, written down.
MAX_LINE_BYTES = 1 << 16


async def handle_connection(
    service: ExecutionService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: line in, response line out, pipelined."""
    write_lock = asyncio.Lock()
    in_flight: set[asyncio.Task] = set()

    async def respond(response: dict) -> None:
        async with write_lock:
            writer.write(encode_response(response))
            await writer.drain()

    async def run_one(payload: dict) -> None:
        await respond(await service.submit(payload))

    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Over MAX_LINE_BYTES: answer, then stop reading and let
                # the in-flight requests finish before closing.
                await respond(error_response(None, BadRequestError(
                    f"request line exceeds the {MAX_LINE_BYTES}-byte "
                    f"limit; closing the connection"
                )))
                break
            if not line:
                break
            if not line.strip():
                continue
            try:
                payload = parse_request(line)
            except Exception as error:  # noqa: BLE001 — answered, not raised
                await respond(error_response(None, error))
                continue
            task = asyncio.create_task(run_one(payload))
            in_flight.add(task)
            task.add_done_callback(in_flight.discard)
        if in_flight:
            await asyncio.gather(*in_flight, return_exceptions=True)
    except (ConnectionResetError, BrokenPipeError):
        pass  # the client vanished; nothing left to answer
    except asyncio.CancelledError:
        # Server teardown while blocked on readline: not an error —
        # swallowing it here keeps loop shutdown from logging a
        # spurious traceback per open connection.
        pass
    finally:
        for task in in_flight:
            task.cancel()
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def serve(
    host: str = "127.0.0.1",
    port: int = 8787,
    config: Optional[ServiceConfig] = None,
    *,
    ready: "Optional[asyncio.Event]" = None,
    install_signal_handlers: bool = True,
) -> None:
    """Run the service until SIGINT/SIGTERM, then drain gracefully.

    ``ready`` (if given) is set once the socket is listening — test
    and smoke harnesses wait on it instead of polling the port.
    ``port=0`` binds an ephemeral port (read it from ``ready``-time
    ``server.sockets``); pass ``install_signal_handlers=False`` when
    embedding in a loop that manages its own signals.
    """
    service = ExecutionService(config)
    await service.start()
    stop = asyncio.Event()
    if install_signal_handlers:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal support
    server = await asyncio.start_server(
        lambda r, w: handle_connection(service, r, w),
        host,
        port,
        limit=MAX_LINE_BYTES,
    )
    async with server:
        bound = server.sockets[0].getsockname()
        _LOG.info(
            f"repro.service listening on {bound[0]}:{bound[1]}",
            extra={"fields": {"host": bound[0], "port": bound[1]}},
        )
        if ready is not None:
            ready.set()
        await stop.wait()
        _LOG.info("repro.service draining ...")
        await service.drain()
    _LOG.info("repro.service stopped")


def main(argv: "Optional[list[str]]" = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="The repro fault-tolerant execution service "
        "(JSON lines over TCP; see docs/service.md)"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument(
        "--queue-limit", type=int, default=ServiceConfig.queue_limit
    )
    parser.add_argument(
        "--executors", type=int, default=ServiceConfig.executors
    )
    parser.add_argument(
        "--workers", type=int, default=ServiceConfig.parallel_workers,
        help="default shot chunks per run (every chunk runs in-process)",
    )
    parser.add_argument(
        "--serial", action="store_true",
        help="accepted for compatibility and ignored: shot chunks always "
        "run in-process",
    )
    args = parser.parse_args(argv)
    config = ServiceConfig(
        queue_limit=args.queue_limit,
        executors=args.executors,
        parallel_workers=args.workers,
    )
    try:
        asyncio.run(serve(args.host, args.port, config))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
