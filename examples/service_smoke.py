"""Chaos smoke for the fault-tolerant execution service.

Starts the real TCP server (``python -m repro.service``) as a
subprocess — with a deterministic 5% worker-crash fault plan injected
through the environment — then fires a batch of concurrent compile/run
requests over several client connections and requires that **every
request succeeds** with the documented response shape.  Also checks
the robustness telemetry (``op: "stats"``), asks for a graceful drain
with SIGTERM, and verifies the server exits cleanly.

A second, clean leg then starts a fresh server without ``REPRO_FAULTS``
and sends the same batch twice.  The second pass is warm (every
request hits the compile cache and the marginal memo), so the server
answers it on its event loop instead of an executor thread.  Both
passes must return the chaos run's histograms bit for bit, and
``stats`` must report no failed request.

This is the end-to-end "is the service actually fault-tolerant" probe
the CI ``service-smoke`` job runs on every push::

    PYTHONPATH=src python examples/service_smoke.py

Tuning knobs (mostly for local experimentation)::

    REPRO_SMOKE_REQUESTS=32   # batch size
    REPRO_SMOKE_CRASH=0.05    # injected worker_crash rate

See docs/service.md for the protocol and the fault-injection contract.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys

REQUESTS = int(os.environ.get("REPRO_SMOKE_REQUESTS", "32"))
CRASH_RATE = os.environ.get("REPRO_SMOKE_CRASH", "0.05")
CONNECTIONS = 4


def start_server(chaos: bool) -> "tuple[subprocess.Popen, int]":
    """The real server process; ``chaos`` injects the fault plan via
    the environment, otherwise the server runs without any plan."""
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    if chaos:
        env["REPRO_FAULTS"] = f"worker_crash={CRASH_RATE}"
        env["REPRO_FAULTS_SEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--port", "0", "--serial",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # The first line announces the bound (ephemeral) port — a JSON log
    # line by default (``REPRO_LOG_FORMAT=text`` emits a plain one, so
    # fall back to matching the raw line).
    line = process.stdout.readline()
    try:
        message = json.loads(line).get("message", "")
    except (json.JSONDecodeError, AttributeError):
        message = line
    match = re.search(r"listening on .*:(\d+)", message)
    if not match:
        process.kill()
        raise SystemExit(f"server failed to start: {line!r}")
    return process, int(match.group(1))


async def send_batch(port: int) -> dict:
    """The batch over CONNECTIONS pipelined connections; responses by id."""
    responses: dict = {}

    async def connection(worker: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        mine = list(range(worker, REQUESTS, CONNECTIONS))
        for index in mine:  # pipelined: all requests, then all replies
            request = {
                "id": index,
                "kernel": "bv",
                "n": 5,
                "shots": 96,
                "seed": index,
                "deadline": 60.0,
            }
            writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        for _ in mine:
            line = await asyncio.wait_for(reader.readline(), timeout=120)
            response = json.loads(line)
            responses[response["id"]] = response
        writer.close()
        await writer.wait_closed()

    await asyncio.gather(
        *(connection(worker) for worker in range(CONNECTIONS))
    )
    return responses


async def operator_ops(port: int, *ops: str) -> dict:
    """``stats`` / ``metrics`` on a fresh connection, after a whole
    batch resolved, so the counters describe the complete run."""
    responses: dict = {}
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for op in ops:
        writer.write((json.dumps({"id": op, "op": op}) + "\n").encode())
    await writer.drain()
    for _ in ops:
        line = await asyncio.wait_for(reader.readline(), timeout=30)
        response = json.loads(line)
        responses[response["id"]] = response
    writer.close()
    await writer.wait_closed()
    return responses


def histograms(responses: dict) -> dict:
    return {i: responses[i]["result"]["counts"] for i in range(REQUESTS)}


async def drive_chaos(port: int) -> dict:
    """The batch under injected crashes; returns its histograms."""
    responses = await send_batch(port)
    responses.update(await operator_ops(port, "stats", "metrics"))

    failed = [
        responses[i] for i in range(REQUESTS) if not responses[i]["ok"]
    ]
    if failed:
        raise SystemExit(
            f"{len(failed)}/{REQUESTS} requests failed under "
            f"{CRASH_RATE} injected crashes; first: {failed[0]}"
        )
    for index in range(REQUESTS):
        result = responses[index]["result"]
        assert sum(result["counts"].values()) == 96, result
    retries = sum(
        responses[i]["result"]["info"]["retries"] for i in range(REQUESTS)
    )
    stats = responses["stats"]["result"]
    print(
        f"{REQUESTS}/{REQUESTS} requests ok under "
        f"worker_crash={CRASH_RATE} "
        f"(retries absorbed: {retries}; service counters: "
        f"completed={stats['counters']['completed']}, "
        f"failed={stats['counters']['failed']}, "
        f"faults_injected={stats['counters']['faults_injected']})"
    )
    assert stats["counters"]["failed"] == 0, stats

    # The metrics endpoint exposes the same substrate the stats()
    # counters derive from, as Prometheus text.
    exposition = responses["metrics"]["result"]["exposition"]
    assert "repro_service_events_total" in exposition, exposition[:400]
    assert 'event="completed"' in exposition, exposition[:400]
    return histograms(responses)


async def drive_clean(port: int, expected: dict) -> None:
    """The batch twice without faults: cold, then warm (run inline)."""
    for label in ("cold", "warm"):
        responses = await send_batch(port)
        failed = [
            responses[i] for i in range(REQUESTS) if not responses[i]["ok"]
        ]
        if failed:
            raise SystemExit(
                f"{len(failed)}/{REQUESTS} {label} requests failed without "
                f"faults; first: {failed[0]}"
            )
        if histograms(responses) != expected:
            raise SystemExit(
                f"{label} pass without faults returned histograms that "
                f"differ from the chaos run's"
            )
    stats = (await operator_ops(port, "stats"))["stats"]["result"]
    assert stats["counters"]["failed"] == 0, stats
    assert stats["counters"]["completed"] == 2 * REQUESTS, stats
    print(
        f"clean server, 2 x {REQUESTS} requests (cold, then warm): "
        f"histograms identical to the chaos run's, 0 failed"
    )


def run_leg(chaos: bool, drive):
    """Start a server, ``drive(port)``, then drain it with SIGTERM."""
    process, port = start_server(chaos)
    try:
        result = asyncio.run(drive(port))
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            raise SystemExit("server did not drain within 30s of SIGTERM")
    output = process.stdout.read()
    if "draining" not in output or "stopped" not in output:
        raise SystemExit(f"no graceful drain in server output: {output!r}")
    print("graceful drain on SIGTERM: ok")
    return result


def main() -> int:
    expected = run_leg(True, drive_chaos)
    run_leg(False, lambda port: drive_clean(port, expected))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
