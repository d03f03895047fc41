"""The TCP front end (repro.service.server): JSON lines over a socket.

End-to-end through a real ``asyncio.start_server`` on an ephemeral
port: pipelined requests interleave on one connection and are matched
by ``id``; malformed lines get coded error lines instead of dropped
connections; chaos injected under the service still answers every
request with correct bits.
"""

import asyncio
import json

from repro.exec.faults import FaultPlan
from repro.exec.retry import RetryPolicy
from repro.service import ExecutionService, ServiceConfig
from repro.service import server as server_module
from repro.service.server import MAX_LINE_BYTES, handle_connection


async def _with_server(config, scenario):
    async with ExecutionService(config) as service:
        server = await asyncio.start_server(
            lambda r, w: handle_connection(service, r, w),
            "127.0.0.1",
            0,
            limit=MAX_LINE_BYTES,
        )
        port = server.sockets[0].getsockname()[1]
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            try:
                return await scenario(reader, writer)
            finally:
                writer.close()
                await writer.wait_closed()


def _config(**overrides):
    defaults = dict(parallel_workers=2, executors=2)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _send(writer, payload):
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()


async def _collect(reader, count, timeout=60.0):
    responses = {}
    for _ in range(count):
        line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        response = json.loads(line)
        responses[response["id"]] = response
    return responses


def test_pipelined_requests_match_by_id():
    async def scenario(reader, writer):
        for index in range(4):
            await _send(
                writer,
                {
                    "id": index, "kernel": "bv", "n": 4,
                    "shots": 32, "seed": index,
                },
            )
        await _send(writer, {"id": 99, "op": "health"})
        return await _collect(reader, 5)

    responses = asyncio.run(_with_server(_config(), scenario))
    for index in range(4):
        assert responses[index]["ok"], responses[index]
        assert sum(responses[index]["result"]["counts"].values()) == 32
    assert responses[99]["result"]["status"] == "ok"


def test_same_seed_same_bits_across_connections():
    async def scenario(reader, writer):
        await _send(
            writer, {"id": 1, "kernel": "bv", "n": 5, "shots": 64,
                     "seed": 7},
        )
        return await _collect(reader, 1)

    first = asyncio.run(_with_server(_config(), scenario))
    second = asyncio.run(_with_server(_config(), scenario))
    assert first[1]["result"]["counts"] == second[1]["result"]["counts"]


def test_malformed_line_gets_an_error_line_not_a_hangup():
    async def scenario(reader, writer):
        writer.write(b"{ this is not json\n")
        await writer.drain()
        responses = await _collect(reader, 1)
        # The connection survived: a valid request still works.
        await _send(writer, {"id": 2, "op": "health"})
        responses.update(await _collect(reader, 1))
        return responses

    responses = asyncio.run(_with_server(_config(), scenario))
    assert responses[None]["error"]["code"] == "QW604"
    assert responses[2]["ok"]


def test_oversized_line_is_answered_after_in_flight_requests():
    async def scenario(reader, writer):
        await _send(
            writer, {"id": 1, "kernel": "bv", "n": 4, "shots": 32},
        )
        writer.write(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
        await writer.drain()
        responses = await _collect(reader, 2)
        # The server closes the connection once both are answered.
        assert await asyncio.wait_for(reader.read(), timeout=60.0) == b""
        return responses

    responses = asyncio.run(_with_server(_config(), scenario))
    assert responses[1]["ok"], responses[1]
    error = responses[None]["error"]
    assert error["code"] == "QW604"
    assert str(MAX_LINE_BYTES) in error["message"]


def test_blank_lines_are_ignored():
    async def scenario(reader, writer):
        writer.write(b"\n\n")
        await _send(writer, {"id": 1, "op": "health"})
        return await _collect(reader, 1)

    responses = asyncio.run(_with_server(_config(), scenario))
    assert responses[1]["ok"]


def test_chaos_under_tcp_still_answers_every_request():
    config = _config(
        fault_plan=FaultPlan({"worker_crash": 0.2}, seed=3),
        retry=RetryPolicy(),
    )

    async def scenario(reader, writer):
        for index in range(6):
            await _send(
                writer,
                {
                    "id": index, "kernel": "bv", "n": 4,
                    "shots": 48, "seed": index,
                },
            )
        return await _collect(reader, 6)

    responses = asyncio.run(_with_server(config, scenario))
    assert all(responses[i]["ok"] for i in range(6))
    total_faults = sum(
        responses[i]["result"]["info"]["faults_injected"]
        for i in range(6)
    )
    clean = asyncio.run(
        _with_server(
            _config(),
            lambda r, w: _chaos_compare(r, w),
        )
    )
    for index in range(6):
        assert responses[index]["result"]["counts"] == clean[index][
            "result"
        ]["counts"]
    assert total_faults >= 0  # telemetry present even if no draw fired


async def _chaos_compare(reader, writer):
    for index in range(6):
        await _send(
            writer,
            {
                "id": index, "kernel": "bv", "n": 4,
                "shots": 48, "seed": index,
            },
        )
    return await _collect(reader, 6)


def test_serial_flag_is_accepted_and_configures_nothing(monkeypatch):
    # Chunks always run in-process; --serial stays a valid flag for
    # scripts that pass it, and builds the same config as without it.
    configs = []

    async def fake_serve(host, port, config):
        configs.append(config)

    monkeypatch.setattr(server_module, "serve", fake_serve)
    assert server_module.main(["--port", "0", "--workers", "3"]) == 0
    assert server_module.main(["--port", "0", "--workers", "3", "--serial"]) == 0
    assert configs[0] == configs[1] == ServiceConfig(parallel_workers=3)
