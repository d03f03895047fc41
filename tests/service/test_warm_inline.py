"""Warm requests run on the worker loop, everything else on the executor.

A request is warm when its kernel is resolved, its compile is an
in-memory cache hit, it is noiseless on the ``statevector`` backend,
its chunks run in-process, no fault of its plan fires on its first
attempt, and its execution circuit's marginal is memoized
(docs/service.md).  These tests watch the service's thread pool: a
warm request never reaches its ``submit``, every other request does
exactly once.
"""

import asyncio
import sys
import threading
import time
import types

import pytest

from repro import pipeline
from repro.exec import parallel
from repro.exec.faults import (
    FaultPlan,
    chunk_fault_key,
    fires_on_first_attempt,
    inject_faults,
)
from repro.obs import trace as tracing
from repro.pipeline import clear_compile_cache, compile_cache_info
from repro.service import ExecutionService, ServiceClient, ServiceConfig
from repro.service import service as service_module
from repro.sim import clear_marginal_memo

BV_SOURCE = '''\
from repro.frontend.decorators import Bits, N, bit, cfunc, classical, qpu

SECRET = Bits.from_str("{secret}")


@classical[N](SECRET)
def f(secret: bit[N], x: bit[N]) -> bit:
    return (secret & x).xor_reduce()


@qpu[N](f)
def kernel(f: cfunc[N, 1]) -> bit[N]:
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
'''


def _config(**overrides) -> ServiceConfig:
    fields = dict(use_processes=False, parallel_workers=2, executors=2)
    fields.update(overrides)
    return ServiceConfig(**fields)


def _count_submits(service: ExecutionService) -> list:
    """Record every thread-pool submission the service makes from now."""
    calls = []
    real_submit = service._threads.submit

    def counting_submit(fn, *args, **kwargs):
        calls.append(fn)
        return real_submit(fn, *args, **kwargs)

    service._threads.submit = counting_submit
    return calls


def test_warm_requests_never_reach_the_thread_pool():
    fields = dict(kernel="grover", n=4, shots=64, seed=1)

    async def scenario():
        async with ExecutionService(_config()) as service:
            client = ServiceClient(service)
            first = await client.run(id=0, **fields)
            calls = _count_submits(service)
            responses, hits = [], []
            for index in range(1, 4):
                before = compile_cache_info()["hits"]
                responses.append(await client.run(id=index, **fields))
                hits.append(compile_cache_info()["hits"] - before)
            return first, responses, calls, hits

    first, responses, calls, hits = asyncio.run(scenario())
    assert first["ok"], first
    assert all(response["ok"] for response in responses), responses
    assert calls == []
    # The warm check's lookup is each request's one counted hit.
    assert hits == [1, 1, 1]
    for response in responses:
        assert response["result"]["counts"] == first["result"]["counts"]
        assert response["result"]["info"]["compile_cache"] == "memory"


def test_each_request_traces_one_memory_lookup():
    # The warm check's lookup leaves no span when it misses, so a cold
    # request traces only its executor compile, and a warm one the
    # check's hit.
    fields = dict(kernel="simon", n=5, shots=64, seed=3)

    async def scenario():
        async with ExecutionService(_config()) as service:
            client = ServiceClient(service)
            return [await client.run(id=i, **fields) for i in range(2)]

    clear_compile_cache()
    tracer = tracing.enable_tracing()
    try:
        responses = asyncio.run(scenario())
    finally:
        tracing.disable_tracing()
    assert all(response["ok"] for response in responses), responses
    lookups = [
        span["attrs"]["outcome"]
        for span in tracer.by_name("cache.lookup")
        if span["attrs"]["layer"] == "memory"
    ]
    compiles = [
        span["attrs"]["provenance"]
        for span in tracer.by_name("compile.kernel")
    ]
    assert lookups == ["miss", "hit"]
    assert len(compiles) == 2 and compiles[1] == "memory"


def test_concurrent_mixed_paths_match_serial_answers():
    # With an empty memo, the first request for each circuit takes the
    # executor while repeats may already run inline; a short switch
    # interval makes the executor threads and the loop interleave.
    catalog = [
        dict(kernel=kernel, n=n, shots=64, seed=seed)
        for kernel in ("bv", "grover", "simon")
        for n in (3, 4)
        for seed in (1, 2)
    ] * 3

    async def answers(concurrently):
        async with ExecutionService(_config(executors=3)) as service:
            client = ServiceClient(service)
            runs = [
                client.run(id=index, **fields)
                for index, fields in enumerate(catalog)
            ]
            if concurrently:
                responses = await asyncio.gather(*runs)
            else:
                responses = [await run for run in runs]
        assert all(response["ok"] for response in responses), responses
        return [response["result"]["counts"] for response in responses]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clear_marginal_memo()
        serial = asyncio.run(answers(concurrently=False))
        clear_marginal_memo()
        concurrent = asyncio.run(
            asyncio.wait_for(answers(concurrently=True), timeout=60)
        )
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial


def _source(secret: str) -> dict:
    return {"source": BV_SOURCE.format(secret=secret)}


@pytest.mark.parametrize(
    "case", ["noise", "fault-plan", "density_matrix", "memo-miss"]
)
def test_requests_that_are_not_warm_take_the_executor(case):
    fields = dict(kernel="bv", n=5, shots=64, seed=4)

    async def scenario():
        async with ExecutionService(_config()) as service:
            client = ServiceClient(service)
            warm = await client.run(id=0, **fields)
            calls = _count_submits(service)
            if case == "noise":
                response = await client.run(
                    id=1, noise={"depolarizing": 0.01}, **fields
                )
            elif case == "fault-plan":
                # Fires on every attempt; the 1 ms hang then continues.
                with inject_faults(worker_hang=1.0, hang_seconds=0.001):
                    response = await client.run(id=1, **fields)
            elif case == "density_matrix":
                response = await client.run(
                    id=1, backend="density_matrix", **fields
                )
            else:
                clear_marginal_memo()
                response = await client.run(id=1, **fields)
            return warm, response, calls

    warm, response, calls = asyncio.run(scenario())
    assert warm["ok"] and response["ok"], (warm, response)
    assert len(calls) == 1
    if case in ("fault-plan", "memo-miss"):
        # Same plan, same seeds: the executor's answer is the same.
        assert response["result"]["counts"] == warm["result"]["counts"]


def _plans(fields, *, quiet: bool):
    """Worker-crash plans by seed whose first attempt at the request's
    two chunks fires nowhere (``quiet``) or somewhere; the loud ones
    spare every second attempt, so their retries always succeed."""
    seeds = parallel.derive_chunk_seeds(fields["seed"], 2)
    for plan_seed in range(1000):
        plan = FaultPlan({"worker_crash": 0.3}, seed=plan_seed)
        if quiet != fires_on_first_attempt(plan, seeds) and (
            quiet
            or not any(
                plan.should("worker_crash", chunk_fault_key(seed, 1))
                for seed in seeds
            )
        ):
            yield plan


def test_a_plan_that_fires_nowhere_on_the_request_runs_inline():
    # The plan's chunk decisions are pure functions of the data seeds,
    # so a request none of whose sites fire runs exactly as without it.
    fields = dict(kernel="bv", n=5, shots=64, seed=4)
    quiet = next(_plans(fields, quiet=True))
    loud = next(_plans(fields, quiet=False))

    async def scenario():
        async with ExecutionService(_config()) as service:
            client = ServiceClient(service)
            clean = await client.run(id=0, **fields)
            calls = _count_submits(service)
            with inject_faults(quiet):
                spared = await client.run(id=1, **fields)
            inline_calls = len(calls)
            with inject_faults(loud):
                hit = await client.run(id=2, **fields)
            return clean, spared, hit, inline_calls, len(calls)

    clean, spared, hit, inline_calls, total_calls = asyncio.run(scenario())
    assert clean["ok"] and spared["ok"] and hit["ok"], (spared, hit)
    assert (inline_calls, total_calls) == (0, 1)
    assert spared["result"]["info"]["faults_injected"] == 0
    assert hit["result"]["info"]["faults_injected"] >= 1
    counts = clean["result"]["counts"]
    assert spared["result"]["counts"] == hit["result"]["counts"] == counts


@pytest.mark.parametrize("memo", ["memo-hit", "memo-miss"])
def test_run_keeps_the_compile_its_check_found(monkeypatch, memo):
    # An executor thread may evict the kernel or its compile between
    # the warm check and the run.  Whether the request then runs on the
    # loop (memo hit) or on an executor thread (memo miss), it neither
    # execs source nor compiles, and its one lookup is a memory hit.
    fields = dict(shots=32, seed=5, **_source("1011001110"))
    real_warm = ExecutionService._warm

    def warm_then_evict(self, work):
        warm = real_warm(self, work)
        if work.compiled is not None:
            service_module._SOURCE_KERNELS.clear()
            # Evicts every entry; clear_compile_cache() would also
            # reset the counters this test reads.
            with pipeline._CACHE_LOCK:
                pipeline._COMPILE_CACHE.clear()
        return warm

    def no_work(*args, **kwargs):
        raise AssertionError("the request compiled or exec'd source")

    def compiles():
        return pipeline._COMPILES.value(provenance="compiled")

    async def scenario():
        async with ExecutionService(_config()) as service:
            client = ServiceClient(service)
            cold = await client.run(id=0, **fields)
            calls = _count_submits(service)
            monkeypatch.setattr(ExecutionService, "_warm", warm_then_evict)
            monkeypatch.setattr(service_module, "_exec_source", no_work)
            monkeypatch.setattr(pipeline, "_compile_uncached", no_work)
            if memo == "memo-miss":
                clear_marginal_memo()
            before = compile_cache_info()
            compiled_before = compiles()
            warm = await client.run(id=1, **fields)
            after = compile_cache_info()
            lookups = (
                after["hits"] - before["hits"],
                after["misses"] - before["misses"],
                compiles() - compiled_before,
            )
            monkeypatch.undo()
            return cold, warm, calls, lookups

    cold, warm, calls, lookups = asyncio.run(scenario())
    assert cold["ok"] and warm["ok"], (cold, warm)
    assert len(calls) == (1 if memo == "memo-miss" else 0)
    assert lookups == (1, 0, 0)  # one memory hit, no miss, no compile
    assert warm["result"]["info"]["compile_cache"] == "memory"
    assert warm["result"]["counts"] == cold["result"]["counts"]


def test_cold_source_is_execd_on_a_service_thread(monkeypatch):
    # A text no other test sends, so it is certainly not cached.
    fields = dict(shots=32, seed=2, **_source("1100110011"))
    threads = []
    real_exec = service_module._exec_source

    def recording_exec(source, filename):
        threads.append(threading.current_thread().name)
        return real_exec(source, filename)

    monkeypatch.setattr(service_module, "_exec_source", recording_exec)

    async def scenario():
        async with ExecutionService(_config()) as service:
            client = ServiceClient(service)
            calls = _count_submits(service)
            cold = await client.run(id=0, **fields)
            warm = await client.run(id=1, **fields)
            return cold, warm, calls

    cold, warm, calls = asyncio.run(scenario())
    assert cold["ok"] and warm["ok"], (cold, warm)
    assert len(threads) == 1 and threads[0].startswith("repro-service")
    assert len(calls) == 1  # the cold request; the repeat ran inline
    assert warm["result"]["counts"] == cold["result"]["counts"]


def test_pool_dispatched_plans_take_the_executor():
    fields = dict(kernel="dj", n=4, shots=64, seed=6)

    async def scenario():
        config = _config(use_processes=True)
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            # One worker is one in-process chunk: it warms this
            # process's memo and, warm, runs inline on a pool server.
            await client.run(id=0, workers=1, **fields)
            calls = _count_submits(service)
            single = await client.run(id=1, workers=1, **fields)
            inline_calls = len(calls)
            pooled = await client.run(id=2, workers=2, **fields)
            return single, pooled, inline_calls, len(calls)

    try:
        single, pooled, inline_calls, total_calls = asyncio.run(scenario())
    finally:
        parallel.shutdown_pools()
    assert single["ok"] and pooled["ok"], (single, pooled)
    assert pooled["result"]["info"]["chunks"] == 2
    assert (inline_calls, total_calls) == (0, 1)


def test_warm_request_finishing_past_its_deadline_gets_qw602(monkeypatch):
    fields = dict(kernel="bv", n=4, shots=32, seed=2)
    offset = [0.0]
    clock = types.SimpleNamespace(
        monotonic=lambda: time.monotonic() + offset[0]
    )
    real_run = parallel.parallel_run_with_info

    def ten_second_run(*args, **kwargs):
        offset[0] += 10.0  # as the service's clock sees it
        return real_run(*args, **kwargs)

    async def scenario():
        async with ExecutionService(_config()) as service:
            client = ServiceClient(service)
            warm = await client.run(id=0, **fields)
            calls = _count_submits(service)
            monkeypatch.setattr(service_module, "time", clock)
            monkeypatch.setattr(
                parallel, "parallel_run_with_info", ten_second_run
            )
            late = await client.run(id=1, deadline=5.0, **fields)
            monkeypatch.undo()
            stats = await client.stats()
            return warm, late, calls, stats

    warm, late, calls, stats = asyncio.run(scenario())
    assert warm["ok"], warm
    assert calls == []  # it ran inline
    assert not late["ok"]
    assert late["error"]["code"] == "QW602"
    counters = stats["result"]["counters"]
    assert counters["deadline_exceeded"] == 1
    assert counters["completed"] == 1
