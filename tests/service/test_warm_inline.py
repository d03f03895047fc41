"""Warm requests run on the event loop, everything else on the executor.

A request is warm when its kernel is resolved, its compile is an
in-memory cache hit, it is noiseless on the ``statevector`` backend,
its chunks run in-process, no fault of its plan fires on its first
attempt, and its execution circuit's marginal is memoized
(docs/service.md).  These tests watch the service's thread pool: a
warm request never reaches its ``submit``, every other request does
exactly once.  A warm request draws every chunk from the CDF its check
holds (``parallel_draw_with_info``), and its answer equals the
dispatcher's.
"""

import asyncio
import sys
import threading
import time
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import pipeline
from repro.exec import parallel
from repro.exec.faults import (
    FaultPlan,
    chunk_fault_key,
    fires_on_first_attempt,
    inject_faults,
)
from repro.obs import metrics
from repro.obs import trace as tracing
from repro.pipeline import clear_compile_cache, compile_cache_info
from repro.service import ExecutionService, ServiceClient, ServiceConfig
from repro.service import protocol
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


def test_warm_requests_never_reach_the_thread_pool(monkeypatch):
    fields = dict(kernel="grover", n=4, shots=64, seed=1)

    def no_dispatch(*args, **kwargs):
        raise AssertionError("a warm request dispatched chunks")

    async def scenario():
        async with ExecutionService(_config()) as service:
            client = ServiceClient(service)
            first = await client.run(id=0, **fields)
            calls = _count_submits(service)
            # Warm requests draw from the held CDF: no chunk task, no
            # dispatcher.
            monkeypatch.setattr(parallel, "_ChunkTask", no_dispatch)
            monkeypatch.setattr(parallel, "execute_with_retry", no_dispatch)
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
    seed = fields["seed"]
    for plan_seed in range(1000):
        plan = FaultPlan({"worker_crash": 0.3}, seed=plan_seed)
        if quiet != fires_on_first_attempt(plan, seed, 2) and (
            quiet
            or not any(
                plan.should("worker_crash", chunk_fault_key(seed, i, 1))
                for i in range(2)
            )
        ):
            yield plan


def test_a_plan_that_fires_nowhere_on_the_request_runs_inline():
    # The plan's chunk decisions are pure functions of the seed and the
    # chunk index, so a request none of whose sites fire runs exactly
    # as without it.
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
    real_draw = parallel.parallel_draw_with_info

    def ten_second_draw(*args, **kwargs):
        offset[0] += 10.0  # as the service's clock sees it
        return real_draw(*args, **kwargs)

    async def scenario():
        async with ExecutionService(_config()) as service:
            client = ServiceClient(service)
            warm = await client.run(id=0, **fields)
            calls = _count_submits(service)
            monkeypatch.setattr(service_module, "time", clock)
            monkeypatch.setattr(
                parallel, "parallel_draw_with_info", ten_second_draw
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


def test_eviction_after_the_check_cannot_force_an_evolution(monkeypatch):
    # The check holds the memoized CDF, so a memo cleared between the
    # check and the run still leaves the run nothing to evolve.
    fields = dict(kernel="grover", n=5, shots=128, seed=7)
    real_warm = ExecutionService._warm
    real_draw = parallel.parallel_draw_with_info
    infos = []

    def warm_then_clear(self, work):
        warm = real_warm(self, work)
        clear_marginal_memo()
        return warm

    def recording_draw(*args, **kwargs):
        counts, info = real_draw(*args, **kwargs)
        infos.append(info)
        return counts, info

    sweeps = metrics.instruments()["repro_sim_sweeps_total"]

    async def scenario():
        async with ExecutionService(_config()) as service:
            client = ServiceClient(service)
            cold = await client.run(id=0, **fields)
            calls = _count_submits(service)
            monkeypatch.setattr(ExecutionService, "_warm", warm_then_clear)
            monkeypatch.setattr(
                parallel, "parallel_draw_with_info", recording_draw
            )
            before = sweeps.value(engine="fast-path")
            warm = await client.run(id=1, **fields)
            after = sweeps.value(engine="fast-path")
            monkeypatch.undo()
            return cold, warm, calls, after - before

    cold, warm, calls, swept = asyncio.run(scenario())
    assert cold["ok"] and warm["ok"], (cold, warm)
    assert calls == []  # answered inline, from the held CDF
    assert [info.evolutions for info in infos] == [0]
    assert swept == 0
    assert warm["result"]["counts"] == cold["result"]["counts"]


#: Suite and ``source`` kernels whose warm answers the property below
#: compares with the dispatcher's.
_PROPERTY_KERNELS = (
    dict(kernel="grover", n=4),
    dict(kernel="simon", n=4),
    dict(kernel="period", n=4),
    _source("0110101"),
)


def test_warm_inline_answers_equal_the_dispatcher():
    # A warm request draws every chunk of its plan from the held CDF
    # and counts the outcome indices; its counts (in key order) and
    # info must equal an in-process parallel_run_with_info of the same
    # execution circuit.
    loop = asyncio.new_event_loop()
    service = ExecutionService(_config())
    client = ServiceClient(service)
    loop.run_until_complete(service.start())
    try:
        circuits = []
        for fields in _PROPERTY_KERNELS:
            cold = loop.run_until_complete(client.run(id=0, **fields))
            assert cold["ok"], cold
            request = protocol.RunRequest.from_payload(fields)
            kernel = service_module._resolved_kernel(request)
            compiled = pipeline.compile_kernel(
                kernel, pipeline=request.preset, cache=True
            )
            circuits.append(pipeline._run_circuit(compiled, None))
        calls = _count_submits(service)

        @settings(max_examples=40, deadline=None)
        @given(
            index=st.integers(0, len(_PROPERTY_KERNELS) - 1),
            seed=st.integers(0, 2**63 - 1),
            shots=st.one_of(
                st.sampled_from([1, 2, 3, 255, 256, protocol.MAX_SHOTS]),
                st.integers(1, 5000),
            ),
            workers=st.sampled_from([1, 2, 3]),
        )
        @example(index=3, seed=2**63 - 1, shots=protocol.MAX_SHOTS, workers=3)
        @example(index=0, seed=0, shots=1, workers=3)
        def check(index, seed, shots, workers):
            response = loop.run_until_complete(
                client.run(
                    id=1, shots=shots, seed=seed, workers=workers,
                    **_PROPERTY_KERNELS[index],
                )
            )
            assert response["ok"], response
            bits, info = parallel.parallel_run_with_info(
                circuits[index], shots, seed, workers=workers,
                use_processes=False,
            )
            assert info.evolutions == 0
            # Equal counts, keys in the same first-drawn order.
            assert list(response["result"]["counts"].items()) == list(
                protocol.counts_of(bits).items()
            )
            assert response["result"]["shots"] == info.shots == shots
            assert response["result"]["info"] == {
                "backend": info.backend,
                "workers": info.workers,
                "chunks": info.chunks,
                "retries": info.retries,
                "faults_injected": info.faults_injected,
                "degraded": info.degraded,
                "compile_cache": "memory",
            }

        check()
        assert calls == []  # every request ran inline
    finally:
        loop.run_until_complete(service.drain())
        loop.close()


def _record_puts(service: ExecutionService) -> list:
    """Record every admission-queue entry the service makes from now."""
    puts = []
    real_put = service._queue.put_nowait

    def recording_put(item):
        puts.append(item[2].request.id)
        return real_put(item)

    service._queue.put_nowait = recording_put
    return puts


def test_warm_request_with_an_idle_executor_never_enters_the_queue():
    fields = dict(kernel="grover", n=4, shots=64, seed=11)
    depth = service_module._QUEUE_DEPTH

    async def scenario():
        async with ExecutionService(_config()) as service:
            client = ServiceClient(service)
            assert (await client.run(id="compile", **fields))["ok"]
            clear_marginal_memo()
            puts = _record_puts(service)
            hits = [compile_cache_info()["hits"]]
            tracer = tracing.enable_tracing()
            try:
                cold = await client.run(id="cold", **fields)
                hits.append(compile_cache_info()["hits"])
                before = service.counters
                warm = await client.run(id="warm", **fields)
                after = service.counters
                hits.append(compile_cache_info()["hits"])
            finally:
                tracing.disable_tracing()
            gauge = depth.value(service=service._label)
            lookups = [b - a for a, b in zip(hits, hits[1:])]
            return cold, warm, puts, tracer, before, after, gauge, lookups

    cold, warm, puts, tracer, before, after, gauge, lookups = asyncio.run(
        scenario()
    )
    assert cold["ok"] and warm["ok"], (cold, warm)
    # The cold request (a memo miss) went through the queue to an
    # executor; the warm one was answered on the submitting task.  The
    # check ran once for each: one counted compile hit apiece.
    assert puts == ["cold"]
    assert lookups == [1, 1]
    assert gauge == 0
    dequeued = tracer.by_name("service.dequeue")
    requests = {
        span["span_id"]: span["attrs"]["request_id"]
        for span in tracer.by_name("service.request")
    }
    assert [requests[span["parent_id"]] for span in dequeued] == ["cold"]
    # The warm request still traces its execute span under its request.
    executes = tracer.by_name("service.execute")
    assert [span["attrs"]["request_id"] for span in executes] == [
        "cold", "warm"
    ]
    assert requests[executes[1]["parent_id"]] == "warm"
    delta = {event: after[event] - before[event] for event in after}
    assert delta == dict.fromkeys(delta, 0) | {
        "received": 1, "accepted": 1, "completed": 1
    }
    assert warm["result"]["counts"] == cold["result"]["counts"]


def test_warm_requests_behind_a_busy_executor_queue_by_priority():
    # One executor, held by a request whose scoped hang plan keeps it
    # off the warm path: warm requests that arrive meanwhile queue, and
    # the worker drains them by priority, each on its loop.
    fields = dict(kernel="bv", n=4, shots=16, seed=9)

    async def scenario():
        config = _config(executors=1, parallel_workers=1)
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            assert (await client.run(id="warm-up", **fields))["ok"]
            calls = _count_submits(service)
            puts = _record_puts(service)
            order = []

            async def tracked(request_id, priority):
                response = await client.run(
                    id=request_id, priority=priority, **fields
                )
                order.append(request_id)
                return response

            with inject_faults(worker_hang=1.0, hang_seconds=0.3):
                blocker = asyncio.create_task(
                    client.run(id="blocker", kernel="grover", n=5, shots=32)
                )
            while (await client.health())["result"]["in_flight"] == 0:
                await asyncio.sleep(0.001)
            jobs = [
                asyncio.create_task(tracked(request_id, priority))
                for request_id, priority in (
                    ("low", 9), ("high", 1), ("mid", 5)
                )
            ]
            await asyncio.sleep(0.01)  # all three admitted
            depth = (await client.health())["result"]["queue_depth"]
            responses = await asyncio.gather(blocker, *jobs)
            return responses, order, depth, calls, puts

    responses, order, depth, calls, puts = asyncio.run(scenario())
    assert all(response["ok"] for response in responses), responses
    assert depth == 3
    assert puts == ["blocker", "low", "high", "mid"]
    assert order == ["high", "mid", "low"]
    assert len(calls) == 1  # only the blocker used an executor thread
    warm = [response["result"]["counts"] for response in responses[1:]]
    assert warm[0] == warm[1] == warm[2] and len(warm[0]) == 1


def test_warm_request_behind_queued_work_queues_too():
    # A cold request is queued but its worker has not woken yet when a
    # warm one arrives: the warm one queues behind it, by priority, even
    # though no executor is busy yet.
    warm_fields = dict(kernel="bv", n=4, shots=16, seed=9)

    async def scenario():
        config = _config(executors=1, parallel_workers=1)
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            clear_marginal_memo()  # the cold request must evolve
            assert (await client.run(id="warm-up", **warm_fields))["ok"]
            puts = _record_puts(service)
            order = []

            async def tracked(request_id, priority, fields):
                response = await client.run(
                    id=request_id, priority=priority, **fields
                )
                order.append(request_id)
                return response

            cold = asyncio.create_task(
                tracked("cold", 1, dict(kernel="grover", n=5, shots=32))
            )
            # The same loop tick: the cold request is queued, not yet
            # dequeued, when this one is submitted.
            warm = asyncio.create_task(tracked("warm", 5, warm_fields))
            responses = await asyncio.gather(cold, warm)
            return responses, puts, order

    responses, puts, order = asyncio.run(scenario())
    assert all(response["ok"] for response in responses), responses
    assert puts == ["cold", "warm"]
    assert order == ["cold", "warm"]
