"""The async execution service (repro.service): robustness semantics.

Each test drives a real :class:`ExecutionService` through the
in-process :class:`ServiceClient` (same ``submit()`` path as TCP, no
socket timing noise) inside its own ``asyncio.run``.  The contract
under test, per docs/service.md:

- a service run returns the **same bits** as calling the execution
  stack directly with the same seed — including under injected chaos;
- overload sheds with ``QW601``, deadlines cancel with ``QW602`` (and
  actually stop the work), retry exhaustion reports ``QW603``, bad
  requests never reach the queue (``QW604``), and a draining service
  refuses new work with ``QW605``;
- every outcome is visible in ``op: "stats"``.
"""

import asyncio
import time

import pytest

from repro.algorithms import alternating_secret, bernstein_vazirani
from repro.exec.faults import FaultPlan, chunk_fault_key, inject_faults
from repro.exec.parallel import chunk_plan, parallel_run_with_info
from repro.exec.retry import RetryPolicy
from repro.obs import metrics
from repro.pipeline import (
    clear_compile_cache,
    compile_cache_info,
    compile_kernel,
)
from repro.service import ExecutionService, ServiceClient, ServiceConfig

SHOTS = 96
SEED = 5
N = 5


def run_async(coroutine):
    return asyncio.run(coroutine)


def make_config(**overrides) -> ServiceConfig:
    defaults = dict(
        parallel_workers=2, executors=2,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def direct_counts(n=N, shots=SHOTS, seed=SEED, workers=2):
    from repro.service.protocol import counts_of

    circuit = compile_kernel(
        bernstein_vazirani(alternating_secret(n))
    ).execution_circuit
    results, _ = parallel_run_with_info(
        circuit, shots, seed, workers=workers
    )
    return counts_of(results)


def crash_plan(rate=0.5, n=N, shots=SHOTS, seed=SEED, workers=2):
    """A plan whose crashes all clear on the first retry (found, not
    hard-coded, so the test is independent of hash details)."""
    circuit = compile_kernel(
        bernstein_vazirani(alternating_secret(n))
    ).execution_circuit
    chunks = range(len(chunk_plan(shots, workers)))
    for plan_seed in range(2000):
        plan = FaultPlan({"worker_crash": rate}, seed=plan_seed)
        if any(
            plan.should("worker_crash", chunk_fault_key(seed, i, 0))
            for i in chunks
        ) and not any(
            plan.should("worker_crash", chunk_fault_key(seed, i, 1))
            for i in chunks
        ):
            return plan
    raise AssertionError("no suitable fault seed in range")


# ----------------------------------------------------------------------
# The happy path: service answers == direct execution.
# ----------------------------------------------------------------------
def test_run_matches_direct_execution_bit_for_bit():
    async def scenario():
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            return await client.run(
                id=1, kernel="bv", n=N, shots=SHOTS, seed=SEED, workers=2
            )

    response = run_async(scenario())
    assert response["ok"], response
    assert response["result"]["counts"] == direct_counts()
    assert response["result"]["shots"] == SHOTS
    info = response["result"]["info"]
    assert (info["retries"], info["faults_injected"]) == (0, 0)


def test_repeat_requests_hit_the_compile_cache():
    async def scenario():
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            first = await client.run(
                id=1, kernel="dj", n=4, shots=32, seed=1
            )
            second = await client.run(
                id=2, kernel="dj", n=4, shots=32, seed=1
            )
            return first, second

    first, second = run_async(scenario())
    assert first["result"]["counts"] == second["result"]["counts"]
    assert second["result"]["info"]["compile_cache"] == "memory"


def test_warm_suite_requests_reuse_the_kernel_and_its_fingerprint(
    monkeypatch,
):
    import inspect

    from repro.evaluation import asdf_kernel

    real_getsource = inspect.getsource
    calls = []

    def counting_getsource(obj):
        calls.append(obj)
        return real_getsource(obj)

    async def scenario():
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            first = await client.run(
                id=1, kernel="grover", n=3, shots=32, seed=2
            )
            monkeypatch.setattr(inspect, "getsource", counting_getsource)
            second = await client.run(
                id=2, kernel="grover", n=3, shots=32, seed=2
            )
            return first, second

    first, second = run_async(scenario())
    assert first["ok"] and second["ok"], (first, second)
    assert second["result"]["counts"] == first["result"]["counts"]
    assert second["result"]["info"]["compile_cache"] == "memory"
    # The second request neither re-parsed the kernel nor re-read its
    # source for the compile-cache key.
    assert calls == []
    assert asdf_kernel("grover", 3) is asdf_kernel("grover", 3)


def test_cold_request_reports_its_own_compile_provenance(monkeypatch):
    # Another request hitting the same kernel while this one runs
    # rewrites the shared cached result's ``provenance`` field; the
    # cold request must still report the compile it did itself.
    from repro.evaluation import asdf_kernel
    from repro.exec import parallel

    real_run = parallel.parallel_run_with_info
    hits = []

    def run_after_a_cache_hit(*args, **kwargs):
        hit = compile_kernel(asdf_kernel("bv", 4), cache=True)
        hits.append(hit.provenance)
        return real_run(*args, **kwargs)

    async def scenario():
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            return await client.run(
                id=1, kernel="bv", n=4, shots=32, seed=3
            )

    clear_compile_cache(disk=True)
    monkeypatch.setattr(
        parallel, "parallel_run_with_info", run_after_a_cache_hit
    )
    try:
        response = run_async(scenario())
    finally:
        clear_compile_cache(disk=True)
    assert response["ok"], response
    assert hits == ["memory"]
    assert response["result"]["info"]["compile_cache"] == "compiled"


def test_source_kernels_compile_and_run():
    source = (
        "from repro import qpu\n"
        "\n"
        "@qpu\n"
        "def flip_pair() -> \"bit[2]\":\n"
        "    return '00' | std & std.flip | std[2].measure\n"
    )

    async def scenario():
        async with ExecutionService(make_config()) as service:
            return await ServiceClient(service).run(
                id=1, source=source, shots=64, seed=1
            )

    response = run_async(scenario())
    assert response["ok"], response
    assert response["result"]["counts"] == {"01": 64}


CLASSICAL_SOURCE = '''\
from repro import Bits, N, bit, cfunc, classical, qpu

SECRET = Bits.from_str("{secret}")


@classical[N](SECRET)
def f(secret: bit[N], x: bit[N]) -> bit:
    return (secret & x).xor_reduce()


@qpu[N](f)
def kernel(f: cfunc[N, 1]) -> bit[N]:
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
'''


def test_repeated_source_kernels_keep_the_classical_decorator():
    # Compiling the first kernel imports the repro.classical subpackage;
    # that must not rebind `from repro import classical` to the module.
    async def scenario():
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            return [
                await client.run(
                    id=i, source=CLASSICAL_SOURCE.format(secret=secret),
                    shots=16, seed=1,
                )
                for i, secret in enumerate(("1010", "0110"))
            ]

    first, second = run_async(scenario())
    assert first["ok"], first
    assert second["ok"], second
    assert first["result"]["counts"] == {"1010": 16}
    assert second["result"]["counts"] == {"0110": 16}


def test_source_diagnostics_render_against_service_source():
    bad = (
        "from repro import qpu\n"
        "\n"
        "@qpu\n"
        "def broken() -> \"bit\":\n"
        "    return '0' | std.does_not_exist\n"
    )

    async def scenario():
        async with ExecutionService(make_config()) as service:
            return await ServiceClient(service).run(
                id=1, source=bad, shots=4
            )

    response = run_async(scenario())
    assert not response["ok"]
    # The frontend reparses via inspect.getsource + linecache, so the
    # caret rendering quotes the client's own source line.
    assert "does_not_exist" in response["error"]["rendered"]


def test_noise_runs_accept_channel_specs():
    async def scenario():
        async with ExecutionService(make_config()) as service:
            return await ServiceClient(service).run(
                id=1, kernel="bv", n=4, shots=64, seed=3,
                noise={"bit_flip": 0.05},
            )

    response = run_async(scenario())
    assert response["ok"], response
    assert sum(response["result"]["counts"].values()) == 64


# ----------------------------------------------------------------------
# Chaos: injected faults change telemetry, never bits.
# ----------------------------------------------------------------------
def test_chaos_run_is_bit_identical_with_retries_reported():
    plan = crash_plan()

    async def scenario():
        config = make_config(fault_plan=plan, retry=RetryPolicy())
        async with ExecutionService(config) as service:
            return await ServiceClient(service).run(
                id=1, kernel="bv", n=N, shots=SHOTS, seed=SEED, workers=2
            )

    response = run_async(scenario())
    assert response["ok"], response
    assert response["result"]["counts"] == direct_counts()
    info = response["result"]["info"]
    assert info["retries"] >= 1 and info["faults_injected"] >= 1


def test_retry_budget_exhaustion_surfaces_qw603():
    async def scenario():
        config = make_config(
            fault_plan=FaultPlan({"worker_crash": 1.0}),
            retry=RetryPolicy(max_attempts=2, budget=3),
        )
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            response = await client.run(id=1, kernel="bv", n=4, shots=32)
            stats = await client.stats()
            return response, stats

    response, stats = run_async(scenario())
    assert not response["ok"]
    assert response["error"]["code"] == "QW603"
    assert response["error"]["retryable"] is True
    assert "max_attempts=2" in response["error"]["rendered"]
    assert stats["result"]["error_codes"]["QW603"] == 1
    assert stats["result"]["counters"]["failed"] == 1


# ----------------------------------------------------------------------
# Deadlines.
# ----------------------------------------------------------------------
def test_deadline_cancels_mid_execution_promptly():
    async def scenario():
        config = make_config(
            default_deadline=0.3,
            fault_plan=FaultPlan(
                {"worker_hang": 1.0}, hang_seconds=0.4
            ),
        )
        async with ExecutionService(config) as service:
            start = time.monotonic()
            response = await ServiceClient(service).run(
                id=1, kernel="bv", n=4, shots=64
            )
            return response, time.monotonic() - start

    response, elapsed = run_async(scenario())
    assert not response["ok"]
    assert response["error"]["code"] == "QW602"
    assert response["error"]["retryable"] is True
    assert elapsed < 2.0  # cancelled, not run to completion


def test_deadline_expired_while_queued_skips_execution():
    async def scenario():
        # One executor busy with a run that hangs for 0.3 s; a
        # short-deadline request behind it must expire in the queue
        # without spending compute (it never runs, so the hang plan
        # never touches it).
        config = make_config(
            executors=1,
            fault_plan=FaultPlan({"worker_hang": 1.0}, hang_seconds=0.3),
        )
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            blocker = asyncio.create_task(
                client.run(id=1, kernel="bv", n=4, shots=16)
            )
            # Wait until the blocker is executing, however fast it
            # compiles; the hang keeps it there far past one poll.
            async def blocker_executing():
                while (await client.health())["result"]["in_flight"] == 0:
                    await asyncio.sleep(0.001)

            await asyncio.wait_for(blocker_executing(), timeout=30)
            rushed = await client.run(
                id=2, kernel="bv", n=4, shots=16, deadline=0.001
            )
            await blocker
            return rushed

    response = run_async(scenario())
    assert not response["ok"]
    assert response["error"]["code"] == "QW602"
    assert "queued" in response["error"]["message"]


def test_deadline_is_capped_by_the_server_maximum():
    async def scenario():
        # The client asks for an hour; the server cap of 0.2s governs.
        # The injected hang makes the run outlast the cap.
        config = make_config(
            max_deadline=0.2,
            fault_plan=FaultPlan(
                {"worker_hang": 1.0}, hang_seconds=0.4
            ),
        )
        async with ExecutionService(config) as service:
            return await ServiceClient(service).run(
                id=1, kernel="bv", n=4, shots=64, deadline=3600.0
            )

    response = run_async(scenario())
    assert not response["ok"]
    assert response["error"]["code"] == "QW602"


# ----------------------------------------------------------------------
# Backpressure and drain.
# ----------------------------------------------------------------------
def test_full_queue_sheds_with_qw601():
    async def scenario():
        config = make_config(
            executors=1, parallel_workers=1, queue_limit=2
        )
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            jobs = [
                asyncio.create_task(
                    client.run(
                        id=i, kernel="grover", n=8, shots=512, seed=i
                    )
                )
                for i in range(8)
            ]
            responses = await asyncio.gather(*jobs)
            stats = await client.stats()
            return responses, stats

    responses, stats = run_async(scenario())
    shed = [r for r in responses if not r["ok"]]
    served = [r for r in responses if r["ok"]]
    assert served and shed  # overload, not outage
    for response in shed:
        assert response["error"]["code"] == "QW601"
        assert response["error"]["retryable"] is True
    assert stats["result"]["counters"]["shed"] == len(shed)
    # Shedding is backpressure, not failure.
    assert stats["result"]["counters"]["failed"] == 0


def test_draining_service_refuses_new_work_with_qw605():
    async def scenario():
        service = ExecutionService(make_config())
        await service.start()
        client = ServiceClient(service)
        before = await client.run(id=1, kernel="bv", n=4, shots=16)
        await service.drain()
        after = await client.run(id=2, kernel="bv", n=4, shots=16)
        return before, after

    before, after = run_async(scenario())
    assert before["ok"]
    assert not after["ok"]
    assert after["error"]["code"] == "QW605"


def test_unstarted_service_is_unavailable_not_hung():
    async def scenario():
        service = ExecutionService(make_config())
        return await ServiceClient(service).run(
            id=1, kernel="bv", n=4, shots=16
        )

    response = run_async(scenario())
    assert not response["ok"]
    assert response["error"]["code"] == "QW605"


def test_priority_orders_queued_work():
    async def scenario():
        # Single executor, held by a run that hangs for 0.3 s: the
        # requests submitted behind it queue and drain in priority
        # order, not submission order.  The hang plan is scoped to the
        # blocker (its task copies the context), so the blocker is
        # never warm and never answered on the submitting task.
        config = make_config(executors=1, parallel_workers=1)
        order = []
        async with ExecutionService(config) as service:
            client = ServiceClient(service)

            async def tracked(request_id, priority):
                response = await client.run(
                    id=request_id, kernel="bv", n=4, shots=16,
                    priority=priority,
                )
                assert response["ok"], response
                order.append(request_id)

            with inject_faults(worker_hang=1.0, hang_seconds=0.3):
                blocker = asyncio.create_task(
                    client.run(id=0, kernel="grover", n=7, shots=1024)
                )

            async def blocker_executing():
                while (await client.health())["result"]["in_flight"] == 0:
                    await asyncio.sleep(0.001)

            await asyncio.wait_for(blocker_executing(), timeout=30)
            jobs = [
                asyncio.create_task(tracked("low", 9)),
                asyncio.create_task(tracked("high", 1)),
                asyncio.create_task(tracked("mid", 5)),
            ]
            await asyncio.sleep(0.01)  # all three enqueued
            queued = (await client.health())["result"]["queue_depth"]
            responses = await asyncio.gather(blocker, *jobs)
            assert responses[0]["ok"], responses[0]
        return order, queued

    order, queued = run_async(scenario())
    assert queued == 3
    assert order == ["high", "mid", "low"]


# ----------------------------------------------------------------------
# Validation and observability through the full stack.
# ----------------------------------------------------------------------
def test_bad_requests_never_reach_the_queue():
    async def scenario():
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            responses = [
                await client.run(id=1, kernel="not_an_algorithm"),
                await client.run(id=2),  # neither kernel nor source
                await client.run(id=3, kernel="bv", shots=0),
                await service.submit({"op": "teleport", "id": 4}),
            ]
            stats = await client.stats()
            return responses, stats

    responses, stats = run_async(scenario())
    for response in responses:
        assert not response["ok"]
        assert response["error"]["code"] == "QW604"
    # Shape errors are rejected before admission; only the unknown
    # kernel name (whose vocabulary lives in repro.evaluation, not the
    # protocol) is discovered at execution time.
    assert stats["result"]["counters"]["accepted"] == 1
    assert stats["result"]["error_codes"]["QW604"] == 4


@pytest.mark.parametrize("seed", [2**64 - 1, 2**64])
def test_seeds_are_bounded_before_any_compile_lookup(seed):
    # Seeds are unsigned 64-bit: 2**64 - 1 runs, 2**64 is refused at
    # parse time, before the warm check's compile lookup.
    def lookups():
        info = compile_cache_info()
        return info["hits"] + info["misses"]

    async def scenario():
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            await client.run(id=0, kernel="bv", n=N, shots=8)
            before = lookups()
            response = await client.run(
                id=1, kernel="bv", n=N, shots=8, seed=seed
            )
            return response, lookups() - before

    response, lookups_spent = run_async(scenario())
    if seed < 2**64:
        assert response["ok"], response
        assert lookups_spent == 1
    else:
        assert not response["ok"]
        assert response["error"]["code"] == "QW604"
        assert "2**64" in response["error"]["message"]
        assert lookups_spent == 0


@pytest.mark.parametrize("backend", ["interpreter", "nope"])
def test_unknown_backends_are_rejected_before_any_compile_lookup(backend):
    def lookups():
        info = compile_cache_info()
        return info["hits"] + info["misses"]

    async def scenario():
        async with ExecutionService(make_config()) as service:
            before = lookups()
            response = await ServiceClient(service).run(
                id=1, kernel="bv", n=6, backend=backend
            )
            return response, lookups() - before

    response, lookups_spent = run_async(scenario())
    assert not response["ok"]
    assert response["error"]["code"] == "QW604"
    assert repr(backend) in response["error"]["message"]
    assert lookups_spent == 0


def test_unknown_preset_reports_the_compilers_code():
    async def scenario():
        async with ExecutionService(make_config()) as service:
            return await ServiceClient(service).run(
                id=1, kernel="bv", n=4, shots=16, preset="warp_speed"
            )

    response = run_async(scenario())
    assert not response["ok"]
    assert response["error"]["code"] == "QW301"
    assert "warp_speed" in response["error"]["message"]


def test_health_and_stats_report_counters_and_cache():
    async def scenario():
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            await client.run(id=1, kernel="bv", n=4, shots=16)
            await client.run(id=2, kernel="bv", n=4, shots=16)
            health = await client.health()
            stats = await client.stats()
            return health, stats

    health, stats = run_async(scenario())
    assert health["ok"]
    assert health["result"]["status"] == "ok"
    counters = stats["result"]["counters"]
    assert counters["completed"] == 2
    assert counters["received"] >= 4
    cache = stats["result"]["compile_cache"]
    assert cache["memory_hits"] >= 1
    assert stats["result"]["uptime_s"] >= 0


def test_stats_counts_injected_faults_service_wide():
    plan = crash_plan()

    async def scenario():
        config = make_config(fault_plan=plan, retry=RetryPolicy())
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            await client.run(
                id=1, kernel="bv", n=N, shots=SHOTS, seed=SEED, workers=2
            )
            return await client.stats()

    stats = run_async(scenario())
    counters = stats["result"]["counters"]
    assert counters["retries"] >= 1
    assert counters["faults_injected"] >= 1


def test_noisy_chunks_count_their_sweeps_in_the_service_registry():
    # Every chunk runs in the service's process, so the batched sweeps
    # of a noisy two-chunk request land in the registry the service's
    # "metrics" op exposes: one per chunk.
    sweeps = metrics.instruments()["repro_sim_sweeps_total"]

    async def scenario():
        async with ExecutionService(ServiceConfig()) as service:
            client = ServiceClient(service)
            before = sweeps.value(engine="batched")
            response = await client.run(
                id=1, kernel="bv", n=4, shots=256, seed=3, workers=2,
                noise={"depolarizing": 0.02},
            )
            exposition = (await client.metrics())["result"]["exposition"]
            return response, sweeps.value(engine="batched") - before, exposition

    response, swept, exposition = run_async(scenario())
    assert response["ok"], response
    assert response["result"]["info"]["chunks"] == 2
    assert swept == 2
    assert 'repro_sim_sweeps_total{engine="batched"}' in exposition


def test_responses_resolve_concurrently_not_serially():
    async def scenario():
        config = make_config(executors=2)
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            jobs = [
                client.run(id=i, kernel="bv", n=4, shots=32, seed=i)
                for i in range(6)
            ]
            return await asyncio.gather(*jobs)

    responses = run_async(scenario())
    assert all(response["ok"] for response in responses)
    assert len({r["id"] for r in responses}) == 6


@pytest.mark.parametrize("kernel", ["bv", "dj", "simon"])
def test_algorithm_vocabulary_runs(kernel):
    async def scenario():
        async with ExecutionService(make_config()) as service:
            return await ServiceClient(service).run(
                id=1, kernel=kernel, n=4, shots=32, seed=2
            )

    response = run_async(scenario())
    assert response["ok"], response
    assert sum(response["result"]["counts"].values()) == 32
