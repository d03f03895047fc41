"""The async execution service under load and under chaos.

Two claims, both recorded in BENCH_service.json:

- **Throughput and tail latency**: a fixed batch of compile/run
  requests (bv n=6, 128 shots each) is pushed through a real
  :class:`~repro.service.service.ExecutionService` at several
  concurrency levels; requests/sec and p50/p99 response latency are
  recorded at each level.  Zero requests may fail — backpressure is
  configured away (queue bound >= batch), so every response must be
  ``ok``.
- **Graceful degradation has a floor**: the same batch with a 5%
  deterministic ``worker_crash`` plan must (a) complete **100%** of
  requests successfully, (b) return **bit-identical histograms** to
  the clean run for every request id, and (c) sustain at least **70%**
  of the clean run's throughput — recovery is retries absorbing
  faults, not a collapse to serial or a pile of errors.

A third test times the warm request path without a service around
it, so the perf gate sees the compile-cache hit path: a suite-kernel
hit (``compile-cache-hit``) and a repeated ``source`` resolve plus hit
(``resolve-hit``).  Each record is the best of several samples of
1,000 calls, which keeps its wall time above the gate's 5 ms floor.
A fourth times the largest warm request a server answers on its event
loop (``warm-sample``): a marginal-memo hit at ``MAX_SHOTS`` shots,
two in-process chunks as on a ``--serial`` server, plus ``counts_of``.
``warm-sample-inline`` times the same request the way the service
answers it, counting both chunks' draws from the held CDF
(``parallel_draw_with_info``).  A fifth times the warm path as a whole
(``warm-inline``): 2,000 warm 256-shot requests through an in-process
client on a ``--serial``-configured service, answered on its loop.  A
sixth (``warm-request``) adds the wire format around the same path, as
a ``--serial`` server runs it: 2,000 request lines, each parsed,
submitted and its response encoded, over the suite at n = 6-8 and a
``source`` kernel.

Chunks run in-process (``use_processes=False``): the benchmark
measures the service machinery (admission, deadlines, retry waves),
not process-pool spawn time, and injected crashes raise
:class:`~repro.errors.FaultInjectedError` deterministically.  Real
``BrokenProcessPool`` recovery is covered by tests/exec/test_faults.py.
"""

import asyncio
import time

from conftest import bench_record, write_bench_json, write_result

from repro.evaluation import asdf_kernel
from repro.exec.faults import FaultPlan
from repro.exec.parallel import (
    parallel_draw_with_info,
    parallel_run_with_info,
)
from repro.exec.retry import RetryPolicy
from repro.pipeline import compile_kernel
from repro.service import ExecutionService, ServiceClient, ServiceConfig
from repro.service import protocol
from repro.service import service as service_module
from repro.sim.backend import memoized_marginal, run_facts

REQUESTS = 48
SHOTS = 128
N = 6
CONCURRENCY_LEVELS = (1, 4, 16)
CHAOS_CONCURRENCY = 4
CHAOS_RATE = 0.05
MIN_CHAOS_THROUGHPUT_FRACTION = 0.70

#: Short backoffs: the bench measures recovery overhead, not sleeps.
RETRY = RetryPolicy(backoff_base=0.002, backoff_cap=0.02)

HIT_CALLS = 1000
HIT_SAMPLES = 5
WARM_SAMPLES = 5

#: The warm-inline record: requests per sample, their shots, and the
#: suite kernels they cycle through (every one warmed beforehand).
INLINE_REQUESTS = 2000
INLINE_SHOTS = 256
INLINE_KERNELS = ("bv", "dj", "grover", "simon", "period")
INLINE_SAMPLES = 3
#: The warm-request record's sizes.
WIRE_SIZES = (6, 7, 8)

#: A Bernstein-Vazirani ``source`` kernel with a captured oracle.
BV_SOURCE = '''\
from repro.frontend.decorators import Bits, N, bit, cfunc, classical, qpu

SECRET = Bits.from_str("110100")


@classical[N](SECRET)
def f(secret: bit[N], x: bit[N]) -> bit:
    return (secret & x).xor_reduce()


@qpu[N](f)
def kernel(f: cfunc[N, 1]) -> bit[N]:
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
'''


def _config(fault_plan=None) -> ServiceConfig:
    return ServiceConfig(
        use_processes=False,
        parallel_workers=2,
        executors=4,
        queue_limit=2 * REQUESTS,
        retry=RETRY,
        fault_plan=fault_plan,
    )


async def _drive(config, concurrency):
    """One batch: returns (wall_s, latencies_s, responses_by_id)."""
    async with ExecutionService(config) as service:
        client = ServiceClient(service)
        # Warm the compile cache outside the timed region, like any
        # long-lived service: steady-state throughput is the claim.
        warm = await client.run(id="warm", kernel="bv", n=N, shots=8)
        assert warm["ok"], warm
        gate = asyncio.Semaphore(concurrency)
        latencies = [0.0] * REQUESTS
        responses = {}

        async def one(index):
            async with gate:
                start = time.perf_counter()
                response = await client.run(
                    id=index, kernel="bv", n=N, shots=SHOTS, seed=index
                )
                latencies[index] = time.perf_counter() - start
                responses[index] = response

        start = time.perf_counter()
        await asyncio.gather(*(one(i) for i in range(REQUESTS)))
        wall = time.perf_counter() - start
    return wall, latencies, responses


def _percentile(sorted_values, fraction):
    index = min(
        len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def _run_batch(config, concurrency):
    wall, latencies, responses = asyncio.run(
        _drive(config, concurrency)
    )
    failed = [r for r in responses.values() if not r["ok"]]
    assert not failed, failed[:3]
    ordered = sorted(latencies)
    return {
        "wall_s": wall,
        "rps": REQUESTS / wall,
        "p50_ms": _percentile(ordered, 0.50) * 1e3,
        "p99_ms": _percentile(ordered, 0.99) * 1e3,
        "counts": {i: responses[i]["result"]["counts"]
                   for i in range(REQUESTS)},
        "retries": sum(
            responses[i]["result"]["info"]["retries"]
            for i in range(REQUESTS)
        ),
        "faults": sum(
            responses[i]["result"]["info"]["faults_injected"]
            for i in range(REQUESTS)
        ),
    }


def test_service_throughput_and_tail_latency():
    records, lines = [], []
    for concurrency in CONCURRENCY_LEVELS:
        batch = _run_batch(_config(), concurrency)
        records.append(
            bench_record(
                f"service-throughput-{REQUESTS}req-bv{N}",
                f"concurrency-{concurrency}",
                batch["wall_s"] * 1e3,
                shots=REQUESTS * SHOTS,
            )
        )
        records.append(
            bench_record(
                "service-latency-p99",
                f"concurrency-{concurrency}",
                batch["p99_ms"],
                shots=SHOTS,
            )
        )
        lines.append(
            f"concurrency={concurrency:2d}: "
            f"{batch['rps']:7.1f} req/s  "
            f"p50={batch['p50_ms']:6.1f} ms  "
            f"p99={batch['p99_ms']:6.1f} ms"
        )
    write_bench_json("service", records)
    write_result(
        "service_throughput.txt",
        f"{REQUESTS} requests (bv n={N}, {SHOTS} shots each), "
        f"in-process chunks\n" + "\n".join(lines) + "\n",
    )


def test_service_chaos_floor():
    clean = _run_batch(_config(), CHAOS_CONCURRENCY)
    plan = FaultPlan({"worker_crash": CHAOS_RATE}, seed=0)
    chaos = _run_batch(_config(fault_plan=plan), CHAOS_CONCURRENCY)

    # (a) 100% completion is enforced inside _run_batch; (b) chaos
    # results are bit-identical per request id (the retry layer never
    # reseeds data); (c) throughput keeps a floor.
    assert chaos["counts"] == clean["counts"]
    assert chaos["faults"] >= 1, "5% plan injected nothing; raise REQUESTS"
    ratio = chaos["rps"] / clean["rps"]
    assert ratio >= MIN_CHAOS_THROUGHPUT_FRACTION, (
        f"chaos throughput {chaos['rps']:.1f} req/s is "
        f"{ratio:.2f}x of clean {clean['rps']:.1f} req/s "
        f"(floor {MIN_CHAOS_THROUGHPUT_FRACTION})"
    )

    write_bench_json(
        "service",
        [
            bench_record(
                f"service-chaos-{int(CHAOS_RATE * 100)}pct-crash",
                "clean",
                clean["wall_s"] * 1e3,
                shots=REQUESTS * SHOTS,
            ),
            bench_record(
                f"service-chaos-{int(CHAOS_RATE * 100)}pct-crash",
                "chaos",
                chaos["wall_s"] * 1e3,
                shots=REQUESTS * SHOTS,
            ),
        ],
    )
    write_result(
        "service_chaos.txt",
        f"{REQUESTS} requests at concurrency {CHAOS_CONCURRENCY}, "
        f"{int(CHAOS_RATE * 100)}% injected worker crashes\n"
        f"clean: {clean['rps']:7.1f} req/s\n"
        f"chaos: {chaos['rps']:7.1f} req/s "
        f"({ratio:.2f}x of clean; floor "
        f"{MIN_CHAOS_THROUGHPUT_FRACTION})\n"
        f"faults injected: {chaos['faults']}, "
        f"retries: {chaos['retries']}, failed requests: 0\n"
        f"histograms: bit-identical to clean for all "
        f"{REQUESTS} request ids\n",
    )


def _best_sample_ms(fn) -> float:
    """Best of HIT_SAMPLES wall times of HIT_CALLS calls, in ms."""
    best = float("inf")
    for _ in range(HIT_SAMPLES):
        start = time.perf_counter()
        for _ in range(HIT_CALLS):
            fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def test_warm_hit_paths():
    kernel = asdf_kernel("grover", 8)
    request = protocol.RunRequest.from_payload({"source": BV_SOURCE})

    def suite_hit():
        return compile_kernel(kernel, pipeline="default", cache=True)

    def source_hit():
        resolved = service_module._resolve_kernel(request)
        return compile_kernel(resolved, pipeline=request.preset, cache=True)

    assert suite_hit().decomposed_circuit is not None
    assert source_hit().decomposed_circuit is not None
    assert suite_hit().provenance == source_hit().provenance == "memory"
    timings = {
        ("compile-cache-hit", "suite-grover-n8"): _best_sample_ms(suite_hit),
        ("resolve-hit", "source-bv"): _best_sample_ms(source_hit),
    }
    write_bench_json(
        "service",
        [
            bench_record(benchmark, config, wall_ms)
            for (benchmark, config), wall_ms in timings.items()
        ],
    )
    write_result(
        "service_hit_paths.txt",
        f"warm request path, best of {HIT_SAMPLES} samples of "
        f"{HIT_CALLS} calls\n"
        + "".join(
            f"{benchmark}/{config}: {wall_ms / HIT_CALLS * 1e3:7.1f} us "
            f"per call\n"
            for (benchmark, config), wall_ms in timings.items()
        ),
    )


def test_warm_sample_at_max_shots():
    circuit = compile_kernel(
        asdf_kernel("grover", 8), pipeline="default", cache=True
    ).execution_circuit
    shots = protocol.MAX_SHOTS

    def warm_request():
        bits, info = parallel_run_with_info(
            circuit, shots, seed=1, workers=2, use_processes=False
        )
        return protocol.counts_of(bits), info

    warm_request()  # evolves the marginal, unless already memoized
    best = float("inf")
    for _ in range(WARM_SAMPLES):
        start = time.perf_counter()
        counts, info = warm_request()
        best = min(best, time.perf_counter() - start)
        assert info.evolutions == 0 and info.chunks == 2
        assert sum(counts.values()) == shots
    write_bench_json(
        "service",
        [
            bench_record(
                "warm-sample", "2^20-shots", best * 1e3,
                shots=shots, evolutions=0,
            )
        ],
    )
    write_result(
        "service_warm_sample.txt",
        f"warm grover n=8 request, {shots} shots in 2 in-process "
        f"chunks, plus counts_of ({len(counts)} outcomes): "
        f"{best * 1e3:.1f} ms (best of {WARM_SAMPLES})\n",
    )


def test_warm_sample_inline_at_max_shots():
    circuit = compile_kernel(
        asdf_kernel("grover", 8), pipeline="default", cache=True
    ).execution_circuit
    shots = protocol.MAX_SHOTS
    parallel_run_with_info(circuit, 1, workers=1)  # memoizes the marginal
    facts = run_facts(circuit)
    cdf = memoized_marginal(facts)
    expected, _ = parallel_run_with_info(
        circuit, shots, seed=1, workers=2, use_processes=False
    )
    expected = list(protocol.counts_of(expected).items())
    best = float("inf")
    for _ in range(WARM_SAMPLES):
        start = time.perf_counter()
        counts, info = parallel_draw_with_info(
            facts, cdf, shots, seed=1, workers=2
        )
        best = min(best, time.perf_counter() - start)
        assert info.evolutions == 0 and info.chunks == 2
        assert list(counts.items()) == expected
    write_bench_json(
        "service",
        [
            bench_record(
                "warm-sample-inline", "2^20-shots", best * 1e3,
                shots=shots, evolutions=0,
            )
        ],
    )
    write_result(
        "service_warm_sample_inline.txt",
        f"warm grover n=8 request counted from the held CDF, {shots} "
        f"shots in 2 chunks ({len(counts)} outcomes): "
        f"{best * 1e3:.1f} ms (best of {WARM_SAMPLES})\n",
    )


def test_warm_requests_inline():
    config = ServiceConfig(use_processes=False)  # as `--serial`
    kernels = [dict(kernel=name, n=N) for name in INLINE_KERNELS]

    async def sample(client) -> float:
        start = time.perf_counter()
        for index in range(INLINE_REQUESTS):
            response = await client.run(
                id=index, shots=INLINE_SHOTS, seed=index,
                **kernels[index % len(kernels)],
            )
            assert response["ok"], response
        return time.perf_counter() - start

    async def drive():
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            for fields in kernels:  # compile and evolve outside the timing
                assert (await client.run(id="warm", **fields))["ok"]
            threads = []
            real_submit = service._threads.submit

            def counting_submit(fn, *args, **kwargs):
                threads.append(fn)
                return real_submit(fn, *args, **kwargs)

            service._threads.submit = counting_submit
            best = min([await sample(client) for _ in range(INLINE_SAMPLES)])
            assert threads == [], "a warm request left the loop"
            return best

    best = asyncio.run(drive())
    write_bench_json(
        "service",
        [
            bench_record(
                "warm-inline", f"{INLINE_REQUESTS}req-{INLINE_SHOTS}-shots",
                best * 1e3, shots=INLINE_REQUESTS * INLINE_SHOTS,
                evolutions=0,
            )
        ],
    )
    write_result(
        "service_warm_inline.txt",
        f"{INLINE_REQUESTS} warm {INLINE_SHOTS}-shot requests "
        f"({', '.join(INLINE_KERNELS)} at n={N}) through an in-process "
        f"client on a --serial-configured service: {best * 1e3:.1f} ms, "
        f"{best / INLINE_REQUESTS * 1e6:.0f} us per request "
        f"(best of {INLINE_SAMPLES})\n",
    )


def test_warm_requests_through_the_wire_format():
    config = ServiceConfig(use_processes=False)  # as `--serial`
    catalog = [
        dict(kernel=name, n=n) for name in INLINE_KERNELS for n in WIRE_SIZES
    ] + [dict(source=BV_SOURCE)]
    lines = [
        protocol.encode_response({
            "id": index, "op": "run", "shots": INLINE_SHOTS, "seed": index,
            "deadline": 120.0, **catalog[index % len(catalog)],
        })
        for index in range(INLINE_REQUESTS)
    ]

    async def sample(service) -> float:
        start = time.perf_counter()
        for line in lines:
            response = await service.submit(protocol.parse_request(line))
            protocol.encode_response(response)
        elapsed = time.perf_counter() - start
        assert response["ok"], response
        return elapsed

    async def drive():
        async with ExecutionService(config) as service:
            for fields in catalog:  # compile and evolve outside the timing
                warm = await service.submit(
                    {"id": "warm", "shots": INLINE_SHOTS, **fields}
                )
                assert warm["ok"], warm
            before = service.counters
            best = min([await sample(service) for _ in range(INLINE_SAMPLES)])
            after = service.counters
            assert after["completed"] - before["completed"] == (
                INLINE_SAMPLES * INLINE_REQUESTS
            )
            return best

    best = asyncio.run(drive())
    write_bench_json(
        "service",
        [
            bench_record(
                "warm-request",
                f"{INLINE_REQUESTS}req-{INLINE_SHOTS}-shots-wire",
                best * 1e3, shots=INLINE_REQUESTS * INLINE_SHOTS,
                evolutions=0,
            )
        ],
    )
    write_result(
        "service_warm_request.txt",
        f"{INLINE_REQUESTS} warm {INLINE_SHOTS}-shot request lines "
        f"({', '.join(INLINE_KERNELS)} at n={WIRE_SIZES}, a source "
        f"kernel) parsed, submitted and encoded on a --serial-configured "
        f"service: {best * 1e3:.1f} ms, "
        f"{best / INLINE_REQUESTS * 1e6:.0f} us per request "
        f"(best of {INLINE_SAMPLES})\n",
    )
