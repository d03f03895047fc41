"""Compiler throughput: wall-clock cost of each pipeline stage.

Not a paper figure, but useful engineering data: how long the ASDF
reproduction takes to compile each benchmark at a realistic size, how
the cost splits across passes (via the PassManager instrumentation),
how the polynomial-time span checker scales (paper §4.1 claims
O(k^2 log k) instead of the naive exponential), and that Selinger
decomposition and the strict peephole stay linear in the op count.
"""

import time

import pytest

from conftest import bench_record, write_bench_json, write_result

from repro import CompileOptions
from repro.basis import Basis
from repro.basis.span import check_span_equivalence
from repro.evaluation import ALGORITHMS, asdf_kernel
from repro.qcircuit import decompose_multi_controlled, run_peephole


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_compile_speed(benchmark, algorithm):
    kernel = asdf_kernel(algorithm, 32)
    benchmark.pedantic(
        lambda: kernel.compile(), rounds=3, iterations=1, warmup_rounds=1
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_per_pass_timing_breakdown(benchmark, algorithm):
    """Print where compile time goes, pass by pass, per benchmark."""
    kernel = asdf_kernel(algorithm, 32)
    options = CompileOptions.preset("default", collect_statistics=True)
    result = benchmark.pedantic(
        lambda: kernel.compile(options=options), rounds=1, iterations=1
    )
    report = result.statistics.report()
    write_result(f"compiler_passes_{algorithm}.txt",
                 f"{algorithm} n=32: per-pass compile breakdown\n{report}")
    write_bench_json(
        "compiler_speed",
        [
            bench_record(
                f"compile-{algorithm}-n32",
                "default",
                result.statistics.total_seconds * 1e3,
            )
        ],
    )
    names = [entry.name for entry in result.statistics.entries]
    assert "inline" in names and "(frontend)" in names


def test_compile_cache_speedup(benchmark):
    """Repeated compiles of an equivalent kernel hit the driver cache.

    Explicit cold-cache mode: ``disk=True`` also drops the persistent
    on-disk layer (repro.exec.diskcache) — without it the "cold" leg
    would quietly read the artifact a previous run persisted and the
    cold number would measure unpickling, not compilation."""
    from repro import clear_compile_cache

    clear_compile_cache(disk=True)
    kernel = asdf_kernel("grover", 32)
    start = time.perf_counter()
    cold = kernel.compile(pipeline="default", cache=True)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = benchmark.pedantic(
        lambda: kernel.compile(pipeline="default", cache=True),
        rounds=3,
        iterations=1,
    )
    warm_seconds = time.perf_counter() - start
    write_bench_json(
        "compiler_speed",
        [
            bench_record(
                "compile-grover-n32-cache", "cold", cold_seconds * 1e3
            ),
            bench_record(
                "compile-grover-n32-cache",
                "warm-3rounds",
                warm_seconds * 1e3,
            ),
        ],
    )
    assert warm is cold


def _best_seconds(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _write_scaling(benchmark: str, timings: dict) -> None:
    """Record each size with its op count and assert the n=128/n=32 time
    ratio stays under twice the op ratio."""
    write_bench_json(
        "compiler_speed",
        [
            {
                **bench_record(f"{benchmark}-grover-n{n}", "selinger", wall * 1e3),
                "ops": ops,
            }
            for n, (ops, wall) in timings.items()
        ],
    )
    ops32, wall32 = timings[32]
    ops128, wall128 = timings[128]
    assert wall128 / wall32 < 2 * (ops128 / ops32), timings


def test_selinger_scales_linearly():
    """Selinger decomposition alone on Grover's optimized circuit.

    Each output gate is built once, so the pass is linear in the ops it
    emits; each record carries that count as ``ops``.
    """
    timings = {}
    for n in (32, 64, 128):
        optimized = asdf_kernel("grover", n).compile().optimized_circuit
        decomposed = decompose_multi_controlled(optimized, use_selinger=True)
        wall = _best_seconds(
            lambda: decompose_multi_controlled(optimized, use_selinger=True)
        )
        timings[n] = (len(decomposed.instructions), wall)
    _write_scaling("selinger", timings)


def test_strict_peephole_scales_linearly():
    """The strict peephole alone on Selinger-decomposed Grover.

    The cancellation window keeps a stack of live op indices per qubit,
    so the pass is linear in the op count: from n=32 to n=128 the time
    ratio must stay under twice the op ratio.  Each record carries its
    input op count as ``ops``.
    """
    timings = {}
    for n in (32, 64, 128):
        optimized = asdf_kernel("grover", n).compile().optimized_circuit
        decomposed = decompose_multi_controlled(optimized, use_selinger=True)
        wall = _best_seconds(lambda: run_peephole(decomposed, relaxed=False))
        timings[n] = (len(decomposed.instructions), wall)
    _write_scaling("peephole-strict", timings)


@pytest.mark.parametrize("k", [16, 64, 256])
def test_span_check_scales_polynomially(benchmark, k):
    # {'0','1'}[k] >> {'1','0'}[k] covers 2^k vectors; the checker must
    # stay polynomial in the AST size k (paper §4.1).
    b_in = Basis.literal("0", "1").broadcast(k)
    b_out = Basis.literal("1", "0").broadcast(k)
    benchmark.pedantic(
        lambda: check_span_equivalence(b_in, b_out),
        rounds=5,
        iterations=2,
    )
