"""Observability must be near-free when it is off.

The tracing/metrics layer (repro.obs) instruments the hot execution
path — chunk dispatch, per-sweep simulation, cache lookups — with
``span()`` guards and counter increments that are always compiled in.
The claim gated here, per docs/observability.md: with tracing
**disabled** (the shipped default) the instrumented stack costs at
most **5%** over the same stack with every metric update suppressed
too (``metrics.disabled()``), measured min-of-N with the
configurations interleaved so drift hits all of them equally.

Three configurations of one hot workload (a noisy-trajectory
bv run sharded over in-process chunks, compile cache warm — every
shot walks the instrumented sweep/chunk path):

- ``bare``        — tracing off AND metric updates suppressed
- ``tracing-off`` — the shipped default (metrics on, tracing off)
- ``tracing-on``  — full span recording to an in-memory tracer

All three land in BENCH_obs.json so the trajectory shows what
observability costs at each level; the committed baseline feeds the
usual ``check_bench_json.py --compare`` gate, and the 5% bound is
asserted right here (env ``BENCH_OBS_MAX_OVERHEAD`` overrides for
noisy CI hosts).
"""

import os
import time

from conftest import bench_record, write_bench_json, write_result

from repro.algorithms import alternating_secret, bernstein_vazirani
from repro.exec.parallel import parallel_run_with_info
from repro.noise import NoiseModel, depolarizing
from repro.obs import metrics, trace
from repro.pipeline import compile_kernel

N = 5
SHOTS = 2048
WORKERS = 4
ROUNDS = 5

#: tracing-off may cost at most this factor over bare.
MAX_OVERHEAD = float(os.environ.get("BENCH_OBS_MAX_OVERHEAD", "1.05"))


def _workload(circuit, noise):
    results, _ = parallel_run_with_info(
        circuit,
        SHOTS,
        seed=13,
        workers=WORKERS,
        noise_model=noise,
    )
    assert len(results) == SHOTS


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_obs_overhead_gate():
    circuit = compile_kernel(
        bernstein_vazirani(alternating_secret(N)), cache=True
    ).execution_circuit
    noise = NoiseModel().add_channel(depolarizing(0.01))

    def bare():
        with metrics.disabled():
            _workload(circuit, noise)

    def tracing_off():
        _workload(circuit, noise)

    def tracing_on():
        trace.enable_tracing()
        try:
            _workload(circuit, noise)
        finally:
            trace.disable_tracing()

    configurations = {
        "bare": bare,
        "tracing-off": tracing_off,
        "tracing-on": tracing_on,
    }
    for fn in configurations.values():
        fn()  # warm: compile cache, allocators, imports

    # Interleave rounds so clock drift and cache state hit every
    # configuration equally; keep the min (least-noisy statistic,
    # matching the --compare gate's reduction).
    best = {name: float("inf") for name in configurations}
    for _ in range(ROUNDS):
        for name, fn in configurations.items():
            best[name] = min(best[name], _timed(fn))

    overhead = best["tracing-off"] / best["bare"]
    traced = best["tracing-on"] / best["bare"]

    write_bench_json(
        "obs",
        [
            bench_record(
                "obs-overhead",
                name,
                best[name] * 1e3,
                shots=SHOTS,
            )
            for name in configurations
        ],
    )
    write_result(
        "obs_overhead.txt",
        f"hot workload: noisy bv n={N}, {SHOTS} shots, "
        f"{WORKERS} in-process chunks, min of {ROUNDS} interleaved "
        f"rounds\n"
        f"bare        : {best['bare'] * 1e3:8.2f} ms\n"
        f"tracing-off : {best['tracing-off'] * 1e3:8.2f} ms "
        f"({overhead:.3f}x of bare; gate <= {MAX_OVERHEAD})\n"
        f"tracing-on  : {best['tracing-on'] * 1e3:8.2f} ms "
        f"({traced:.3f}x of bare)\n",
    )

    assert overhead <= MAX_OVERHEAD, (
        f"disabled-tracing instrumentation costs {overhead:.3f}x over "
        f"the suppressed substrate (gate {MAX_OVERHEAD}x): the no-op "
        f"path has stopped being near-free"
    )
