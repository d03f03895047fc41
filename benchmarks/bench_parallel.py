"""Multicore shot sharding + the persistent compile cache (repro.exec).

Two claims, both recorded in BENCH_parallel.json:

- **Shard throughput**: a trajectory workload (mid-circuit measurement,
  so the terminal fast path cannot collapse it to one evolution) sharded
  across a process pool scales with the worker count.  CI runners have
  multiple cores, so the 2-worker run must be >= 1.5x the 1-worker run
  and the 4-worker run >= 2x; on a single-core machine the rows are
  still recorded (the perf trajectory stays complete) but the speedup
  assertions are vacuous.
- **Persistent compile cache**: a *fresh process* whose disk cache is
  warm must compile >= 5x faster than the cold first process — the
  whole point of persisting compile artifacts across processes.  Both
  legs run in subprocesses against a private ``REPRO_CACHE_DIR`` so the
  measurement is honest end-to-end (unpickle + source-fingerprint salt
  included) and never touches the developer's real cache.

The 1-worker leg runs all shots as one in-process chunk; the sharded
legs split the same shots into one chunk per worker, on the same
batched engine, so the comparison isolates process dispatch.
"""

import json
import os
import subprocess
import sys
import time

from conftest import REPO_ROOT, bench_record, write_bench_json, write_result

from repro.exec import parallel_run_with_info, shutdown_pools
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement

#: Shard-throughput workload geometry: 2048 shots of an 11-qubit
#: trajectory circuit, one chunk per worker (32 MiB of batch state in
#: total, well under the batched engine's envelope).
SHOTS = 2048
WORKER_COUNTS = (1, 2, 4)


def _trajectory_workload(n: int = 11, layers: int = 2) -> Circuit:
    """Dense enough that per-chunk compute dominates dispatch overhead;
    the mid-circuit measurement + conditioned gate forces the batched
    trajectory engine (the terminal fast path would do one evolution
    total and leave nothing to shard)."""
    circuit = Circuit(num_qubits=n, num_bits=n)
    for layer in range(layers):
        for q in range(n):
            circuit.add(CircuitGate("h", (q,)))
        for q in range(n - 1):
            circuit.add(CircuitGate("x", (q + 1,), controls=(q,)))
        circuit.add(Measurement(0, 0))
        circuit.add(CircuitGate("z", (1,), condition=(0, 1)))
        for q in range(n):
            circuit.add(CircuitGate("rx", (q,), params=(0.3 + 0.1 * layer,)))
    for q in range(n):
        circuit.add(Measurement(q, q))
    return circuit


def test_shard_throughput_vs_workers():
    circuit = _trajectory_workload()
    # Pay pool/process warmup outside the timed region, like the
    # long-lived service the executor is built for.
    for workers in WORKER_COUNTS:
        parallel_run_with_info(circuit, 8, seed=1, workers=workers)

    records, wall = [], {}
    for workers in WORKER_COUNTS:
        start = time.perf_counter()
        results, info = parallel_run_with_info(
            circuit, SHOTS, seed=0, workers=workers
        )
        seconds = time.perf_counter() - start
        wall[workers] = seconds
        assert len(results) == SHOTS
        assert info.workers == workers
        assert info.chunks == workers
        records.append(
            bench_record(
                f"shard-throughput-{SHOTS}shots",
                f"workers-{workers}",
                seconds * 1e3,
                shots=SHOTS,
                evolutions=info.evolutions,
                kernel=info.kernel,
            )
        )
    shutdown_pools()
    write_bench_json("parallel", records)
    lines = [
        f"workers={workers}: {wall[workers] * 1e3:8.1f} ms "
        f"({wall[1] / wall[workers]:4.2f}x vs 1 worker)"
        for workers in WORKER_COUNTS
    ]
    write_result(
        "parallel_shard_throughput.txt",
        f"trajectory workload: {circuit.num_qubits} qubits, "
        f"{SHOTS} shots, 8 chunks\n" + "\n".join(lines) + "\n",
    )
    cores = os.cpu_count() or 1
    if cores >= 2:
        assert wall[1] / wall[2] >= 1.5, wall
    if cores >= 4:
        assert wall[1] / wall[4] >= 2.0, wall


def _compile_in_fresh_process(cache_dir) -> dict:
    """One cold-or-warm compile measured inside its own interpreter."""
    probe = (
        "import json, sys, time\n"
        "from repro.evaluation import asdf_kernel\n"
        "kernel = asdf_kernel('grover', 32)\n"
        "start = time.perf_counter()\n"
        "result = kernel.compile(pipeline='default', cache=True)\n"
        "elapsed = time.perf_counter() - start\n"
        "print(json.dumps({'ms': elapsed * 1e3,"
        " 'provenance': result.provenance}))\n"
    )
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_DISK_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_disk_cache_warms_fresh_processes(tmp_path):
    cold = _compile_in_fresh_process(tmp_path)
    warm = _compile_in_fresh_process(tmp_path)
    assert cold["provenance"] == "compiled"
    assert warm["provenance"] == "disk"
    speedup = cold["ms"] / warm["ms"]
    write_bench_json(
        "parallel",
        [
            bench_record(
                "compile-disk-cache-grover-n32", "cold-process", cold["ms"]
            ),
            bench_record(
                "compile-disk-cache-grover-n32", "warm-process", warm["ms"]
            ),
        ],
    )
    write_result(
        "parallel_disk_cache.txt",
        f"grover n=32 compile in a fresh process\n"
        f"cold (empty REPRO_CACHE_DIR): {cold['ms']:8.1f} ms\n"
        f"warm (persisted artifact):    {warm['ms']:8.1f} ms\n"
        f"speedup: {speedup:.1f}x\n",
    )
    assert speedup >= 5.0, (cold, warm)
