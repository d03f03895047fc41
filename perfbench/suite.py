"""One cold pass of the paper's compile suite, in a fresh process.

Usage::

    python perfbench/suite.py --out pass.json [--trace-out trace.json]
                              [--sizes 16,32,64,128] [--setup-only]

Prints ``ready`` once the compiler is imported (the parent times set-up
up to that line), then compiles every ``ALGORITHMS`` x ``--sizes``
program through ``compile_kernel(..., pipeline="default", cache=True)``,
emits QASM3 and QIR, estimates physical resources from each
``decomposed_circuit``, and runs Table 1 (``no-opt`` at n=4).  The
caches are whatever ``REPRO_CACHE_DIR`` holds; the parent gives every
pass a new, empty directory.  With ``--trace-out`` the pass runs under
:func:`repro.obs.trace.trace_to` with per-stage statistics, and the
result carries per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _ops_after(result) -> dict:
    """Instruction counts after each circuit pass of one compile (the
    per-pass deltas need ``collect_statistics``)."""
    decomposed = len(result.decomposed_circuit.instructions)
    strict = result.statistics.entry("peephole{relaxed=false}").ops_delta
    return {
        "ops_after.flatten": len(result.circuit.instructions),
        "ops_after.peephole_relaxed": len(result.optimized_circuit.instructions),
        "ops_after.selinger": decomposed - strict,
        "ops_after.peephole_strict": decomposed,
        "ops_after.fuse": len(result.execution_circuit.instructions),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    parser.add_argument("--sizes", default="16,32,64,128")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import checks
    import layers
    from repro.backends.qir import count_callable_intrinsics
    from repro.evaluation import ALGORITHMS, asdf_kernel
    from repro.obs import metrics, trace
    from repro.pipeline import CompileOptions, compile_kernel
    from repro.resources import estimate_physical_resources

    print("ready", flush=True)
    if args.setup_only:
        return 0

    traced = args.trace_out is not None
    if traced:
        layers.wrap_diskcache()
        options = CompileOptions.preset("default", collect_statistics=True)
    else:
        options = CompileOptions.preset("default")
    sizes = [int(n) for n in args.sizes.split(",")]
    before = layers.parse_exposition(metrics.render())
    rows, failures = [], []
    checks_run = 0
    with trace.trace_to(args.trace_out) if traced else nullcontext() as tracer:
        window_start = time.time() * 1e6
        for algorithm in ALGORITHMS:
            for n in sizes:
                t0 = time.perf_counter()
                result = compile_kernel(
                    asdf_kernel(algorithm, n), options, cache=True
                )
                t1 = time.perf_counter()
                qasm = result.qasm3()
                t2 = time.perf_counter()
                qir = result.qir()
                t3 = time.perf_counter()
                estimate = estimate_physical_resources(
                    result.decomposed_circuit
                )
                t4 = time.perf_counter()
                problem = checks.check_decomposed(result.decomposed_circuit)
                if problem is None and not qasm.startswith("OPENQASM 3"):
                    problem = "QASM3 output lacks its OPENQASM 3 header"
                if problem is None and "define" not in qir:
                    problem = "QIR output defines no function"
                checks_run += 1
                if problem is not None:
                    failures.append(f"{algorithm} n={n}: {problem}")
                rows.append({
                    "algorithm": algorithm,
                    "n": n,
                    "wall_ms": (t4 - t0) * 1e3,
                    "compile_ms": (t1 - t0) * 1e3,
                    "qasm3_ms": (t2 - t1) * 1e3,
                    "qir_ms": (t3 - t2) * 1e3,
                    "estimate_ms": (t4 - t3) * 1e3,
                    "gate_count": len(result.decomposed_circuit.instructions),
                    "runtime_s": estimate.runtime_seconds,
                    "kqubits": estimate.physical_kiloqubits,
                    "ok": problem is None,
                    **(_ops_after(result) if traced else {}),
                })
        window_end = time.time() * 1e6
        window_spans = list(tracer.spans) if traced else []
    after = layers.parse_exposition(metrics.render())

    table1 = []
    for algorithm in ALGORITHMS:
        kernel = asdf_kernel(algorithm, 4)
        noopt = compile_kernel(kernel, pipeline="no-opt")
        opt = compile_kernel(kernel, pipeline="default", cache=True)
        noopt_counts = count_callable_intrinsics(noopt.qir("unrestricted"))
        opt_counts = count_callable_intrinsics(opt.qir("unrestricted"))
        table1.append([algorithm, *noopt_counts, *opt_counts])
        checks_run += 1
        if tuple(opt_counts) != (0, 0):
            failures.append(
                f"Table 1 {algorithm}: ASDF (Opt) has callables {opt_counts}"
            )

    out = {
        "rows": rows,
        "table1": table1,
        "checks_run": checks_run,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "counters": layers.counter_diffs(before, after),
    }
    if traced:
        programs = len(rows)
        spans = layers.in_window(window_spans, window_start, window_end)
        extra = {
            name: sum(row[f"{name}_ms"] for row in rows)
            for name in ("qasm3", "qir", "estimate")
        }
        compile_ms = sum(row["compile_ms"] for row in rows)
        wall_ms = sum(row["wall_ms"] for row in rows)
        per_layer = layers.layer_metrics(
            spans, programs, wall_ms,
            client_ms=wall_ms - compile_ms - sum(extra.values()),
            extra_ms=extra, service=False,
        )
        out["per_layer"] = per_layer
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
