"""Per-layer attribution: timer wrappers, span aggregation, counter diffs.

The traced run records spans two ways.  The program's own spans
(``compile.kernel``, ``compile.stage``, ``compile.pass``,
``cache.lookup``, ``exec.dispatch``, ``exec.chunk``, ``sim.sweep``,
``service.dequeue``) come from :mod:`repro.obs.trace`.  The layers with
no span of their own are wrapped here with ``bench.*`` spans.
:func:`layer_metrics` folds both into the per-layer metrics that
``BENCHMARK.json`` lists; every time is milliseconds per request (one
request is one compiled program on ``compile-fig11``), and a layer that
does no work on a workload reports 0.
"""

from __future__ import annotations

import functools
import json
import re
from collections import defaultdict

#: Qwerty IR passes of the ``default`` preset (repro.qwerty_ir).
QWERTY_PASSES = ("lift-lambdas", "canonicalize", "specialize", "inline", "dce")

#: Circuit passes (repro.qcircuit), by pass-manager name prefix.
CIRCUIT_PASSES = {
    "peephole{relaxed=true}": "peephole_relaxed",
    "decompose-multi-controlled{scheme=selinger}": "selinger",
    "peephole{relaxed=false}": "peephole_strict",
    "fuse{": "fuse",
}

#: Pseudo-stages timed by ``CompileOptions(collect_statistics=True)``.
STAGES = {"(frontend)": "frontend", "(lower)": "lower", "(flatten)": "flatten"}

#: Counter diffs from the metrics registry: name -> (metric, labels).
COUNTERS = {
    "count.cache.memory.hit": (
        "repro_cache_lookups_total", {"layer": "memory", "outcome": "hit"}),
    "count.cache.memory.miss": (
        "repro_cache_lookups_total", {"layer": "memory", "outcome": "miss"}),
    "count.cache.disk.hit": (
        "repro_cache_lookups_total", {"layer": "disk", "outcome": "hit"}),
    "count.cache.disk.miss": (
        "repro_cache_lookups_total", {"layer": "disk", "outcome": "miss"}),
    "count.compiles.compiled": (
        "repro_compile_kernels_total", {"provenance": "compiled"}),
    "count.compiles.memory": (
        "repro_compile_kernels_total", {"provenance": "memory"}),
    "count.compiles.disk": (
        "repro_compile_kernels_total", {"provenance": "disk"}),
    "count.exec.chunks": ("repro_exec_chunks_total", {}),
    "count.exec.retries": ("repro_exec_retries_total", {}),
    "count.sim.sweeps": ("repro_sim_sweeps_total", {}),
}

_MS = ("ms", "lower")
#: Every per-layer metric: name -> (unit, better).
PER_LAYER = {
    "protocol.parse_ms": _MS,
    "protocol.encode_ms": _MS,
    "protocol.counts_of_ms": _MS,
    "service.queue_wait_ms": _MS,
    "service.resolve_ms": _MS,
    "compile.ms": _MS,
    "cache.memory_hit_ratio": ("ratio", "higher"),
    "cache.compiles_per_kernel": ("ratio", "lower"),
    "diskcache.store_ms": _MS,
    "diskcache.load_ms": _MS,
    "diskcache.bytes": ("bytes", "lower"),
    "frontend.ms": _MS,
    **{f"qwerty_ir.{name}.ms": _MS for name in QWERTY_PASSES},
    "lower.ms": _MS,
    "flatten.ms": _MS,
    **{f"{label}.ms": _MS for label in CIRCUIT_PASSES.values()},
    "ops_after.flatten": ("count", "lower"),
    **{f"ops_after.{label}": ("count", "lower")
       for label in CIRCUIT_PASSES.values()},
    "qasm3.ms": _MS,
    "qir.ms": _MS,
    "estimate.ms": _MS,
    "exec.overhead_ms": _MS,
    "exec.chunks": ("count", "lower"),
    "exec.retries": ("count", "lower"),
    "sim.sweep_ms": _MS,
    "sim.sweeps": ("count", "lower"),
    "unattributed.frac": ("frac", "lower"),
    "client.ms": _MS,
    "trace.overhead_frac": ("frac", "lower"),
    "out.gate_count": ("count", "lower"),
    "out.fig11_runtime_s_geomean": ("s", "lower"),
    "out.fig12_kqubits_geomean": ("kqubits", "lower"),
    **{name: ("count", "higher" if name.endswith(".hit") else "lower")
       for name in COUNTERS},
}


# ----------------------------------------------------------------------
# Timer wrappers (installed only in traced processes).
# ----------------------------------------------------------------------
def wrap(module, attribute: str, span_name: str) -> None:
    """Replace ``module.attribute`` with a version timed by a span."""
    from repro.obs import trace

    original = getattr(module, attribute)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        with trace.span(span_name):
            return original(*args, **kwargs)

    setattr(module, attribute, timed)


def wrap_diskcache() -> None:
    from repro.exec import diskcache

    wrap(diskcache, "load", "bench.disk_load")
    wrap(diskcache, "store", "bench.disk_store")


# ----------------------------------------------------------------------
# Counters: Prometheus exposition -> {(name, labels): value}.
# ----------------------------------------------------------------------
_LINE = re.compile(r"^([A-Za-z_:][\w:]*)(\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> dict:
    series = {}
    for line in text.splitlines():
        match = _LINE.match(line)
        if match is None:
            continue
        labels = tuple(sorted(_LABEL.findall(match.group(3) or "")))
        series[(match.group(1), labels)] = float(match.group(4))
    return series


def counter_diffs(before: dict, after: dict) -> dict:
    """The ``COUNTERS`` selection of ``after - before``."""
    out = {}
    for name, (metric, want) in COUNTERS.items():
        total = 0.0
        for (series, labels), value in after.items():
            if series != metric:
                continue
            present = dict(labels)
            if all(present.get(k) == v for k, v in want.items()):
                total += value - before.get((series, labels), 0.0)
        out[name] = total
    return out


# ----------------------------------------------------------------------
# Spans -> per-layer metrics.
# ----------------------------------------------------------------------
def load_chrome_trace(path) -> list[dict]:
    """Span records from a Chrome trace-event file written by
    :func:`repro.obs.trace.trace_to`, in the tracer's own record shape."""
    with open(path, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    spans = []
    for event in events:
        attrs = dict(event.get("args", {}))
        spans.append({
            "name": event["name"],
            "start_us": event["ts"],
            "dur_us": event["dur"],
            "pid": event["pid"],
            "span_id": attrs.pop("span_id", None),
            "parent_id": attrs.pop("parent_id", None),
            "attrs": attrs,
        })
    return spans


def in_window(spans, start_us: float, end_us: float) -> list[dict]:
    return [s for s in spans if start_us <= s["start_us"] <= end_us]


def _exec_overhead_ms(spans) -> float:
    """Dispatch wall minus the simulation on its critical path.

    A dispatch's chunks may run on several pool workers at once, so the
    simulation that blocks it is the busiest worker's summed sweeps.
    """
    by_id = {s["span_id"]: s for s in spans}
    dispatch_of = {}
    for s in spans:
        if s["name"] == "exec.chunk":
            dispatch_of[s["span_id"]] = s["parent_id"]
    sweep_by_dispatch = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s["name"] == "sim.sweep":
            dispatch = dispatch_of.get(s["parent_id"])
            if dispatch is not None:
                sweep_by_dispatch[dispatch][s["pid"]] += s["dur_us"]
    total = 0.0
    for span_id, span in by_id.items():
        if span["name"] != "exec.dispatch":
            continue
        per_pid = sweep_by_dispatch.get(span_id, {})
        critical = max(per_pid.values(), default=0.0)
        total += span["dur_us"] - critical
    return total / 1e3


def layer_metrics(
    spans,
    requests: int,
    wall_ms: float,
    client_ms: float,
    extra_ms: "dict | None" = None,
    *,
    service: bool,
) -> dict:
    """Per-layer metrics from one measured window's spans.

    ``wall_ms`` is the summed latency of the window's ``requests``;
    ``client_ms`` the load generator's own summed cost; ``extra_ms``
    carries layers the caller timed itself (``qasm3``, ``qir``,
    ``estimate``), as totals.  Counters and ``ops_after`` are filled in
    by the caller.  ``service`` selects which spans are the disjoint
    top-level parts of a request when computing ``unattributed.frac``.
    """
    per = max(requests, 1)
    total = defaultdict(float)  # span key -> summed ms
    calls = defaultdict(int)
    queue_ms = 0.0
    for s in spans:
        name, attrs, ms = s["name"], s["attrs"], s["dur_us"] / 1e3
        if name == "compile.pass":
            key = ("pass", attrs.get("pass"))
        elif name == "compile.stage":
            key = ("stage", attrs.get("stage"))
        elif name == "cache.lookup":
            key = ("lookup", attrs.get("layer"))
        elif name == "service.dequeue":
            queue_ms += float(attrs.get("queued_s", 0.0)) * 1e3
            continue
        else:
            key = name
        total[key] += ms
        calls[key] += 1
    extra = dict(extra_ms or {})

    def mean(key):
        return total[key] / calls[key] if calls[key] else 0.0

    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "protocol.parse_ms": total["bench.parse"] / per,
        "protocol.encode_ms": total["bench.encode"] / per,
        "protocol.counts_of_ms": total["bench.counts_of"] / per,
        "service.queue_wait_ms": queue_ms / per,
        "service.resolve_ms": total["bench.resolve"] / per,
        "compile.ms": mean("compile.kernel"),
        "diskcache.store_ms": mean("bench.disk_store"),
        "diskcache.load_ms": mean("bench.disk_load"),
        "exec.overhead_ms": _exec_overhead_ms(spans) / per,
        "sim.sweep_ms": total["sim.sweep"] / per,
        "sim.sweeps": calls["sim.sweep"] / per,
        "client.ms": client_ms / per,
    })
    for stage, label in STAGES.items():
        out[f"{label}.ms"] = total[("stage", stage)] / per
    for name in QWERTY_PASSES:
        out[f"qwerty_ir.{name}.ms"] = total[("pass", name)] / per
    for prefix, label in CIRCUIT_PASSES.items():
        out[f"{label}.ms"] = sum(
            v for k, v in total.items()
            if isinstance(k, tuple) and k[0] == "pass"
            and str(k[1]).startswith(prefix)
        ) / per
    for name in ("qasm3", "qir", "estimate"):
        out[f"{name}.ms"] = extra.get(name, 0.0) / per

    if service:
        covered = queue_ms + sum(
            total[key] for key in (
                "bench.parse", "bench.resolve", "compile.kernel",
                "exec.dispatch", "bench.counts_of", "bench.encode",
            )
        )
    else:
        # In-process compile: stages, passes and cache layers are the
        # top-level work of each program.
        covered = (
            sum(v for k, v in total.items()
                if isinstance(k, tuple) and k[0] in ("stage", "pass"))
            + total[("lookup", "memory")]
            + total["bench.disk_load"] + total["bench.disk_store"]
            + sum(extra.values())
        )
    covered += client_ms
    out["unattributed.frac"] = 1.0 - covered / wall_ms if wall_ms else 0.0
    return out
