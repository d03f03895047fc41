"""One counting substrate: metrics, ``stats()``, and cache info agree.

The service's ``stats()`` counters are *derived from* the metric
registry (not kept in parallel dicts), and the compile-cache layers
increment the same ``repro_cache_lookups_total`` counter their own
info dicts report — so the Prometheus exposition, the stats op, and
``compile_cache_info()`` can never tell different stories.  These
tests pin that reconciliation exactly, per docs/observability.md.
"""

import asyncio
import re

from repro.algorithms import alternating_secret, bernstein_vazirani
from repro.obs import metrics, trace
from repro.pipeline import (
    clear_compile_cache,
    compile_cache_info,
    compile_kernel,
)
from repro.service import ExecutionService, ServiceClient, ServiceConfig

N = 4
SHOTS = 32


def make_config(**overrides) -> ServiceConfig:
    defaults = dict(use_processes=False, parallel_workers=2, executors=1)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def parse_exposition(text: str, name: str) -> dict:
    """``{label-tuple-or-(): value}`` for one metric family."""
    series = {}
    pattern = re.compile(
        rf"^{re.escape(name)}(?:{{(?P<labels>[^}}]*)}})? (?P<value>\S+)$"
    )
    for line in text.splitlines():
        match = pattern.match(line)
        if match:
            labels = tuple(
                part.split("=", 1)[1].strip('"')
                for part in (match["labels"] or "").split(",")
                if part
            )
            series[labels] = float(match["value"])
    return series


def test_service_stats_and_exposition_reconcile_exactly():
    async def scenario():
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            for index in range(2):
                response = await client.run(
                    id=f"eq-{index}",
                    kernel="bv",
                    n=N,
                    shots=SHOTS,
                    seed=index,
                )
                assert response["ok"], response
            bad = await client.run(id="eq-bad", kernel="no_such", n=N)
            assert not bad.get("ok")
            stats = (await client.stats())["result"]
            exposition = (await client.metrics())["result"]
        return stats, exposition, service._label

    stats, exposition, label = asyncio.run(scenario())

    assert exposition["content_type"].startswith("text/plain")
    text = exposition["exposition"]
    events = parse_exposition(text, "repro_service_events_total")
    for event, value in stats["counters"].items():
        if event == "received":
            # The metrics request itself arrived after stats was
            # captured — the one permissible skew, and exactly one.
            assert events[(label, event)] == value + 1
        else:
            assert events.get((label, event), 0) == value, event
    assert stats["counters"]["completed"] == 2
    assert stats["counters"]["failed"] == 1

    errors = parse_exposition(text, "repro_service_errors_total")
    assert {
        key[1]: int(value)
        for key, value in errors.items()
        if key[0] == label
    } == stats["error_codes"]

    latency = parse_exposition(text, "repro_service_request_seconds_count")
    assert latency[(label,)] == stats["counters"]["completed"]


def test_fresh_service_instances_do_not_share_series():
    async def run_one(request_id):
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            response = await client.run(
                id=request_id, kernel="bv", n=N, shots=SHOTS, seed=1
            )
            assert response["ok"], response
            return (await client.stats())["result"]["counters"]

    first = asyncio.run(run_one("inst-a"))
    second = asyncio.run(run_one("inst-b"))
    # Each instance label starts from zero even though the process-wide
    # registry keeps accumulating across instances.
    assert first["completed"] == second["completed"] == 1
    assert first["received"] == second["received"] == 2  # run + stats


def test_cache_info_and_cache_counter_agree_on_deltas():
    lookups = metrics.counter(
        "repro_cache_lookups_total",
        labels=("layer", "outcome"),
    )

    def memory_series():
        return {
            outcome: lookups.value(layer="memory", outcome=outcome)
            for outcome in ("hit", "miss")
        }

    clear_compile_cache()
    before = memory_series()
    kernel = bernstein_vazirani(alternating_secret(N))
    compile_kernel(kernel, cache=True)
    compile_kernel(kernel, cache=True)
    info = compile_cache_info()
    after = memory_series()

    assert after["miss"] - before["miss"] == info["misses"] == 1
    assert after["hit"] - before["hit"] == info["hits"] == 1
    # The disk layer counts corrupt entries as misses in its info dict;
    # the metric keeps the outcomes apart.  Reconcile accordingly.
    disk = {
        outcome: lookups.value(layer="disk", outcome=outcome)
        for outcome in ("hit", "miss", "corrupt")
    }
    assert disk["hit"] >= info["disk"]["hits"]  # registry is process-wide
    assert disk["miss"] + disk["corrupt"] >= (
        info["disk"]["misses"]
    )


def test_compiles_counter_tracks_provenance():
    compiles = metrics.counter(
        "repro_compile_kernels_total", labels=("provenance",)
    )
    clear_compile_cache()
    before = {
        key: compiles.value(provenance=key)
        for key in ("compiled", "memory", "disk")
    }
    kernel = bernstein_vazirani(alternating_secret(N + 1))
    first = compile_kernel(kernel, cache=True)
    # Capture before the second call: a memory hit returns (and
    # re-stamps) the same cached object.
    first_provenance = first.provenance
    second = compile_kernel(kernel, cache=True)
    # A cleared memory cache forces the first call past it; whether it
    # recompiles or restores from disk depends on suite history.
    assert first_provenance in ("compiled", "disk")
    assert compiles.value(
        provenance=first_provenance
    ) - before[first_provenance] >= 1
    assert second.provenance == "memory"
    assert compiles.value(provenance="memory") - before["memory"] == 1


def test_noop_path_records_nothing_when_disabled():
    assert not trace.tracing_enabled()
    with metrics.disabled():
        lookups = metrics.counter(
            "repro_cache_lookups_total",
            labels=("layer", "outcome"),
        )
        before = lookups.value(layer="memory", outcome="miss")
        clear_compile_cache()
        compile_kernel(
            bernstein_vazirani(alternating_secret(N)), cache=True
        )
        assert lookups.value(layer="memory", outcome="miss") == before
    assert trace.current_context() is None


def test_warm_requests_count_one_story():
    # A warm request makes one compile lookup and one marginal-memo
    # lookup, dispatches once, plans its chunks and evolves nothing;
    # stats and the exposition agree on the compile hits.
    requests = 5
    fields = dict(kernel="grover", n=N, shots=SHOTS)

    def series():
        text = metrics.render()
        return {
            "compile_hits": parse_exposition(
                text, "repro_cache_lookups_total"
            ).get(("memory", "hit"), 0),
            "memo_hits": parse_exposition(
                text, "repro_sim_marginal_memo_total"
            ).get(("hit",), 0),
            "memo_misses": parse_exposition(
                text, "repro_sim_marginal_memo_total"
            ).get(("miss",), 0),
            "dispatches": parse_exposition(
                text, "repro_exec_dispatches_total"
            ).get((), 0),
            "chunks": parse_exposition(
                text, "repro_exec_chunks_total"
            ).get((), 0),
            "sweeps": sum(
                parse_exposition(text, "repro_sim_sweeps_total").values()
            ),
        }

    async def scenario():
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            cold = await client.run(id="cold", seed=0, **fields)
            assert cold["ok"], cold
            stats_before = (await client.stats())["result"]
            before = series()
            for index in range(requests):
                response = await client.run(id=index, seed=index, **fields)
                assert response["ok"], response
            after = series()
            stats = (await client.stats())["result"]
            exposition = (await client.metrics())["result"]["exposition"]
        return cold, before, after, stats_before, stats, exposition, (
            service._label
        )

    cold, before, after, stats_before, stats, exposition, label = (
        asyncio.run(scenario())
    )
    chunks = cold["result"]["info"]["chunks"]
    assert chunks == 2
    delta = {key: after[key] - before[key] for key in before}
    assert delta == {
        "compile_hits": requests,
        "memo_hits": requests,
        "memo_misses": 0,
        "dispatches": requests,
        "chunks": requests * chunks,
        "sweeps": 0,
    }
    # stats reads the same series (compile hits since the last cache
    # clear, completions of this service instance).
    hits = stats["compile_cache"]["memory_hits"]
    assert hits - stats_before["compile_cache"]["memory_hits"] == requests
    completed = stats["counters"]["completed"]
    assert completed - stats_before["counters"]["completed"] == requests
    # The service updates bound series; stats still reads exactly what
    # the exposition shows.
    events = parse_exposition(exposition, "repro_service_events_total")
    for event, value in stats["counters"].items():
        # The metrics request arrived after stats was captured.
        skew = 1 if event == "received" else 0
        assert events.get((label, event), 0) == value + skew, event
    latency = parse_exposition(
        exposition, "repro_service_request_seconds_count"
    )
    assert latency[(label,)] == completed
    depth = parse_exposition(exposition, "repro_service_queue_depth")
    assert depth[(label,)] == stats["queue_depth"] == 0


def test_traced_warm_request_has_a_sweep_under_its_dispatch():
    fields = dict(kernel="simon", n=N, shots=SHOTS, seed=3)

    async def scenario():
        async with ExecutionService(make_config()) as service:
            client = ServiceClient(service)
            assert (await client.run(id="cold", **fields))["ok"]
            tracer = trace.enable_tracing()
            try:
                response = await client.run(id="warm", **fields)
            finally:
                trace.disable_tracing()
        return response, tracer

    response, tracer = asyncio.run(scenario())
    assert response["ok"], response
    [dispatch] = tracer.by_name("exec.dispatch")
    [sweep] = tracer.by_name("sim.sweep")
    assert tracer.by_name("exec.chunk") == []
    assert sweep["parent_id"] == dispatch["span_id"]
    assert dispatch["attrs"]["chunks"] == 2
    assert sweep["attrs"]["engine"] == "fast-path"
    assert sweep["attrs"]["memo"] == "hit"
    [execute] = tracer.by_name("service.execute")
    assert dispatch["parent_id"] == execute["span_id"]
