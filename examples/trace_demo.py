"""One stitched trace across compile -> execute -> serve.

Drives a noisy teleportation request through the in-process
:class:`~repro.service.service.ServiceClient` with tracing on and a
deterministic ``worker_crash`` fault plan chosen (by pure seed search
— fault decisions are pure functions of ``(seed, kind, site key)``)
so that exactly the retry path runs.  The exported file is Chrome
trace-event JSON: open it in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing`` to see the request span with its compile passes,
cache lookups, chunk executions, the injected crash, and the retry
that absorbed it.

The CI ``service-smoke`` job runs this as an end-to-end probe that a
single request yields a single stitched trace with every span kind the
observability layer promises (docs/observability.md)::

    PYTHONPATH=src python examples/trace_demo.py --out trace.json

``--fig11`` instead traces the evaluation-suite workload (one service
request per paper-benchmark algorithm) without fault injection — the
trace the CI ``benchmark-smoke`` job uploads as a Perfetto artifact.
"""

import argparse
import asyncio
import json
import os
import tempfile

from repro.exec.faults import FaultPlan, chunk_fault_key
from repro.exec.parallel import chunk_plan, derive_chunk_seeds
from repro.exec.retry import RetryPolicy
from repro.obs import trace
from repro.service.service import (
    ExecutionService,
    ServiceClient,
    ServiceConfig,
)

TELEPORT_SOURCE = """
from repro import bit, qpu

@qpu
def teleport_minus() -> bit:
    alice, bob = 'p0' | '1' & std.flip  # noqa
    m_pm, m_std = 'm' + alice | '1' & std.flip | (pm + std).measure  # noqa
    out = bob | (std.flip if m_std else id) | (pm.flip if m_pm else id)  # noqa
    return out | pm.measure  # noqa
"""

SHOTS = 256
SEED = 7
WORKERS = 2

#: The span vocabulary one traced service request must produce
#: (docs/observability.md) — the acceptance bar for this demo.
EXPECTED_KINDS = {
    "service.request",
    "compile.pass",
    "cache.lookup",
    "exec.chunk",
    "retry.attempt",
    "sim.sweep",
}


def find_fault_plan() -> FaultPlan:
    """A ``worker_crash`` plan that deterministically crashes at least
    one chunk's first attempt and lets every retry succeed.

    Fault decisions are pure functions of ``(seed, kind, chunk seed @
    attempt)``, so the right plan seed can be *searched for* without
    running anything — the demo is deterministic end to end.
    """
    sizes = chunk_plan(SHOTS, WORKERS)
    seeds = derive_chunk_seeds(SEED, len(sizes))
    for fault_seed in range(10_000):
        plan = FaultPlan(rates={"worker_crash": 0.3}, seed=fault_seed)
        first = [
            plan.should("worker_crash", chunk_fault_key(s, 0))
            for s in seeds
        ]
        second = [
            plan.should("worker_crash", chunk_fault_key(s, 1))
            for s in seeds
        ]
        if any(first) and not any(second):
            return plan
    raise SystemExit("no suitable fault seed in 10k candidates")


async def run_teleport(plan: FaultPlan) -> dict:
    config = ServiceConfig(
        executors=1,
        parallel_workers=WORKERS,
        use_processes=False,
        retry=RetryPolicy(max_attempts=3, budget=8, timeout=None),
        fault_plan=plan,
    )
    async with ExecutionService(config) as service:
        client = ServiceClient(service)
        response = await client.run(
            id="trace-demo",
            source=TELEPORT_SOURCE,
            shots=SHOTS,
            seed=SEED,
            workers=WORKERS,
            noise={"depolarizing": 0.01},
            deadline=120.0,
        )
        exposition = (await client.metrics())["result"]["exposition"]
    if not response.get("ok"):
        raise SystemExit(f"run failed: {response}")
    assert sum(response["result"]["counts"].values()) == SHOTS, response
    if response["result"]["info"]["retries"] < 1:
        raise SystemExit(
            f"expected the injected crash to cost a retry: {response}"
        )
    assert "repro_service_events_total" in exposition
    return response


async def run_fig11() -> int:
    from repro.evaluation import ALGORITHMS

    config = ServiceConfig(
        executors=2, parallel_workers=WORKERS, use_processes=False
    )
    requests = 0
    async with ExecutionService(config) as service:
        client = ServiceClient(service)
        for name in ALGORITHMS:
            response = await client.run(
                id=f"fig11-{name}",
                kernel=name,
                n=5,
                shots=128,
                seed=11,
                deadline=120.0,
            )
            if not response.get("ok"):
                raise SystemExit(f"{name} failed: {response}")
            requests += 1
    return requests


def check_chrome_format(path: str) -> int:
    """The exported file must be loadable Chrome trace-event JSON."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    events = payload["traceEvents"]
    required = {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
    assert events, "empty trace"
    assert all(required <= set(event) for event in events), events[0]
    return len(events)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.environ.get(trace.TRACE_ENV) or "trace_demo.json",
        help="Chrome trace-event JSON output path",
    )
    parser.add_argument(
        "--fig11",
        action="store_true",
        help="trace the evaluation-suite workload instead of the "
        "fault-injected teleport request",
    )
    args = parser.parse_args(argv)

    # Hermetic compile cache: a warm disk cache from a previous run
    # would serve the kernel without running a single pass, and the
    # compile.pass span-kind assertion below would fail — the demo
    # must trace a *real* compilation every time.
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(
        prefix="repro-trace-demo-"
    )

    with trace.trace_to(args.out) as tracer:
        if args.fig11:
            requests = asyncio.run(run_fig11())
        else:
            asyncio.run(run_teleport(find_fault_plan()))

    events = check_chrome_format(args.out)
    if args.fig11:
        print(
            f"fig11 workload traced: {requests} requests, "
            f"{events} events -> {args.out}"
        )
        return 0

    kinds = tracer.kinds()
    missing = EXPECTED_KINDS - kinds
    assert not missing, f"missing span kinds: {sorted(missing)}"
    trace_ids = {span["trace_id"] for span in tracer.spans}
    assert len(trace_ids) == 1, (
        f"expected one stitched trace, got {len(trace_ids)}"
    )
    print(
        f"one stitched trace ({next(iter(trace_ids))}): {events} events, "
        f"{len(kinds)} span kinds -> {args.out}"
    )
    print("  kinds:", " ".join(sorted(kinds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
