"""The span tracer (repro.obs.trace): nesting, isolation, stitching.

The contract under test, per docs/observability.md:

- spans nest through the contextvar: a span opened inside another
  records it as parent, and ids stay unique;
- tracing off is the no-op fast path: one shared do-nothing span, no
  contextvar traffic, while ``timed_span`` still measures;
- every chunk of a sharded run records its span in the calling
  process, under the dispatch span, in ONE trace;
- the export is loadable Chrome trace-event JSON.
"""

import json
import os
import threading

from repro.algorithms import alternating_secret, bernstein_vazirani
from repro.exec.parallel import parallel_run_with_info
from repro.obs import trace
from repro.pipeline import compile_kernel


def test_span_nesting_records_parent_and_trace_ids():
    tracer = trace.enable_tracing()
    try:
        with trace.span("outer", layer="a"):
            with trace.span("inner", layer="b"):
                pass
    finally:
        trace.disable_tracing()
    outer = tracer.by_name("outer")[0]
    inner = tracer.by_name("inner")[0]
    assert outer["parent_id"] is None
    assert inner["parent_id"] == outer["span_id"]
    assert inner["trace_id"] == outer["trace_id"]
    assert inner["span_id"] != outer["span_id"]
    assert outer["attrs"] == {"layer": "a"}
    assert outer["dur_us"] >= inner["dur_us"] >= 0


def test_span_set_after_exit_updates_the_record():
    trace.enable_tracing()
    try:
        tracer = trace.get_tracer()
        before = len(tracer.spans)
        span = trace.timed_span("work", phase="start")
        with span:
            pass
        span.set(outcome="done")
        record = tracer.spans[before]
        assert record["attrs"]["outcome"] == "done"
        assert span.seconds >= 0
    finally:
        trace.disable_tracing()


def test_error_exits_tag_the_span():
    trace.enable_tracing()
    try:
        tracer = trace.get_tracer()
        try:
            with trace.span("doomed"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert tracer.by_name("doomed")[0]["attrs"]["error"] == "ValueError"
    finally:
        trace.disable_tracing()


def test_disabled_tracing_is_the_shared_noop():
    assert not trace.tracing_enabled()
    assert trace.span("anything", x=1) is trace.span("other")
    assert trace.current_context() is None
    trace.event("ignored")  # must not raise, must not record anywhere
    # timed_span still measures without touching the contextvar.
    span = trace.timed_span("timed")
    with span:
        assert trace.current_ids() is None
    assert span.seconds >= 0


def test_thread_contexts_are_isolated_unless_attached():
    trace.enable_tracing()
    try:
        tracer = trace.get_tracer()
        seen: dict = {}

        def worker(ctx):
            seen["ambient"] = trace.current_ids()
            with trace.attached(ctx):
                with trace.span("threaded"):
                    pass

        with trace.span("parent") as _:
            ctx = trace.current_context()
            thread = threading.Thread(target=worker, args=(ctx,))
            thread.start()
            thread.join()
        # The thread did NOT inherit the parent's context ...
        assert seen["ambient"] is None
        # ... but attaching the shipped context stitched its span in.
        parent = tracer.by_name("parent")[0]
        threaded = tracer.by_name("threaded")[0]
        assert threaded["parent_id"] == parent["span_id"]
        assert threaded["trace_id"] == parent["trace_id"]
    finally:
        trace.disable_tracing()


def test_chunk_spans_stitch_under_the_dispatch_span():
    circuit = compile_kernel(
        bernstein_vazirani(alternating_secret(5))
    ).execution_circuit
    trace.enable_tracing()
    try:
        tracer = trace.get_tracer()
        with trace.span("request"):
            results, info = parallel_run_with_info(
                circuit, 64, seed=3, workers=2
            )
        assert len(results) == 64
        chunk_spans = tracer.by_name("exec.chunk")
        assert len(chunk_spans) == info.chunks
        trace_ids = {span["trace_id"] for span in tracer.spans}
        assert len(trace_ids) == 1  # one stitched trace
        dispatch = tracer.by_name("exec.dispatch")[0]
        assert all(
            span["parent_id"] == dispatch["span_id"]
            for span in chunk_spans
        )
        # Every chunk ran in this process.
        assert {span["pid"] for span in chunk_spans} == {os.getpid()}
    finally:
        trace.disable_tracing()


def test_chrome_export_is_loadable_trace_event_json(tmp_path):
    path = tmp_path / "trace.json"
    with trace.trace_to(path) as tracer:
        with trace.span("compile.kernel", kernel="k"):
            trace.event("fault.inject", kind="worker_crash")
    assert not trace.tracing_enabled()  # restored on exit
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    assert len(events) == len(tracer.spans) == 2
    for event in events:
        assert event["ph"] == "X"
        assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(
            event
        )
    by_name = {event["name"]: event for event in events}
    assert by_name["compile.kernel"]["cat"] == "compile"
    assert by_name["fault.inject"]["dur"] == 0.0
    assert (
        by_name["fault.inject"]["args"]["parent_id"]
        == by_name["compile.kernel"]["args"]["span_id"]
    )
