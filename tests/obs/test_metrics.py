"""The metric registry (repro.obs.metrics): math and exposition.

Pins down the Prometheus-compatible behaviors other layers rely on:
``le``-inclusive histogram buckets, cumulative exposition, idempotent
registration with conflict rejection, the global disable switch, and
deterministic text output (the golden test).
"""

import pytest

from repro.obs import metrics


@pytest.fixture()
def fresh():
    metrics.reset_metrics()
    yield
    metrics.reset_metrics()


def test_counter_accumulates_per_label_set(fresh):
    counter = metrics.counter(
        "test_events_total", "events", labels=("kind",)
    )
    counter.inc(kind="a")
    counter.inc(2, kind="a")
    counter.inc(kind="b")
    assert counter.value(kind="a") == 3
    assert counter.value(kind="b") == 1
    assert counter.value(kind="missing") == 0


def test_counter_rejects_decrease_and_wrong_labels(fresh):
    counter = metrics.counter(
        "test_events_total", "events", labels=("kind",)
    )
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1, kind="a")
    with pytest.raises(ValueError, match="takes labels"):
        counter.inc(wrong="a")
    with pytest.raises(ValueError, match="takes labels"):
        counter.inc()


def test_gauge_set_inc_dec(fresh):
    gauge = metrics.gauge("test_depth")
    gauge.set(5)
    gauge.inc(2)
    gauge.dec()
    assert gauge.value() == 6


def test_histogram_buckets_are_le_inclusive(fresh):
    histogram = metrics.histogram(
        "test_latency_seconds", "latency", buckets=(0.1, 1.0, 10.0)
    )
    histogram.observe(0.1)   # == bound: lands IN the 0.1 bucket
    histogram.observe(0.100001)  # just over: next bucket
    histogram.observe(50.0)  # beyond the last bound: +Inf bucket
    cell = metrics.snapshot()["test_latency_seconds"][()]
    assert cell["count"] == 3
    assert cell["sum"] == pytest.approx(50.200001)
    # Cumulative counts for bounds (0.1, 1.0, 10.0, +Inf).
    assert cell["buckets"] == [1, 2, 2, 3]


def test_histogram_quantile_interpolates(fresh):
    histogram = metrics.histogram(
        "test_latency_seconds", "latency", buckets=(0.1, 1.0, 10.0)
    )
    for value in (0.05, 0.5, 5.0, 5.0):
        histogram.observe(value)
    assert histogram.quantile(0.5) == pytest.approx(1.0)
    assert histogram.quantile(1.0) == pytest.approx(10.0)
    assert metrics.histogram("test_other", buckets=(1,)).quantile(0.5) is (
        None
    )
    with pytest.raises(ValueError, match="quantile"):
        histogram.quantile(1.5)


def test_registration_is_idempotent_but_conflicts_raise(fresh):
    counter = metrics.counter("test_events_total", labels=("kind",))
    assert metrics.counter("test_events_total", labels=("kind",)) is counter
    with pytest.raises(ValueError, match="already registered"):
        metrics.gauge("test_events_total", labels=("kind",))
    with pytest.raises(ValueError, match="already registered"):
        metrics.counter("test_events_total", labels=("other",))
    histogram = metrics.histogram("test_seconds", buckets=(1.0, 2.0))
    with pytest.raises(ValueError, match="buckets"):
        metrics.histogram("test_seconds", buckets=(1.0, 5.0))
    assert metrics.histogram("test_seconds", buckets=(1.0, 2.0)) is (
        histogram
    )


def test_invalid_names_and_buckets_rejected(fresh):
    with pytest.raises(ValueError, match="invalid metric name"):
        metrics.counter("0bad-name")
    with pytest.raises(ValueError, match="invalid label name"):
        metrics.counter("test_ok", labels=("bad-label",))
    with pytest.raises(ValueError, match="buckets"):
        metrics.histogram("test_h1", buckets=())
    with pytest.raises(ValueError, match="buckets"):
        metrics.histogram("test_h2", buckets=(2.0, 1.0))
    with pytest.raises(ValueError, match="buckets"):
        metrics.histogram("test_h3", buckets=(float("inf"),))


def test_disabled_suppresses_every_update(fresh):
    counter = metrics.counter("test_dis_events_total", labels=("kind",))
    gauge = metrics.gauge("test_dis_depth")
    histogram = metrics.histogram("test_dis_seconds", buckets=(1.0,))
    with metrics.disabled():
        counter.inc(kind="a")
        gauge.set(9)
        histogram.observe(0.5)
    assert counter.value(kind="a") == 0
    assert gauge.value() == 0
    assert histogram.count() == 0
    counter.inc(kind="a")  # re-enabled on exit
    assert counter.value(kind="a") == 1


def test_bound_children_render_what_keyword_updates_render(fresh):
    def record(bind: bool) -> str:
        metrics.reset_metrics()
        counter = metrics.counter(
            "test_bound_total", "bound", labels=("layer", "outcome")
        )
        gauge = metrics.gauge("test_bound_depth", labels=("service",))
        histogram = metrics.histogram(
            "test_bound_seconds", labels=("service",), buckets=(0.5, 1.0)
        )
        if bind:
            hit = counter.labels(layer="memory", outcome="hit")
            hit.inc()
            hit.inc(2)
            counter.labels(outcome="miss", layer="memory").inc()
            depth = gauge.labels(service="1")
            depth.set(4)
            depth.inc()
            latency = histogram.labels(service="1")
            for value in (0.25, 0.75, 2.0):
                latency.observe(value)
        else:
            counter.inc(layer="memory", outcome="hit")
            counter.inc(2, layer="memory", outcome="hit")
            counter.inc(layer="memory", outcome="miss")
            gauge.set(4, service="1")
            gauge.inc(service="1")
            for value in (0.25, 0.75, 2.0):
                histogram.observe(value, service="1")
        return "\n".join(
            line
            for line in metrics.render().splitlines()
            if "test_bound_" in line
        )

    assert record(bind=True) == record(bind=False)
    counter = metrics.instruments()["test_bound_total"]
    assert counter.value(layer="memory", outcome="hit") == 3


def test_bound_children_validate_once_and_keep_the_counter_rules(fresh):
    counter = metrics.counter("test_bind_total", labels=("kind",))
    with pytest.raises(ValueError, match="takes labels"):
        counter.labels(wrong="a")
    with pytest.raises(ValueError, match="takes labels"):
        counter.labels()
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.labels(kind="a").inc(-1)
    plain = metrics.counter("test_bind_plain_total")
    plain.labels().inc(5)
    assert plain.value() == 5


def test_bound_children_honour_disabled_and_clear(fresh):
    counter = metrics.counter("test_bchild_total", labels=("kind",))
    gauge = metrics.gauge("test_bchild_depth")
    histogram = metrics.histogram("test_bchild_seconds", buckets=(1.0,))
    hit, depth, latency = (
        counter.labels(kind="a"), gauge.labels(), histogram.labels()
    )
    with metrics.disabled():
        hit.inc()
        depth.set(9)
        latency.observe(0.5)
    assert counter.value(kind="a") == 0
    assert gauge.value() == 0
    assert histogram.count() == 0
    hit.inc()
    depth.set(3)
    latency.observe(0.5)
    metrics.reset_metrics()
    assert counter.value(kind="a") == 0
    assert gauge.value() == 0
    assert histogram.count() == 0
    # A child bound before the clear still updates the live series.
    hit.inc(2)
    depth.set(7)
    latency.observe(2.0)
    counter.clear()
    hit.inc()
    assert counter.value(kind="a") == 1
    assert gauge.value() == 7
    assert histogram.count() == 1 and histogram.sum() == 2.0


def test_exposition_golden_format(fresh):
    counter = metrics.counter(
        "golden_cache_lookups_total",
        "Cache lookups by outcome",
        labels=("layer", "outcome"),
    )
    counter.inc(layer="memory", outcome="miss")
    counter.inc(3, layer="memory", outcome="hit")
    gauge = metrics.gauge("golden_queue_depth", "Queued requests")
    gauge.set(2)
    histogram = metrics.histogram(
        "golden_request_seconds", "Latency", buckets=(0.5, 1.0)
    )
    histogram.observe(0.25)
    histogram.observe(0.75)
    text = metrics.render()
    expected = (
        "# HELP golden_cache_lookups_total Cache lookups by outcome\n"
        "# TYPE golden_cache_lookups_total counter\n"
        'golden_cache_lookups_total{layer="memory",outcome="hit"} 3\n'
        'golden_cache_lookups_total{layer="memory",outcome="miss"} 1\n'
        "# HELP golden_queue_depth Queued requests\n"
        "# TYPE golden_queue_depth gauge\n"
        "golden_queue_depth 2\n"
        "# HELP golden_request_seconds Latency\n"
        "# TYPE golden_request_seconds histogram\n"
        'golden_request_seconds_bucket{le="0.5"} 1\n'
        'golden_request_seconds_bucket{le="1"} 2\n'
        'golden_request_seconds_bucket{le="+Inf"} 2\n'
        "golden_request_seconds_sum 1\n"
        "golden_request_seconds_count 2\n"
    )
    # Only assert over this test's metrics: the process registry also
    # holds the instrumented layers' series.
    lines = [
        line for line in text.splitlines() if "golden_" in line
    ]
    assert "\n".join(lines) + "\n" == expected
    assert text.endswith("\n")


def test_reset_keeps_registrations_and_zeroes_series(fresh):
    counter = metrics.counter("test_events_total", labels=("kind",))
    counter.inc(kind="a")
    metrics.reset_metrics()
    assert counter.value(kind="a") == 0
    assert metrics.counter("test_events_total", labels=("kind",)) is (
        counter
    )
    assert "test_events_total" in metrics.instruments()
