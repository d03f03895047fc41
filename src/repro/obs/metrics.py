"""Process-wide metric instruments with Prometheus-style exposition.

A flat registry of named instruments — :class:`Counter`,
:class:`Gauge`, and fixed-bucket :class:`Histogram` — each carrying
zero or more labels, rendered as Prometheus text-format exposition
(the service's ``op: "metrics"`` endpoint) and snapshotted as plain
dicts for tests.  Naming convention: ``repro_<layer>_<name>``
(docs/observability.md).

Registration is idempotent: requesting an existing name with the same
type and label set returns the existing instrument (so module-level
instruments in code imported twice, or per-instance service labels,
just work), while a conflicting re-registration raises — two meanings
for one name is a bug, not a merge.

All updates are O(1) dict operations under a per-instrument lock;
:func:`disabled` turns every update into an early return (used by the
``BENCH_obs.json`` overhead benchmark to price the instrumentation
itself, and available to latency-critical embedders).  A hot path binds
its label values once with ``instrument.labels(**labels)``: the bound
child's ``inc`` / ``set`` / ``observe`` update the same series without
validating or rebuilding the label key on every call.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional, Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): 1ms .. 10s, roughly log-spaced.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_REGISTRY: "dict[str, _Instrument]" = {}
_REGISTRY_LOCK = threading.Lock()

#: Global kill switch: False turns every inc/set/observe into an
#: early return.  Toggled by :func:`disabled` / :func:`set_enabled`.
_ENABLED = True


class _Instrument:
    """Shared base: name/help/label plumbing and the series store."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(
                    f"invalid label name {label!r} for metric {name!r}"
                )
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: dict = {}
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object]) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}, got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def labels(self, **labels) -> "Bound":
        """The series for these label values, validated once: its
        updates skip the per-call label check and key build, and still
        honour :func:`disabled` and :meth:`clear`."""
        return Bound(self, self._key(labels))

    def series(self) -> dict:
        """Label-tuple -> value snapshot (scalar, or histogram cell)."""
        with self._lock:
            return {
                key: (dict(value) if isinstance(value, dict) else value)
                for key, value in self._series.items()
            }

    def clear(self) -> None:
        with self._lock:
            self._series.clear()


class Counter(_Instrument):
    """A monotonically increasing sum (events, retries, cache hits)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if _ENABLED:
            self._inc(self._key(labels), amount)

    def _inc(self, key: tuple, amount: float) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return float(self._series.get(self._key(labels), 0.0))


class Gauge(_Instrument):
    """A settable point-in-time value (queue depth, pool size)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        if _ENABLED:
            self._set(self._key(labels), value)

    def _set(self, key: tuple, value: float) -> None:
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if _ENABLED:
            self._inc(self._key(labels), amount)

    def _inc(self, key: tuple, amount: float) -> None:
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return float(self._series.get(self._key(labels), 0.0))


class Histogram(_Instrument):
    """A fixed-bucket distribution (request latency).

    Buckets are upper bounds with ``le`` (<=) semantics, exactly like
    Prometheus: an observation equal to a bound lands *in* that
    bucket, and exposition renders cumulative ``_bucket`` counts plus
    ``_sum`` and ``_count`` series (with an implicit ``+Inf`` bucket).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            not math.isfinite(b) for b in bounds
        ) or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} buckets must be finite, unique, "
                f"and sorted, got {buckets!r}"
            )
        self.buckets = bounds

    def _cell(self, key: tuple) -> dict:
        cell = self._series.get(key)
        if cell is None:
            cell = {
                "counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
            self._series[key] = cell
        return cell

    def observe(self, value: float, **labels) -> None:
        if _ENABLED:
            self._observe(self._key(labels), value)

    def _observe(self, key: tuple, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            cell = self._cell(key)
            cell["counts"][index] += 1
            cell["sum"] += value
            cell["count"] += 1

    def count(self, **labels) -> int:
        cell = self._series.get(self._key(labels))
        return int(cell["count"]) if cell else 0

    def sum(self, **labels) -> float:
        cell = self._series.get(self._key(labels))
        return float(cell["sum"]) if cell else 0.0

    def quantile(self, q: float, **labels) -> Optional[float]:
        """A bucket-interpolated quantile estimate (p50/p99 reports).

        Linear interpolation within the bucket containing the target
        rank; observations beyond the last finite bound clamp to it.
        ``None`` with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        cell = self._series.get(self._key(labels))
        if not cell or not cell["count"]:
            return None
        target = q * cell["count"]
        cumulative = 0
        lower = 0.0
        for bound, bucket_count in zip(self.buckets, cell["counts"]):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                if not bucket_count:
                    return lower
                fraction = (target - previous) / bucket_count
                return lower + (bound - lower) * fraction
            lower = bound
        return self.buckets[-1]


class Bound:
    """One labelled series of an instrument, from
    :meth:`~_Instrument.labels`.  It offers the updates its
    instrument's kind has (``inc`` on a counter, ``set`` / ``inc`` on a
    gauge, ``observe`` on a histogram) without label arguments."""

    __slots__ = ("instrument", "key")

    def __init__(self, instrument: _Instrument, key: tuple) -> None:
        self.instrument = instrument
        self.key = key

    def inc(self, amount: float = 1.0) -> None:
        if _ENABLED:
            self.instrument._inc(self.key, amount)

    def set(self, value: float) -> None:
        if _ENABLED:
            self.instrument._set(self.key, value)

    def observe(self, value: float) -> None:
        if _ENABLED:
            self.instrument._observe(self.key, value)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
def _register(cls, name: str, help: str, labels: Sequence[str], **extra):
    with _REGISTRY_LOCK:
        existing = _REGISTRY.get(name)
        if existing is not None:
            if type(existing) is not cls or (
                existing.labelnames != tuple(labels)
            ):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels "
                    f"{list(existing.labelnames)}"
                )
            return existing
        instrument = cls(name, help, labels, **extra)
        _REGISTRY[name] = instrument
        return instrument


def counter(
    name: str, help: str = "", labels: Sequence[str] = ()
) -> Counter:
    """Get-or-create the :class:`Counter` named ``name``."""
    return _register(Counter, name, help, labels)


def gauge(name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
    """Get-or-create the :class:`Gauge` named ``name``."""
    return _register(Gauge, name, help, labels)


def histogram(
    name: str,
    help: str = "",
    labels: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> Histogram:
    """Get-or-create the :class:`Histogram` named ``name``."""
    instrument = _register(Histogram, name, help, labels, buckets=buckets)
    if instrument.buckets != tuple(float(b) for b in buckets):
        raise ValueError(
            f"histogram {name!r} already registered with buckets "
            f"{instrument.buckets}"
        )
    return instrument


def instruments() -> "dict[str, _Instrument]":
    """The live registry (name -> instrument), for introspection."""
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


def reset_metrics() -> None:
    """Zero every series while keeping registrations (test isolation:
    module-level instrument handles stay valid)."""
    with _REGISTRY_LOCK:
        for instrument in _REGISTRY.values():
            instrument.clear()


def counts_since(
    now: Mapping[str, float], base: Mapping[str, float]
) -> dict[str, int]:
    """Integer counter deltas of ``now`` against a ``base`` snapshot
    (views such as ``compile_cache_info()`` report counts since their
    last reset this way).  A reading below its baseline means the
    series was zeroed meanwhile (:func:`reset_metrics`), so it counts
    from zero instead."""
    deltas = {}
    for key, value in now.items():
        start = base.get(key, 0.0)
        deltas[key] = int(value - start if value >= start else value)
    return deltas


def set_enabled(flag: bool) -> None:
    """Globally enable/disable metric updates."""
    global _ENABLED
    _ENABLED = bool(flag)


@contextmanager
def disabled() -> Iterator[None]:
    """Suppress every metric update inside the block (overhead
    benchmarking; latency-critical embedders)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


# ----------------------------------------------------------------------
# Exposition.
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_text(labelnames, key, extra=()) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in list(zip(labelnames, key)) + list(extra)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render() -> str:
    """The whole registry as Prometheus text exposition (format 0.0.4).

    Deterministic: metrics sort by name, series by label values — the
    property the golden-format test pins down.
    """
    lines: list[str] = []
    for name in sorted(_REGISTRY):
        instrument = _REGISTRY[name]
        if instrument.help:
            lines.append(f"# HELP {name} {instrument.help}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        series = instrument.series()
        if isinstance(instrument, Histogram):
            for key in sorted(series):
                cell = series[key]
                cumulative = 0
                for bound, count in zip(
                    instrument.buckets, cell["counts"]
                ):
                    cumulative += count
                    labels = _label_text(
                        instrument.labelnames, key,
                        extra=[("le", _format_value(bound))],
                    )
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                cumulative += cell["counts"][-1]
                inf_labels = _label_text(
                    instrument.labelnames, key, extra=[("le", "+Inf")]
                )
                lines.append(f"{name}_bucket{inf_labels} {cumulative}")
                plain = _label_text(instrument.labelnames, key)
                lines.append(
                    f"{name}_sum{plain} {_format_value(cell['sum'])}"
                )
                lines.append(f"{name}_count{plain} {cell['count']}")
        else:
            for key in sorted(series):
                labels = _label_text(instrument.labelnames, key)
                lines.append(
                    f"{name}{labels} {_format_value(series[key])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot() -> dict:
    """Plain-dict view for tests: ``{name: {label_tuple: value}}``
    with histogram values as ``{"count", "sum", "buckets"}`` cells
    (``buckets`` cumulative, aligned with the instrument's bounds plus
    ``+Inf``)."""
    out: dict = {}
    for name, instrument in instruments().items():
        series = instrument.series()
        if isinstance(instrument, Histogram):
            cells = {}
            for key, cell in series.items():
                cumulative, total = [], 0
                for count in cell["counts"]:
                    total += count
                    cumulative.append(total)
                cells[key] = {
                    "count": cell["count"],
                    "sum": cell["sum"],
                    "buckets": cumulative,
                }
            out[name] = cells
        else:
            out[name] = dict(series)
    return out


__all__ = [
    "DEFAULT_BUCKETS",
    "Bound",
    "Counter",
    "Gauge",
    "Histogram",
    "counter",
    "counts_since",
    "disabled",
    "gauge",
    "histogram",
    "instruments",
    "render",
    "reset_metrics",
    "set_enabled",
    "snapshot",
]
