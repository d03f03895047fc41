"""Shared helpers for the benchmark harness.

Each bench regenerates one of the paper's tables or figures.  Results
are printed (visible with ``pytest benchmarks/ -s``), written to
``benchmarks/out/`` so EXPERIMENTS.md can reference them, and — for
the machine-readable perf trajectory — appended to repo-root
``BENCH_<name>.json`` files (one per bench module) that CI uploads as
an artifact, so future PRs can chart wall-clock over time.

**The harness must be named explicitly**: ``pyproject.toml`` restricts
default collection to ``tests/`` (``testpaths``), so a bare ``pytest``
silently collects *zero* benchmarks — and writes zero BENCH_*.json
files.  The documented invocation is::

    python -m pytest benchmarks -s

(``python -m`` also puts the repo root on ``sys.path``, which the
noise bench needs for ``tests.stats``; this conftest pins that path
explicitly so ``pytest benchmarks`` works too.)

**Every module must emit JSON under plain pytest.**  The
``pytest-benchmark`` plugin is an optional dependency: when it is
missing, any test requiring its ``benchmark`` fixture *errors at
setup*, and historically that silently dropped most of the perf
trajectory (only the fixture-free tests wrote their BENCH_*.json — a
full harness run left just fig11/fig12).  The fallback ``benchmark``
fixture below shims ``benchmark.pedantic`` with a plain call when the
plugin is absent, so all modules run — and every file in
:data:`EXPECTED_BENCH_JSON` is written — under any pytest.  CI asserts
that manifest via ``python benchmarks/check_bench_json.py`` before
uploading the artifact.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"
REPO_ROOT = Path(__file__).parent.parent

# `python -m pytest benchmarks` puts the repo root on sys.path, a bare
# `pytest benchmarks` does not; pin it so bench modules can always
# import the shared statistical helpers from the tests package.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

#: Keys every BENCH_*.json record carries (None where inapplicable).
BENCH_RECORD_KEYS = (
    "benchmark",
    "config",
    "wall_ms",
    "shots",
    "evolutions",
    "gates_fused",
)

#: The perf-trajectory manifest: one BENCH_<name>.json per bench
#: module.  A full harness run (`python -m pytest benchmarks -s`) must
#: leave exactly these at the repo root; check_bench_json.py enforces
#: it in CI.  Keep in sync when adding a bench module.
EXPECTED_BENCH_JSON = (
    "BENCH_ablation_peephole.json",
    "BENCH_ablation_selinger.json",
    "BENCH_ablation_xor.json",
    "BENCH_compiler_speed.json",
    "BENCH_fig11_runtime.json",
    "BENCH_fig12_qubits.json",
    "BENCH_kernels.json",
    "BENCH_noise.json",
    "BENCH_obs.json",
    "BENCH_parallel.json",
    "BENCH_service.json",
    "BENCH_table1_callables.json",
    "BENCH_variational.json",
)


@pytest.fixture(scope="session", autouse=True)
def _private_disk_cache(tmp_path_factory):
    """Point the persistent compile cache (repro.exec.diskcache) at a
    per-session tmpdir: a bench run must never read artifacts a previous
    run (or the developer's real ~/.cache/repro) left behind — a stale
    warm cache would silently turn every "cold" compile number into a
    disk-cache read."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("repro-bench-cache")
    )
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous

class _BenchmarkShim:
    """Minimal stand-in for pytest-benchmark's fixture: runs the
    benched callable once, measuring nothing.  Keeps every bench —
    and its BENCH_*.json output — alive when the plugin is not
    installed (or disabled with ``-p no:benchmark``); install
    ``pytest-benchmark`` for real statistics."""

    @staticmethod
    def pedantic(
        target,
        args=(),
        kwargs=None,
        setup=None,
        rounds=1,
        warmup_rounds=0,
        iterations=1,
    ):
        if setup is not None:
            setup()
        return target(*args, **(kwargs or {}))

    def __call__(self, target, *args, **kwargs):
        return target(*args, **kwargs)


class _BenchmarkShimPlugin:
    """Provides a fallback ``benchmark`` fixture.  Registered from
    ``pytest_configure`` only when the real pytest-benchmark plugin is
    not active, so it can never shadow the real fixture — the probe
    must be plugin activation, not importability (``-p no:benchmark``
    leaves the module importable but the fixture missing)."""

    @pytest.fixture
    def benchmark(self):
        return _BenchmarkShim()


def pytest_configure(config) -> None:
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(
            _BenchmarkShimPlugin(), "benchmark-shim"
        )


def pytest_sessionstart(session) -> None:
    """Drop stale BENCH_*.json files so a harness run regenerates the
    whole perf trajectory from scratch (records append within a run)."""
    for path in REPO_ROOT.glob("BENCH_*.json"):
        path.unlink()


def pytest_collection_modifyitems(items) -> None:
    """Tag everything under benchmarks/ with the ``benchmarks`` marker
    (registered in pyproject.toml) so runs can select or deselect the
    harness with ``-m benchmarks`` / ``-m 'not benchmarks'``."""
    for item in items:
        if Path(__file__).parent in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.benchmarks)


def write_result(name: str, text: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(text)
    print(f"\n--- {name} ---\n{text}")


def bench_record(
    benchmark: str,
    config: str,
    wall_ms: float,
    shots: "int | None" = None,
    evolutions: "int | None" = None,
    gates_fused: "int | None" = None,
) -> dict:
    """One machine-readable perf record for :func:`write_bench_json`.

    ``gates_fused`` mirrors the same-named
    :class:`repro.sim.backend.RunInfo` field (gates eliminated by the
    fusion pass) when the bench executed circuits; ``None`` where
    inapplicable (e.g. compile-only benches).
    """
    return {
        "benchmark": benchmark,
        "config": config,
        "wall_ms": round(float(wall_ms), 4),
        "shots": shots,
        "evolutions": evolutions,
        "gates_fused": gates_fused,
    }


def write_bench_json(name: str, records: "list[dict]") -> None:
    """Append perf records to repo-root ``BENCH_<name>.json``.

    ``name`` is the bench module's short name (e.g. ``fig11_runtime``);
    several tests of one module may call this and their records
    accumulate within a run (stale files are removed at session start).
    """
    for record in records:
        missing = [key for key in BENCH_RECORD_KEYS if key not in record]
        if missing:
            raise ValueError(f"bench record missing {missing}: {record}")
    path = REPO_ROOT / f"BENCH_{name}.json"
    existing = []
    if path.exists():
        existing = json.loads(path.read_text())["records"]
    payload = {
        "schema": "repro-bench-v1",
        "name": name,
        "records": existing + list(records),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n--- BENCH_{name}.json: {len(records)} record(s) appended ---")


def format_figure_series(series, metric_label: str) -> str:
    """Render {algorithm: {compiler: [(n, value)...]}} as aligned rows."""
    lines = []
    for algorithm, by_compiler in series.items():
        lines.append(f"[{algorithm}] {metric_label}")
        sizes = sorted({n for pts in by_compiler.values() for n, _ in pts})
        header = "  compiler " + "".join(f"{n:>14}" for n in sizes)
        lines.append(header)
        for compiler, points in by_compiler.items():
            values = dict(points)
            row = f"  {compiler:<9}" + "".join(
                f"{values.get(n, float('nan')):>14.3f}" for n in sizes
            )
            lines.append(row)
        lines.append("")
    return "\n".join(lines)
