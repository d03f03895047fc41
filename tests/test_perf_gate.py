"""The CI perf-regression gate (benchmarks/check_bench_json.py).

Unit-tests the gate's comparison logic with synthetic BENCH files in
tmp_path: min-aggregation of repeated records, the >max-ratio failure,
the <=max-ratio pass, the sub-jitter-floor skip, the missing-key
failure, and the new-key warning.  The gate's end-to-end behaviour
(schema check + self-test against real benchmark output) runs in CI's
benchmark-smoke job; these tests keep the decision logic honest under
plain ``pytest``.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_MODULE_PATH = REPO_ROOT / "benchmarks" / "check_bench_json.py"

# check_bench_json imports the benchmark conftest by inserting
# benchmarks/ onto sys.path; load it the same way it runs in CI.
_spec = importlib.util.spec_from_file_location(
    "check_bench_json", _MODULE_PATH
)
check_bench_json = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_bench_json", check_bench_json)
_spec.loader.exec_module(check_bench_json)


def _bench_payload(records):
    full = []
    for benchmark, config, wall_ms in records:
        full.append(
            {
                "benchmark": benchmark,
                "config": config,
                "wall_ms": wall_ms,
                "shots": None,
                "evolutions": None,
                "gates_fused": None,
            }
        )
    return {"schema": "repro-bench-v1", "name": "test", "records": full}


def _write(path: Path, records) -> Path:
    path.write_text(json.dumps(_bench_payload(records)))
    return path


def test_wall_times_takes_minimum_per_key(tmp_path):
    path = _write(
        tmp_path / "BENCH_x.json",
        [
            ("bench-a", "cfg", 120.0),
            ("bench-a", "cfg", 80.0),  # min wins: least-noisy statistic
            ("bench-a", "cfg", 95.0),
            ("bench-b", "cfg", 10.0),
        ],
    )
    times = check_bench_json.wall_times(path)
    assert times == {("bench-a", "cfg"): 80.0, ("bench-b", "cfg"): 10.0}


def test_compare_detects_regression(tmp_path):
    current = _write(tmp_path / "cur.json", [("bench", "cfg", 50.0)])
    baseline = _write(tmp_path / "base.json", [("bench", "cfg", 20.0)])
    problems, warnings = check_bench_json.compare_file(
        current, baseline, max_ratio=2.0, min_wall_ms=5.0
    )
    assert len(problems) == 1
    assert "2.50x > 2.00x" in problems[0]
    assert not warnings


def test_compare_passes_within_ratio(tmp_path):
    current = _write(tmp_path / "cur.json", [("bench", "cfg", 39.0)])
    baseline = _write(tmp_path / "base.json", [("bench", "cfg", 20.0)])
    problems, warnings = check_bench_json.compare_file(
        current, baseline, max_ratio=2.0, min_wall_ms=5.0
    )
    assert not problems
    assert not warnings


def test_compare_skips_jitter_dominated_baselines(tmp_path):
    # 1ms -> 100ms is a 100x "regression", but sub-floor baselines are
    # noise, not signal: no gate.
    current = _write(tmp_path / "cur.json", [("bench", "cfg", 100.0)])
    baseline = _write(tmp_path / "base.json", [("bench", "cfg", 1.0)])
    problems, _ = check_bench_json.compare_file(
        current, baseline, max_ratio=2.0, min_wall_ms=5.0
    )
    assert not problems


def test_compare_fails_on_missing_key(tmp_path):
    current = _write(tmp_path / "cur.json", [("bench", "other", 10.0)])
    baseline = _write(tmp_path / "base.json", [("bench", "cfg", 10.0)])
    problems, _ = check_bench_json.compare_file(
        current, baseline, max_ratio=2.0, min_wall_ms=5.0
    )
    assert len(problems) == 1
    assert "in baseline but not in current run" in problems[0]
    # A bench test that failed before writing its record reads as
    # such, not only as a rename.
    assert "may have failed or been skipped" in problems[0]
    assert "renamed or removed" in problems[0]


def test_compare_warns_on_new_key(tmp_path):
    current = _write(
        tmp_path / "cur.json",
        [("bench", "cfg", 10.0), ("bench", "new-config", 10.0)],
    )
    baseline = _write(tmp_path / "base.json", [("bench", "cfg", 10.0)])
    problems, warnings = check_bench_json.compare_file(
        current, baseline, max_ratio=2.0, min_wall_ms=5.0
    )
    assert not problems
    assert len(warnings) == 1
    assert "no baseline entry" in warnings[0]


def test_compare_all_requires_baseline_dir(tmp_path):
    problems = check_bench_json.compare_all(
        tmp_path / "does-not-exist", max_ratio=2.0, min_wall_ms=5.0
    )
    assert len(problems) == 1
    assert "--update-baselines" in problems[0]


def test_committed_baselines_cover_the_manifest():
    baseline_dir = check_bench_json.BASELINE_DIR
    assert baseline_dir.is_dir(), (
        "benchmarks/baselines/ must be committed for the CI gate"
    )
    for name in check_bench_json.EXPECTED_BENCH_JSON:
        path = baseline_dir / name
        assert path.exists(), f"missing committed baseline {name}"
        times = check_bench_json.wall_times(path)
        assert times, f"baseline {name} has no records"
        assert all(wall >= 0.0 for wall in times.values())


def test_max_ratio_env_override(monkeypatch, tmp_path):
    # BENCH_MAX_RATIO feeds main()'s --max-ratio default: a 3x slowdown
    # fails at the 2.0 default but passes at 3.5.
    current = _write(tmp_path / "cur.json", [("bench", "cfg", 60.0)])
    baseline = _write(tmp_path / "base.json", [("bench", "cfg", 20.0)])
    for env, expect_problems in (("1.5", True), ("3.5", False)):
        monkeypatch.setenv(check_bench_json.MAX_RATIO_ENV_VAR, env)
        problems, _ = check_bench_json.compare_file(
            current, baseline, max_ratio=float(env), min_wall_ms=5.0
        )
        assert bool(problems) is expect_problems
