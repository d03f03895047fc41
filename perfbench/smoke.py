"""Smoke check of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

Runs every workload that ``BENCHMARK.json`` lists, and the ungated
``service-noisy`` and ``service-cold``, at a tiny size, once untraced
and once traced.  Each run must exit 0, end its standard output with the
result object, report every metric ``BENCHMARK.json`` names with its
unit (end-to-end metrics never 0), print each of them in its
human-readable report, and have run output checks that all passed.
Finally the benchmark must refuse to run, with a non-zero exit and no
result, in a directory that holds only ``BENCHMARK.json`` and the
benchmark's own files.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload: str, trace: int, spec: dict, scratch: Path) -> None:
    report_path = scratch / f"{workload}-{trace}.json"
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--tiny", "--report", str(report_path)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in expected}
    assert set(result["metrics"]) == names, (
        f"{label}: metrics differ from BENCHMARK.json: "
        f"{sorted(set(result['metrics']) ^ names)}"
    )
    text = "\n".join(lines[:-1])
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (label, metric, got)
        assert isinstance(got["value"], (int, float)), (label, metric, got)
        assert math.isfinite(got["value"]), (label, metric, got)
        if not trace:
            assert got["value"] > 0, f"{label}: {metric['name']} is 0"
        pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$"
        assert re.search(pattern, text, re.M), f"{label}: {metric['name']} not printed"
    report = json.loads(report_path.read_text())
    assert report["checks_run"] > 0, f"{label}: no output check ran"
    assert not report["failures"], f"{label}: {report['failures'][:3]}"
    assert result["correct"] and result["failed"] == 0, (label, result)
    assert result["attempted"] >= 1, (label, result)
    print(f"ok  {label:<32} {time.perf_counter() - start:6.1f} s  "
          f"{report['checks_run']} checks")


def check_refuses_bare_directory(scratch: Path) -> None:
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0, "ran without the program's sources"
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok  refuses a directory without the program")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench-work" / f"smoke-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        # The ungated workloads stay runnable (README.md says why).
        gated = [w["name"] for w in spec["workloads"]]
        for workload in gated + ["service-noisy", "service-cold"]:
            for trace in (0, 1):
                check_run(workload, trace, spec, scratch)
        check_refuses_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # a benchmark run's directory is still there
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
