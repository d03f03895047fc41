"""Assert the perf trajectory is complete — and hasn't regressed.

Run after ``python -m pytest benchmarks -s``::

    python benchmarks/check_bench_json.py                    # schema check
    python benchmarks/check_bench_json.py --compare          # + perf gate
    python benchmarks/check_bench_json.py --update-baselines # refresh
    python benchmarks/check_bench_json.py --self-test        # gate sanity

**Schema check** (always): every file in
``conftest.EXPECTED_BENCH_JSON`` must exist at the repo root, parse,
and carry at least one well-formed record.  CI runs this before
uploading the ``bench-perf-trajectory`` artifact, so a bench module
that silently stops emitting JSON fails the build instead of shrinking
the artifact.

**Regression gate** (``--compare``): every record is keyed by
``(benchmark, config)`` and its ``wall_ms`` (the minimum across a
run's records for that key — the least-noisy statistic) is compared to
the committed baseline under ``benchmarks/baselines/``.  A current
wall time more than ``--max-ratio`` (default 2.0, generous for CI
jitter; env ``BENCH_MAX_RATIO`` overrides) times its baseline fails
the build.  Keys whose baseline wall time is below ``--min-wall-ms``
(default 5.0) are skipped — sub-5ms timings are jitter, not signal.
A key present in the baseline but absent from the current run also
fails: usually the bench test that writes it failed or was skipped
before ``write_bench_json`` (read that test's result), and only a
genuinely renamed or removed benchmark calls for
``--update-baselines``.  New keys only warn.

**Refreshing baselines** (``--update-baselines``): copies the current
``BENCH_*.json`` files into ``benchmarks/baselines/``.  Do this when a
benchmark is intentionally slower (more work measured), renamed, or
added — and say why in the commit message.  See docs/performance.md.

**Self-test** (``--self-test``): proves the gate has teeth by
synthesizing a baseline 3x *faster* than the current run (so the
current run is a >2x regression against it) and asserting the
comparison fails, then an identical baseline and asserting it passes,
then a current run missing one baseline key and asserting that key
fails as possibly not written rather than only as renamed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import BENCH_RECORD_KEYS, EXPECTED_BENCH_JSON, REPO_ROOT

BASELINE_DIR = Path(__file__).parent / "baselines"

#: Fail when current wall_ms exceeds baseline by more than this factor.
DEFAULT_MAX_RATIO = 2.0

#: Baseline entries faster than this are jitter-dominated: skip them.
DEFAULT_MIN_WALL_MS = 5.0

MAX_RATIO_ENV_VAR = "BENCH_MAX_RATIO"


def check_schema(
    expected: "tuple[str, ...]" = EXPECTED_BENCH_JSON,
    include_stray: bool = True,
) -> list[str]:
    """The original presence/schema check; returns problem strings.

    ``expected`` narrows the manifest (the ``--only`` flag: a CI job
    that runs a single bench module checks just that module's file);
    the stray-file check only makes sense against the full manifest.
    """
    problems = []
    for name in expected:
        path = REPO_ROOT / name
        if not path.exists():
            problems.append(f"{name}: missing")
            continue
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            problems.append(f"{name}: unparsable ({error})")
            continue
        records = payload.get("records")
        if not records:
            problems.append(f"{name}: no records")
            continue
        for record in records:
            missing = [key for key in BENCH_RECORD_KEYS if key not in record]
            if missing:
                problems.append(f"{name}: record missing {missing}")
                break
        else:
            print(f"ok: {name} ({len(records)} record(s))")
    if include_stray:
        stray = sorted(
            path.name
            for path in REPO_ROOT.glob("BENCH_*.json")
            if path.name not in EXPECTED_BENCH_JSON
        )
        for name in stray:
            problems.append(
                f"{name}: not in EXPECTED_BENCH_JSON (add the new bench "
                f"module to benchmarks/conftest.py)"
            )
    return problems


def wall_times(path: Path) -> dict[tuple[str, str], float]:
    """``{(benchmark, config): min wall_ms}`` for one BENCH_*.json."""
    payload = json.loads(path.read_text())
    times: dict[tuple[str, str], float] = {}
    for record in payload.get("records", ()):
        key = (str(record["benchmark"]), str(record["config"]))
        wall = float(record["wall_ms"])
        if key not in times or wall < times[key]:
            times[key] = wall
    return times


def missing_key_problem(label: str) -> str:
    """The problem a baseline key absent from the current run reports."""
    return (
        f"{label}: in baseline but not in current run; the bench test "
        f"that writes it may have failed or been skipped before "
        f"write_bench_json (check its result). Only if the benchmark "
        f"was renamed or removed, refresh with --update-baselines"
    )


def compare_file(
    current_path: Path,
    baseline_path: Path,
    max_ratio: float,
    min_wall_ms: float,
) -> tuple[list[str], list[str]]:
    """Gate one BENCH file; returns ``(problems, warnings)``."""
    problems: list[str] = []
    warnings: list[str] = []
    name = current_path.name
    current = wall_times(current_path)
    baseline = wall_times(baseline_path)
    for key, base_wall in sorted(baseline.items()):
        label = f"{name}:{key[0]}/{key[1]}"
        wall = current.get(key)
        if wall is None:
            problems.append(missing_key_problem(label))
            continue
        if base_wall < min_wall_ms:
            continue  # jitter-dominated; no signal to gate on
        ratio = wall / base_wall
        if ratio > max_ratio:
            problems.append(
                f"{label}: {wall:.1f}ms vs baseline {base_wall:.1f}ms "
                f"({ratio:.2f}x > {max_ratio:.2f}x)"
            )
        else:
            print(f"ok: {label} {wall:.1f}ms vs {base_wall:.1f}ms "
                  f"({ratio:.2f}x)")
    for key in sorted(set(current) - set(baseline)):
        warnings.append(
            f"{name}:{key[0]}/{key[1]}: no baseline entry (run "
            f"--update-baselines to start gating it)"
        )
    return problems, warnings


def compare_all(
    baseline_dir: Path, max_ratio: float, min_wall_ms: float
) -> list[str]:
    """Gate every expected BENCH file; returns problem strings."""
    if not baseline_dir.is_dir():
        return [
            f"baseline directory {baseline_dir} missing (run "
            f"`python benchmarks/check_bench_json.py --update-baselines` "
            f"after a benchmark run, and commit it)"
        ]
    problems: list[str] = []
    for name in EXPECTED_BENCH_JSON:
        current_path = REPO_ROOT / name
        baseline_path = baseline_dir / name
        if not current_path.exists():
            # The schema check already reports the missing file.
            continue
        if not baseline_path.exists():
            problems.append(f"{name}: no committed baseline")
            continue
        file_problems, file_warnings = compare_file(
            current_path, baseline_path, max_ratio, min_wall_ms
        )
        problems.extend(file_problems)
        for warning in file_warnings:
            print(f"warning: {warning}", file=sys.stderr)
    return problems


def update_baselines(baseline_dir: Path) -> int:
    """Copy the current BENCH_*.json files over the committed baselines."""
    missing = [
        name
        for name in EXPECTED_BENCH_JSON
        if not (REPO_ROOT / name).exists()
    ]
    if missing:
        print(
            f"cannot update baselines, current run incomplete: {missing}\n"
            f"run `python -m pytest benchmarks -s` first",
            file=sys.stderr,
        )
        return 1
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for name in EXPECTED_BENCH_JSON:
        (baseline_dir / name).write_text((REPO_ROOT / name).read_text())
        print(f"updated: {baseline_dir / name}")
    return 0


def self_test(max_ratio: float, min_wall_ms: float) -> int:
    """Prove the gate fails on a synthetic >2x regression.

    Builds a throwaway baseline whose wall times are the current run's
    divided by ``max_ratio * 1.5`` (so the current run reads as a 3x
    regression at the default ratio) and asserts the comparison fails;
    then an identical baseline and asserts it passes.  Entries are
    lifted above the jitter floor so the synthetic regression cannot be
    skipped as noise.
    """
    import shutil
    import tempfile

    present = [
        name for name in EXPECTED_BENCH_JSON if (REPO_ROOT / name).exists()
    ]
    if not present:
        print(
            "self-test needs at least one current BENCH_*.json; run "
            "`python -m pytest benchmarks -s` first",
            file=sys.stderr,
        )
        return 1
    scratch = Path(tempfile.mkdtemp(prefix="bench-selftest-"))
    try:
        slow_dir = scratch / "regressed"
        same_dir = scratch / "identical"
        slow_dir.mkdir()
        same_dir.mkdir()
        floor = max(min_wall_ms, 1.0)
        for name in EXPECTED_BENCH_JSON:
            source = REPO_ROOT / name
            if not source.exists():
                continue
            payload = json.loads(source.read_text())
            same_payload = json.loads(source.read_text())
            for record, same_record in zip(
                payload.get("records", ()),
                same_payload.get("records", ()),
            ):
                # Lift above the jitter floor, then shrink the baseline
                # so the (unchanged) current run reads as 3x slower.
                wall = max(float(record["wall_ms"]), floor * 10.0)
                record["wall_ms"] = wall / (max_ratio * 1.5)
                same_record["wall_ms"] = wall
            (slow_dir / name).write_text(json.dumps(payload))
            (same_dir / name).write_text(json.dumps(same_payload))

        # The synthetic-regression comparison MUST fail ...
        lifted = _with_lifted_current(scratch, floor)
        problems = _compare_dirs(lifted, slow_dir, max_ratio, min_wall_ms)
        if not problems:
            print(
                "self-test FAILED: a synthetic 3x regression passed the "
                "gate",
                file=sys.stderr,
            )
            return 1
        print(f"self-test: synthetic regression caught "
              f"({len(problems)} violation(s)) — gate has teeth")
        # ... and the identical baseline must pass.
        problems = _compare_dirs(lifted, same_dir, max_ratio, min_wall_ms)
        if problems:
            print(
                "self-test FAILED: identical baseline reported "
                f"regressions: {problems}",
                file=sys.stderr,
            )
            return 1
        print("self-test: identical baseline passes — gate is not "
              "trigger-happy")
        # ... and a key the current run lacks (its test failed before
        # writing it) must still fail, naming that cause.
        dropped = _drop_one_record(lifted)
        problems = _compare_dirs(lifted, same_dir, max_ratio, min_wall_ms)
        if problems != [missing_key_problem(dropped)]:
            print(
                f"self-test FAILED: dropping {dropped} from the current "
                f"run reported {problems}",
                file=sys.stderr,
            )
            return 1
        print(f"self-test: missing key {dropped} fails as possibly not "
              f"written — a failed bench test cannot pass unseen")
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _with_lifted_current(scratch: Path, floor: float) -> Path:
    """A copy of the current BENCH files with wall times lifted above
    the jitter floor, mirroring the self-test's baseline transform."""
    lifted = scratch / "current"
    lifted.mkdir()
    for name in EXPECTED_BENCH_JSON:
        source = REPO_ROOT / name
        if not source.exists():
            continue
        payload = json.loads(source.read_text())
        for record in payload.get("records", ()):
            record["wall_ms"] = max(float(record["wall_ms"]), floor * 10.0)
        (lifted / name).write_text(json.dumps(payload))
    return lifted


def _drop_one_record(current_dir: Path) -> str:
    """Remove every record of the first key of the first BENCH file in
    ``current_dir``; returns the label :func:`compare_file` gives it."""
    for name in EXPECTED_BENCH_JSON:
        path = current_dir / name
        if not path.exists():
            continue
        payload = json.loads(path.read_text())
        records = payload.get("records", ())
        if not records:
            continue
        key = (str(records[0]["benchmark"]), str(records[0]["config"]))
        payload["records"] = [
            record
            for record in records
            if (str(record["benchmark"]), str(record["config"])) != key
        ]
        path.write_text(json.dumps(payload))
        return f"{name}:{key[0]}/{key[1]}"
    raise RuntimeError("no current BENCH record to drop")


def _compare_dirs(
    current_dir: Path, baseline_dir: Path, max_ratio: float,
    min_wall_ms: float,
) -> list[str]:
    problems: list[str] = []
    for name in EXPECTED_BENCH_JSON:
        current_path = current_dir / name
        baseline_path = baseline_dir / name
        if not current_path.exists() or not baseline_path.exists():
            continue
        file_problems, _ = compare_file(
            current_path, baseline_path, max_ratio, min_wall_ms
        )
        problems.extend(file_problems)
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compare",
        action="store_true",
        help="gate current BENCH_*.json against committed baselines",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="copy current BENCH_*.json into benchmarks/baselines/",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="assert a synthetic 3x-slower baseline fails the gate",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=BASELINE_DIR,
        help=f"baseline directory (default: {BASELINE_DIR})",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=float(
            os.environ.get(MAX_RATIO_ENV_VAR, DEFAULT_MAX_RATIO)
        ),
        help=f"regression threshold (default {DEFAULT_MAX_RATIO}, env "
        f"{MAX_RATIO_ENV_VAR} overrides)",
    )
    parser.add_argument(
        "--min-wall-ms",
        type=float,
        default=DEFAULT_MIN_WALL_MS,
        help=f"skip baseline entries faster than this "
        f"(default {DEFAULT_MIN_WALL_MS}ms)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="BENCH_FILE",
        help="check only these BENCH_*.json files (for CI jobs that run "
        "a single bench module); skips the stray-file check",
    )
    args = parser.parse_args(argv)

    if args.update_baselines:
        return update_baselines(args.baseline_dir)

    expected = tuple(args.only) if args.only else EXPECTED_BENCH_JSON
    unknown = sorted(set(expected) - set(EXPECTED_BENCH_JSON))
    if unknown:
        print(
            f"--only names files outside the manifest: {unknown}",
            file=sys.stderr,
        )
        return 1
    problems = check_schema(expected, include_stray=args.only is None)
    if args.compare and not problems:
        problems.extend(
            compare_all(args.baseline_dir, args.max_ratio, args.min_wall_ms)
        )
    if problems:
        print("perf-trajectory check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"all {len(expected)} checked BENCH_*.json files present")

    if args.self_test:
        return self_test(args.max_ratio, args.min_wall_ms)
    return 0


if __name__ == "__main__":
    sys.exit(main())
