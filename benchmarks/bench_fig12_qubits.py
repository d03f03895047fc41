"""Figure 12: estimated physical qubits per benchmark (§8.3).

Regenerates the paper's physical-kiloqubit series.  Expected shape:
ASDF's qubit counts are comparable to (or below) the baselines at every
size; Quipper pays extra qubits wherever its oracle synthesis allocates
one ancilla per XOR (BV, DJ, Simon, period finding).
"""

from conftest import (
    bench_record,
    format_figure_series,
    write_bench_json,
    write_result,
)

from repro.evaluation import (
    ALGORITHMS,
    PAPER_SIZES,
    evaluate,
    format_series,
    format_shot_report,
    shot_execution_report,
    trajectory_execution_report,
)
from repro.sim.backend import clear_marginal_memo

_CACHE = {}


def _sweep():
    if "rows" not in _CACHE:
        _CACHE["rows"] = evaluate(sizes=PAPER_SIZES)
    return _CACHE["rows"]


def test_fig12_physical_qubits(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    series = format_series(rows, "physical_kiloqubits")
    write_result(
        "fig12_physical_qubits.txt",
        format_figure_series(series, "physical kiloqubits"),
    )

    by_key = {
        (r.algorithm, r.compiler, r.input_size): r.physical_kiloqubits
        for r in rows
    }
    for algorithm in ALGORITHMS:
        for n in PAPER_SIZES:
            asdf = by_key[(algorithm, "asdf", n)]
            best = min(
                by_key[(algorithm, c, n)]
                for c in ("qiskit", "quipper", "qsharp")
            )
            # Comparable cost to hand-written circuits (paper's claim).
            assert asdf <= 1.5 * best, (algorithm, n)
    # Quipper's ancilla-per-XOR overhead shows on the oracle-heavy
    # benchmarks (paper §8.3).
    for algorithm in ("bv", "dj", "simon"):
        for n in PAPER_SIZES:
            assert (
                by_key[(algorithm, "quipper", n)]
                > by_key[(algorithm, "asdf", n)]
            ), (algorithm, n)


def test_fig12_shot_backend_qubit_scaling():
    """Per-backend shot timing as the (simulated) qubit count grows.

    Fig. 12's theme at simulation scale: the interpreter pays
    O(shots x 2^n) while the vectorized backend pays one evolution, so
    the gap must widen — and never invert — as n grows.
    """
    # Time real evolutions, not memo hits left by earlier benchmarks.
    clear_marginal_memo()
    rows = shot_execution_report(
        algorithms=("bv",), sizes=(4, 6, 8, 10), shots=256
    )
    write_result("fig12_shot_backends.txt", format_shot_report(rows))
    write_bench_json(
        "fig12_qubits",
        [
            bench_record(
                f"{row.algorithm}-n{row.input_size}",
                row.backend,
                row.seconds * 1e3,
                shots=row.shots,
                evolutions=row.evolutions,
            )
            for row in rows
        ],
    )

    by_key = {(r.input_size, r.backend): r for r in rows}
    for n in (4, 6, 8, 10):
        vector = by_key[(n, "statevector")]
        interp = by_key[(n, "interpreter")]
        assert vector.fast_path and vector.evolutions == 1, n
        assert vector.seconds <= interp.seconds, (
            n,
            vector.seconds,
            interp.seconds,
        )


def test_fig12_qubit_reuse_trajectory_scaling():
    """Fig. 12's qubit-reuse theme at simulation scale: a reused qubit
    measured and reset round after round keeps the batched engine at
    one sweep while the interpreter pays one evolution per shot."""
    from repro.qcircuit import qubit_reuse_circuit

    shots = 512
    rounds_axis = (2, 4, 8)
    rows = trajectory_execution_report(
        circuits={
            f"qubit-reuse-r{rounds}": qubit_reuse_circuit(rounds)
            for rounds in rounds_axis
        },
        shots=shots,
    )
    write_result(
        "fig12_qubit_reuse_backends.txt", format_shot_report(rows)
    )
    write_bench_json(
        "fig12_qubits",
        [
            bench_record(
                row.algorithm,
                row.backend + ("-batched" if row.batched else ""),
                row.seconds * 1e3,
                shots=row.shots,
                evolutions=row.evolutions,
            )
            for row in rows
        ],
    )
    by_key = {(r.algorithm, r.backend): r for r in rows}
    for rounds in rounds_axis:
        label = f"qubit-reuse-r{rounds}"
        batched = by_key[(label, "statevector")]
        interp = by_key[(label, "interpreter")]
        assert batched.batched and batched.evolutions == 1, label
        assert interp.evolutions == shots, label
        assert batched.seconds <= interp.seconds, (
            label,
            batched.seconds,
            interp.seconds,
        )
