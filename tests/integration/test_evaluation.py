"""Tests for the evaluation harness (paper §8)."""

from repro.evaluation import (
    ALGORITHMS,
    asdf_kernel,
    compiled_circuit,
    evaluate,
    format_series,
    format_table1,
    shot_execution_report,
    table1,
)
from repro.qcircuit.fusion import fused_gate_savings


def test_asdf_kernels_build_for_all_algorithms():
    for algorithm in ALGORITHMS:
        kernel = asdf_kernel(algorithm, 4)
        assert kernel.infer_dims()


def test_compiled_circuit_small_sweep():
    rows = evaluate(
        algorithms=("bv",), compilers=("asdf", "qiskit"), sizes=(4, 8)
    )
    assert len(rows) == 4
    by_key = {(r.compiler, r.input_size): r for r in rows}
    assert (
        by_key[("asdf", 8)].physical_kiloqubits
        > by_key[("asdf", 4)].physical_kiloqubits
    )


def test_table1_structure():
    rows = table1(n=3)
    assert [r.algorithm for r in rows] == list(ALGORITHMS)
    text = format_table1(rows)
    assert "Asdf (Opt)" in text
    assert "B-V" in text


def test_format_series_grouping():
    rows = evaluate(algorithms=("dj",), compilers=("asdf",), sizes=(4,))
    series = format_series(rows, "runtime_seconds")
    assert "dj" in series
    assert "asdf" in series["dj"]
    assert series["dj"]["asdf"][0][0] == 4


def test_all_compilers_agree_on_bv_output():
    """Every toolchain's optimized circuit computes the same answer."""
    from repro.sim import run_circuit

    for compiler in ("asdf", "qiskit", "quipper", "qsharp"):
        circuit = compiled_circuit("bv", compiler, 5)
        (outcome,) = run_circuit(circuit)
        assert outcome == (1, 0, 1, 0, 1), compiler


def test_all_compilers_agree_on_grover_output():
    from repro.sim import run_circuit

    for compiler in ("asdf", "qiskit", "quipper", "qsharp"):
        circuit = compiled_circuit("grover", compiler, 3)
        results = run_circuit(circuit, shots=10, seed=1)
        hits = sum(1 for r in results if r == (1, 1, 1))
        assert hits >= 9, compiler


def test_shot_report_runs_the_compiled_execution_circuit():
    # The rows run the compile-time fused form, not a second fusion of
    # the decomposed circuit at run time.
    execution = asdf_kernel("grover", 5).compile(
        pipeline="default", cache=True
    ).execution_circuit
    rows = shot_execution_report(algorithms=("grover",), sizes=(5,))
    assert fused_gate_savings(execution) == 92
    assert [row.gates_fused for row in rows] == [92]
