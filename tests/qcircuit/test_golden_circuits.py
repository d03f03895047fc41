"""Golden circuits: every pipeline preset's output, pinned by digest.

The fixture ``golden_circuits.json`` holds a sha256 digest of the
instruction list (source locations included) of ``optimized_circuit``,
``decomposed_circuit`` and ``execution_circuit`` for every preset that
reaches the circuit layer × every benchmark in
:data:`repro.evaluation.ALGORITHMS` × n ∈ {4, 8, 32}, the same digest
of the shared transpiler's output for each baseline compiler, and the
Table 1 callable counts.  A circuit-pass optimization that claims to be
output-preserving must keep every digest.

Regenerate the fixture (only for an *intended* output change) with::

    PYTHONPATH=src python tests/qcircuit/test_golden_circuits.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import build_baseline, transpile_o3
from repro.evaluation import ALGORITHMS, asdf_kernel, table1
from repro.pipeline import PRESETS, compile_kernel
from repro.qcircuit.circuit import CircuitGate, Measurement, Reset

FIXTURE = Path(__file__).with_name("golden_circuits.json")
SIZES = (4, 8, 32)
STAGES = ("optimized", "decomposed", "execution")
BASELINE_COMPILERS = ("qiskit", "quipper", "qsharp")
CIRCUIT_PRESETS = tuple(
    name for name, options in sorted(PRESETS.items()) if options.to_circuit
)


def _loc_key(loc):
    if loc is None:
        return None
    return (
        os.path.basename(loc.file),
        loc.line,
        loc.col,
        loc.end_line,
        loc.end_col,
    )


def _instruction_key(inst) -> tuple:
    loc = _loc_key(inst.loc)
    if isinstance(inst, CircuitGate):
        return (
            "gate",
            inst.name,
            inst.targets,
            inst.controls,
            tuple(repr(p) for p in inst.params),
            inst.ctrl_states,
            inst.condition,
            loc,
        )
    if isinstance(inst, Measurement):
        return ("measure", inst.qubit, inst.bit, loc)
    if isinstance(inst, Reset):
        return ("reset", inst.qubit, loc)
    # A FusedUnitary block: its matrix is a float product, so pin it to
    # ten decimals (and fold -0.0 into 0.0) to stay BLAS-independent.
    matrix = np.round(inst.matrix, 10) + 0.0
    return ("fused", inst.targets, inst.gate_count, repr(matrix.tolist()), loc)


def circuit_digest(circuit) -> str:
    """sha256 over the circuit's shape and its instruction list."""
    payload = repr(
        (
            circuit.num_qubits,
            circuit.num_bits,
            list(circuit.output_bits),
            [_instruction_key(inst) for inst in circuit.instructions],
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def compiled_digests(preset: str, algorithm: str, n: int) -> dict:
    result = compile_kernel(asdf_kernel(algorithm, n), pipeline=preset)
    return {
        stage: circuit_digest(getattr(result, f"{stage}_circuit"))
        for stage in STAGES
    }


def transpiled_digest(compiler: str, algorithm: str, n: int) -> str:
    baseline = build_baseline(algorithm, compiler, n)
    return circuit_digest(transpile_o3(baseline, style=compiler))


def table1_counts() -> list[dict]:
    return [dataclasses.asdict(row) for row in table1(n=4)]


def generate() -> dict:
    return {
        "circuits": {
            f"{preset}/{algorithm}/{n}": compiled_digests(preset, algorithm, n)
            for preset in CIRCUIT_PRESETS
            for algorithm in ALGORITHMS
            for n in SIZES
        },
        "transpiled": {
            f"{compiler}/{algorithm}/{n}": transpiled_digest(
                compiler, algorithm, n
            )
            for compiler in BASELINE_COMPILERS
            for algorithm in ALGORITHMS
            for n in SIZES
        },
        "table1": table1_counts(),
    }


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_every_combination():
    expected = {
        f"{preset}/{algorithm}/{n}"
        for preset in CIRCUIT_PRESETS
        for algorithm in ALGORITHMS
        for n in SIZES
    }
    assert set(GOLDEN["circuits"]) == expected
    assert len(expected) == 75


@pytest.mark.parametrize("key", sorted(GOLDEN.get("circuits", {})))
def test_compiled_circuits_match_golden(key):
    preset, algorithm, n = key.split("/")
    assert compiled_digests(preset, algorithm, int(n)) == GOLDEN["circuits"][key]


@pytest.mark.parametrize("key", sorted(GOLDEN.get("transpiled", {})))
def test_transpiled_baselines_match_golden(key):
    compiler, algorithm, n = key.split("/")
    assert transpiled_digest(compiler, algorithm, int(n)) == (
        GOLDEN["transpiled"][key]
    )


def test_table1_counts_match_golden():
    assert table1_counts() == GOLDEN["table1"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
