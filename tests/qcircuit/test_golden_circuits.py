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


#: ``default``-preset digests at n=64, where the AND ladders are longer
#: and more peephole sweeps meet a refused H·X·H than at the sizes the
#: fixture covers.  Recorded before the construct-once Selinger rewrite.
N64_DEFAULT_DIGESTS = {
    "bv": {
        "decomposed": "356a85bcc84b6707720a878be52149ddd0dc4e82b84d0610209f0383b08631f3",
        "execution": "ad4f6c19852aacad163065187b08fd3013fbe553a5810208dda531e7fe21ee37",
    },
    "dj": {
        "decomposed": "8c2ef2ec0df83802b70c43347908c596dca167bfb8b71b35f8eac8a67bc1cc9d",
        "execution": "bee85a0d1b9ce66c4535fc36febdd65179e4248ed7cee4ce87152d753e7ab4bd",
    },
    "grover": {
        "decomposed": "0a15e46c88f0331cbfb3c5f73d3997fd23ad4a6534699cff4c45c69ca708a623",
        "execution": "0698ddf4de2cb3fe10b7c8c138315280e41124c00616af708178139ba9a09d9a",
    },
    "simon": {
        "decomposed": "a8a36708b4c839782cb1fca42d9f265b4fb3b0a48216cdf5cbd333da012aaa03",
        "execution": "331c468f45e9396a0cc4a9671ddd88bed4a16f68c42396264af4c8bff336ff33",
    },
    "period": {
        "decomposed": "ed4a24f31d44c4e68766b36c5234450866bf729ee55060383716ca919a486c15",
        "execution": "3c33d332d88c9aa5fa1ca216e7cb4279db3302bda25a031c222fa296362baefc",
    },
}


@pytest.mark.parametrize("algorithm", sorted(N64_DEFAULT_DIGESTS))
def test_default_preset_n64_matches_pinned_digests(algorithm):
    result = compile_kernel(asdf_kernel(algorithm, 64), pipeline="default")
    assert {
        stage: circuit_digest(getattr(result, f"{stage}_circuit"))
        for stage in ("decomposed", "execution")
    } == N64_DEFAULT_DIGESTS[algorithm]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
