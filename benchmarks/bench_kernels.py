"""The gate-apply primitive and the compile-time fusion pass, measured.

Two layers of the simulator's perf work (docs/performance.md),
benchmarked:

- **Apply throughput**: raw
  :func:`~repro.sim.kernels.apply_matrix_inplace` wall time per sweep,
  swept over qubit count x fused/unfused matrix size.  Configs keep
  their ``numpy-`` prefix, so records compare with older baselines.
- **Fusion speedup**: a deep rotation-heavy circuit executed unfused
  vs through ``fuse_adjacent_gates`` (the ``default`` pipeline's
  execution form) on the batched trajectory engine.  Asserts the
  acceptance criterion: fusion buys >= 1.5x wall-clock.

Writes ``BENCH_kernels.json`` (in the ``EXPECTED_BENCH_JSON``
manifest) so the CI perf-regression gate tracks both layers.
"""

import time

import numpy as np
from conftest import bench_record, write_bench_json, write_result

from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.qcircuit.fusion import fuse_adjacent_gates, fused_gate_savings
from repro.sim.backend import run_circuit_with_info
from repro.sim.kernels import apply_matrix_inplace

#: Qubit counts for the apply-throughput sweep.
APPLY_SIZES = (6, 10, 12)

#: Matrix applications per timed sweep.
APPLY_REPS = 200


def _bench_kernels():
    rows = []
    rng = np.random.default_rng(0)
    single = np.linalg.qr(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )[0]
    block = np.linalg.qr(
        rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    )[0]
    for n in APPLY_SIZES:
        state = rng.standard_normal((2,) * n) + 1j * rng.standard_normal(
            (2,) * n
        )
        # Unfused: APPLY_REPS single-qubit sweeps round-robin.
        # Fused: the same work shape as post-fusion execution — one
        # 3-qubit block per 3 single-qubit gates.
        configs = (
            ("unfused", single, [(q % n,) for q in range(APPLY_REPS)]),
            (
                "fused",
                block,
                [
                    tuple((q + i) % n for i in range(3))
                    for q in range(0, APPLY_REPS, 3)
                ],
            ),
        )
        for mode, matrix, target_list in configs:
            # Warm up (the axis-permutation cache must not be timed).
            apply_matrix_inplace(state, matrix, target_list[0])
            start = time.perf_counter()
            for targets in target_list:
                apply_matrix_inplace(state, matrix, targets)
            wall_ms = (time.perf_counter() - start) * 1e3
            rows.append((f"apply-n{n}", f"numpy-{mode}", wall_ms))
    return rows


def _deep_circuit(num_qubits=10, layers=20):
    """Deep, rotation-heavy, and non-terminal: the leading reset keeps
    the circuit on the batched trajectory engine, which evolves on
    every run (the terminal-measurement fast path would serve repeats
    from its marginal memo), so the timing isolates the fusion pass."""
    circuit = Circuit(num_qubits, num_qubits)
    circuit.add(Reset(0))
    for layer in range(layers):
        for q in range(num_qubits):
            circuit.add(
                CircuitGate("rx", (q,), params=(0.1 + 0.01 * q + layer,))
            )
            circuit.add(CircuitGate("rz", (q,), params=(0.2 + 0.01 * q,)))
            circuit.add(CircuitGate("h", (q,)))
        for q in range(num_qubits - 1):
            circuit.add(CircuitGate("x", (q + 1,), controls=(q,)))
    for q in range(num_qubits):
        circuit.add(Measurement(q, q))
    return circuit


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _bench_fusion(shots=64):
    circuit = _deep_circuit()
    fused = fuse_adjacent_gates(circuit)
    savings = fused_gate_savings(fused)
    unfused_s, (_, unfused_info) = _best_of(
        lambda: run_circuit_with_info(
            circuit, shots, seed=0, backend="statevector"
        )
    )
    fused_s, (_, fused_info) = _best_of(
        lambda: run_circuit_with_info(
            fused, shots, seed=0, backend="statevector"
        )
    )
    records = [
        bench_record(
            "deep-circuit",
            "unfused",
            unfused_s * 1e3,
            shots=shots,
            evolutions=unfused_info.evolutions,
            gates_fused=0,
        ),
        bench_record(
            "deep-circuit",
            "fused",
            fused_s * 1e3,
            shots=shots,
            evolutions=fused_info.evolutions,
            gates_fused=savings,
        ),
    ]
    speedup = unfused_s / fused_s
    summary = (
        f"deep circuit ({circuit.num_qubits} qubits, "
        f"{len(circuit.gates)} gates, {shots} shots, batched engine)\n"
        f"  unfused: {unfused_s * 1e3:8.1f} ms\n"
        f"  fused:   {fused_s * 1e3:8.1f} ms "
        f"({savings} gates fused away)\n"
        f"  speedup: {speedup:.2f}x (acceptance floor: 1.5x)"
    )
    return records, summary, speedup


def test_kernel_apply_throughput(benchmark):
    rows = benchmark.pedantic(_bench_kernels, rounds=1, iterations=1)
    write_bench_json(
        "kernels",
        [
            bench_record(name, config, wall_ms)
            for name, config, wall_ms in rows
        ],
    )
    lines = [
        f"  {name:<12} {config:<16} {wall_ms:8.2f} ms / {APPLY_REPS} sweeps"
        for name, config, wall_ms in rows
    ]
    write_result(
        "kernels_throughput.txt",
        "gate-apply throughput\n" + "\n".join(lines),
    )
    assert rows


def test_fusion_speedup_deep_circuit(benchmark):
    records, summary, speedup = benchmark.pedantic(
        _bench_fusion, rounds=1, iterations=1
    )
    write_bench_json("kernels", records)
    write_result("kernels_fusion_speedup.txt", summary)
    # The PR's acceptance criterion: compile-time fusion must buy at
    # least 1.5x wall-clock on a deep circuit.
    assert speedup >= 1.5, summary
