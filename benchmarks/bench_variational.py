"""Variational sweeps: compile-cache amortization and batched grids.

Two layers of the symbolic-parameter work (docs/variational.md),
measured:

- **Compile amortization**: a 120-point angle sweep of a parameterized
  kernel run two ways — one cached symbolic compile + ``bind()`` per
  point, vs a fresh compile per point (what a user without symbolic
  parameters is forced into).  Asserts the acceptance criterion:
  compile-once is >= 5x faster.
- **Batched grid evaluation**: a VQE energy landscape evaluated at G
  points as the rows of one ``BatchedStatevector`` vs G independent
  statevector runs.
- **Parameter-shift gradient**: the 2P shifted points of an 8-qubit
  ansatz as one grid (``parameter_shift_gradient``) vs two
  ``expectation`` calls per symbolic gate, the point-by-point form of
  the same rule kept here as the reference.

Writes ``BENCH_variational.json`` (in the ``EXPECTED_BENCH_JSON``
manifest) so the CI perf-regression gate tracks all three.
"""

import math
import time
from dataclasses import replace

import numpy as np
from conftest import bench_record, write_bench_json, write_result

from repro import (
    Parameter,
    angle,
    bit,
    clear_compile_cache,
    compile_kernel,
    qpu,
)
from repro.qcircuit.circuit import (
    Circuit,
    CircuitGate,
    bind_circuit,
    circuit_parameters,
)
from repro.sim.backend import run_circuit_with_info
from repro.variational import (
    evaluate_grid,
    expectation,
    hardware_efficient_ansatz,
    ising_observable,
    parameter_shift_gradient,
)

SWEEP_POINTS = 120
GRID_POINTS = 200
SHOTS = 16
GRADIENT_QUBITS = 8
GRADIENT_REPEATS = 5

theta = Parameter("theta")


# Three phase-carrying basis translations over 8 qubits: enough
# synthesis work per compile that the amortization (not the simulator)
# is what the compile-once/compile-per-point ratio measures — the
# realistic variational shape, where the ansatz compiles once and the
# loop evaluates it thousands of times.
@qpu(theta)
def sweep_kernel(theta: angle) -> bit[8]:
    return ('p'[8]
            | {'pppppppp'} >> {'pppppppp'@theta}
            | {'mmmmmmmm'} >> {'mmmmmmmm'@theta}
            | {'pppppppp'} >> {'pppppppp'@theta}
            | std[8].measure)


def _run_point(result, degrees: float) -> None:
    bound = result.bind(theta=degrees)
    run_circuit_with_info(
        bound.execution_circuit, shots=SHOTS, seed=0
    )


def _bench_sweep():
    angles = np.linspace(0.0, 360.0, SWEEP_POINTS)

    # disk=True is the explicit cold-cache mode: clearing only the
    # in-memory layer would let the persistent disk cache
    # (repro.exec.diskcache) serve every "recompile" as a fast
    # unpickle, and the per-point leg would no longer measure
    # compilation at all.
    clear_compile_cache(disk=True)
    start = time.perf_counter()
    for degrees in angles:
        result = compile_kernel(sweep_kernel, cache=True)
        _run_point(result, float(degrees))
    once_s = time.perf_counter() - start

    start = time.perf_counter()
    for degrees in angles:
        clear_compile_cache(disk=True)
        result = compile_kernel(sweep_kernel, cache=True)
        _run_point(result, float(degrees))
    per_point_s = time.perf_counter() - start

    records = [
        bench_record(
            "param-sweep", "compile-once", once_s * 1e3, shots=SHOTS
        ),
        bench_record(
            "param-sweep", "compile-per-point", per_point_s * 1e3,
            shots=SHOTS,
        ),
    ]
    speedup = per_point_s / once_s
    summary = (
        f"{SWEEP_POINTS}-point angle sweep ({SHOTS} shots/point)\n"
        f"  compile-once + bind(): {once_s * 1e3:9.1f} ms\n"
        f"  compile-per-point:     {per_point_s * 1e3:9.1f} ms\n"
        f"  speedup: {speedup:.1f}x (acceptance floor: 5x)"
    )
    return records, summary, speedup


def _bench_grid():
    circuit, params = hardware_efficient_ansatz(6, layers=2)
    observable = ising_observable(6, [(q, q + 1) for q in range(5)], h=0.5)
    rng = np.random.default_rng(0)
    grid = {
        p.name: rng.uniform(-np.pi, np.pi, GRID_POINTS) for p in params
    }

    start = time.perf_counter()
    batched = evaluate_grid(circuit, observable, grid)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    looped = np.array(
        [
            expectation(
                circuit,
                observable,
                {name: grid[name][g] for name in grid},
            )
            for g in range(GRID_POINTS)
        ]
    )
    looped_s = time.perf_counter() - start
    assert np.abs(batched - looped).max() < 1e-9

    records = [
        bench_record(
            "vqe-grid", "batched", batched_s * 1e3,
            evolutions=1,
        ),
        bench_record(
            "vqe-grid", "per-point", looped_s * 1e3,
            evolutions=GRID_POINTS,
        ),
    ]
    summary = (
        f"{GRID_POINTS}-point energy grid "
        f"({circuit.num_qubits} qubits, {len(params)} params)\n"
        f"  batched rows:        {batched_s * 1e3:9.1f} ms\n"
        f"  per-point loop:      {looped_s * 1e3:9.1f} ms\n"
        f"  speedup: {looped_s / batched_s:.1f}x"
    )
    return records, summary


def _per_point_gradient(circuit, observable, values):
    """The two-term shift rule with two ``expectation`` calls per
    symbolic gate occurrence, each on its own bound circuit."""
    names = [p.name for p in circuit_parameters(circuit)]
    bound = bind_circuit(circuit, values)
    gradient = np.zeros(len(names))
    for position, inst in enumerate(circuit.instructions):
        if not (isinstance(inst, CircuitGate) and inst.is_symbolic):
            continue
        angle = bound.instructions[position].params[0]
        energies = []
        for sign in (+1.0, -1.0):
            variant = list(bound.instructions)
            variant[position] = replace(
                variant[position], params=(angle + sign * math.pi / 2.0,)
            )
            shifted = Circuit(
                circuit.num_qubits, bound.num_bits, variant,
                list(bound.output_bits),
            )
            energies.append(expectation(shifted, observable))
        slope = (energies[0] - energies[1]) / 2.0
        for param, coefficient in inst.params[0].terms:
            gradient[names.index(param.name)] += coefficient * slope
    return gradient


def _best_ms(fn):
    """Best of ``GRADIENT_REPEATS`` timed calls, and the last result."""
    best = math.inf
    for _ in range(GRADIENT_REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3, result


def _bench_gradient():
    n = GRADIENT_QUBITS
    circuit, params = hardware_efficient_ansatz(n, layers=2)
    observable = ising_observable(n, [(q, q + 1) for q in range(n - 1)], h=0.5)
    rng = np.random.default_rng(0)
    values = {p.name: float(v) for p, v in zip(
        params, rng.uniform(-np.pi, np.pi, len(params))
    )}
    batched_ms, batched = _best_ms(
        lambda: parameter_shift_gradient(circuit, observable, values)
    )
    looped_ms, looped = _best_ms(
        lambda: _per_point_gradient(circuit, observable, values)
    )
    assert np.abs(batched - looped).max() < 1e-12
    rows = 2 * len(params)  # one symbolic gate per parameter
    records = [
        bench_record("vqe-gradient", "batched", batched_ms, evolutions=1),
        bench_record(
            "vqe-gradient", "per-point", looped_ms, evolutions=rows
        ),
    ]
    summary = (
        f"parameter-shift gradient ({n} qubits, {len(params)} params, "
        f"{rows} shifted points, best of {GRADIENT_REPEATS})\n"
        f"  batched ({rows}-row grid): {batched_ms:9.2f} ms\n"
        f"  per-point ({rows} runs):   {looped_ms:9.2f} ms\n"
        f"  speedup: {looped_ms / batched_ms:.1f}x"
    )
    return records, summary


def test_compile_once_amortizes_sweep(benchmark):
    records, summary, speedup = benchmark.pedantic(
        _bench_sweep, rounds=1, iterations=1
    )
    write_bench_json("variational", records)
    write_result("variational_sweep.txt", summary)
    # The PR's acceptance criterion: one symbolic compile must beat
    # recompiling per sweep point by at least 5x.
    assert speedup >= 5.0, summary


def test_batched_grid_evaluation(benchmark):
    records, summary = benchmark.pedantic(
        _bench_grid, rounds=1, iterations=1
    )
    write_bench_json("variational", records)
    write_result("variational_grid.txt", summary)
    assert records[0]["wall_ms"] > 0.0


def test_batched_parameter_shift_gradient(benchmark):
    records, summary = benchmark.pedantic(
        _bench_gradient, rounds=1, iterations=1
    )
    write_bench_json("variational", records)
    write_result("variational_gradient.txt", summary)
    assert records[0]["wall_ms"] > 0.0
