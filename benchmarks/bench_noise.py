"""Noise subsystem benchmarks: ideal vs density-matrix vs unraveled.

Not a paper figure — the paper's evaluation (§7–§8) executes ideal
circuits only — but the noisy-execution analogue of the Fig. 11 shot
benchmarks: fidelity-vs-noise-strength tables from the exact
density-matrix reference, convergence of the stochastic Kraus
unraveling to it, and the wall-clock of the exact ``density_matrix``
backend and the batched unraveled ``statevector`` backend under the
same model.
"""

import math
import time

from conftest import bench_record, write_bench_json, write_result

from repro.evaluation import (
    format_noisy_report,
    noisy_execution_report,
)
from repro.noise import standard_noise_model
from repro.qcircuit.examples import teleport_circuit
from repro.sim.backend import run_circuit_with_info
from repro.sim.density import DensityMatrixBackend
from tests.stats import assert_matches_distribution


def test_noise_fidelity_vs_strength_table():
    """The headline table: every workload/backend across strengths,
    with exact fidelity-vs-ideal and per-backend sampling TVD."""
    rows = noisy_execution_report(shots=2048)
    write_result("noise_fidelity.txt", format_noisy_report(rows))
    write_bench_json(
        "noise",
        [
            bench_record(
                f"{row.workload}-p{row.strength:g}",
                row.backend,
                row.seconds * 1e3,
                shots=row.shots,
                evolutions=row.evolutions,
            )
            for row in rows
        ],
    )
    by_key = {
        (r.workload, r.backend, r.strength): r for r in rows
    }
    workloads = sorted({r.workload for r in rows})
    strengths = sorted({r.strength for r in rows})
    for workload in workloads:
        # Fidelity starts at 1 and decays monotonically with strength.
        fidelities = [
            by_key[(workload, "density_matrix", p)].fidelity
            for p in strengths
        ]
        assert math.isclose(fidelities[0], 1.0, rel_tol=1e-12), workload
        assert all(
            earlier >= later
            for earlier, later in zip(fidelities, fidelities[1:])
        ), (workload, fidelities)
        assert fidelities[-1] < 1.0, workload
        for strength in strengths:
            density = by_key[(workload, "density_matrix", strength)]
            unraveled = by_key[(workload, "statevector", strength)]
            # Both backends agree on the model's fidelity (it is a
            # property of the exact distribution)...
            assert density.fidelity == unraveled.fidelity
            # ...and both sample it faithfully at 2048 shots.
            assert density.sampling_tvd < 0.1, (workload, strength)
            assert unraveled.sampling_tvd < 0.1, (workload, strength)
            # Honest telemetry: noise events appear iff noise is on.
            for row in (density, unraveled):
                if strength == 0.0:
                    assert row.channel_applications == 0
                else:
                    assert row.channel_applications > 0
                    assert row.readout_applications > 0


def test_noise_unraveled_timing_smoke():
    """Teleport at 4096 shots under depolarizing + readout noise: the
    batched unraveling must stay one sweep with honest per-sweep noise
    counts (the noisy analogue of the batched-teleport smoke)."""
    circuit = teleport_circuit()
    model = standard_noise_model(0.05)
    shots = 4096

    # Best of three, like the other timing smokes, so a scheduler
    # stall on a contended CI runner cannot inflate the recorded time.
    batched_seconds = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _, batched_info = run_circuit_with_info(
            circuit, shots=shots, seed=0,
            backend="statevector", noise_model=model,
        )
        batched_seconds = min(
            batched_seconds, time.perf_counter() - start
        )
    assert batched_info.batched and batched_info.evolutions == 1
    # Per-sweep event counts: 9 single-qubit channel applications
    # (rx, h, 2x cx on two qubits each, h, two conditioned
    # corrections), 3 measurements through the confusion matrix.
    assert batched_info.channel_applications == 9
    assert batched_info.readout_applications == 3

    start = time.perf_counter()
    density_results, density_info = run_circuit_with_info(
        circuit, shots=shots, seed=0,
        backend="density_matrix", noise_model=model,
    )
    density_seconds = time.perf_counter() - start
    assert density_info.evolutions == 1

    write_result(
        "noise_teleport_timing.txt",
        f"teleportation under standard_noise_model(0.05), {shots} shots\n"
        f"statevector (batched unraveling): {batched_seconds:.4f} s "
        f"({batched_info.evolutions} sweep, "
        f"{batched_info.channel_applications} channel events)\n"
        f"density_matrix (exact):           {density_seconds:.4f} s "
        f"({density_info.evolutions} evolution)\n",
    )
    write_bench_json(
        "noise",
        [
            bench_record(
                "teleport-noisy-4096shots", "statevector-batched",
                batched_seconds * 1e3,
                shots=shots, evolutions=batched_info.evolutions,
            ),
            bench_record(
                "teleport-noisy-4096shots", "density_matrix",
                density_seconds * 1e3,
                shots=shots, evolutions=density_info.evolutions,
            ),
        ],
    )

    # And the fast engine is still *correct*: its histogram converges
    # to the density-matrix reference distribution.
    exact = DensityMatrixBackend().output_distribution(circuit, model)
    unraveled_results, _ = run_circuit_with_info(
        circuit, shots=shots, seed=0,
        backend="statevector", noise_model=model,
    )
    assert_matches_distribution(
        unraveled_results, exact, label="noisy teleport smoke"
    )
    assert_matches_distribution(
        density_results, exact, label="density sampling smoke"
    )
