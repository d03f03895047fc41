"""The parallel shot executor (repro.exec.parallel).

Three layers of coverage:

- the pure planning functions (``chunk_plan``, ``derive_chunk_seeds``,
  ``resolve_workers``) and the exact ``RunInfo.merge`` arithmetic;
- the determinism contract — fixed ``(seed, workers)`` is bit-stable,
  the in-process fallback (``use_processes=False``) is bit-identical
  to the pooled run, and different worker counts give statistically
  equivalent histograms (margins from tests/stats.py);
- the ``parallel_workers=`` threading through every public entry point
  (``run_circuit``, ``simulate_kernel``, ``kernel.histogram()``),
  which all run shots through the one chunk plan:
  ``None`` means one worker, so a default call equals ``workers=1``.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.exec import (
    chunk_plan,
    derive_chunk_seeds,
    parallel_run_with_info,
    resolve_workers,
)
from repro.algorithms import alternating_secret, bernstein_vazirani
from repro.evaluation import asdf_kernel
from repro.noise import NoiseModel, depolarizing
from repro.pipeline import simulate_kernel, simulate_kernel_with_info
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement
from repro.qcircuit.examples import (
    conditioned_fanout_circuit,
    teleport_circuit,
)
from repro.service import ExecutionService, ServiceClient, ServiceConfig
from repro.service.protocol import counts_of
from repro.sim.backend import (
    RunInfo,
    bit_tuples,
    clear_marginal_memo,
    run_circuit_with_info,
)
from repro.sim.statevector import run_circuit
from tests.stats import assert_histograms_close


# ----------------------------------------------------------------------
# Planning: chunk_plan / derive_chunk_seeds / resolve_workers.
# ----------------------------------------------------------------------
def test_chunk_plan_splits_under_envelope_run_across_workers():
    # The plan hands every worker a piece, however few qubits.
    assert chunk_plan(1000, 4) == [250, 250, 250, 250]
    # Never more chunks than shots.
    assert chunk_plan(3, 4) == [1, 1, 1]


def test_chunk_plan_remainder_goes_to_a_short_final_chunk():
    assert chunk_plan(1001, 4) == [251, 251, 251, 248]
    assert sum(chunk_plan(1001, 4)) == 1001


def test_chunk_plan_single_worker_under_envelope_is_one_chunk():
    assert chunk_plan(500, 1) == [500]
    # No memory-envelope term: a huge run on one worker is one chunk,
    # and the batched engine bounds each sweep itself.
    assert chunk_plan(1 << 20, 1) == [1 << 20]


def test_chunk_plan_is_a_pure_function():
    assert chunk_plan(12345, 3) == chunk_plan(12345, 3)


def test_chunk_plan_rejects_zero_shots():
    with pytest.raises(SimulationError):
        chunk_plan(0, 2)


def test_derive_chunk_seeds_deterministic_distinct_uint63():
    seeds = derive_chunk_seeds(7, 16)
    assert seeds == derive_chunk_seeds(7, 16)
    assert len(set(seeds)) == 16
    assert all(0 <= s < 2**63 for s in seeds)
    # A prefix of a longer spawn is the same seeds: chunk i's seed
    # depends only on (seed, i), never on the total chunk count's tail.
    assert derive_chunk_seeds(7, 4) == derive_chunk_seeds(7, 16)[:4]


def test_derive_chunk_seeds_is_memoized_but_none_stays_random():
    expected = [
        int(child.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
        for child in np.random.SeedSequence(11).spawn(3)
    ]
    seeds = derive_chunk_seeds(11, 3)
    assert seeds == derive_chunk_seeds(11, 3) == expected
    seeds.append(0)  # callers get their own list
    assert derive_chunk_seeds(11, 3) == expected
    assert derive_chunk_seeds(None, 2) != derive_chunk_seeds(None, 2)


def test_resolve_workers():
    assert resolve_workers(3) == 3
    assert resolve_workers(None) == 1
    assert resolve_workers(0) == max(os.cpu_count() or 1, 1)
    with pytest.raises(SimulationError):
        resolve_workers(-1)


# ----------------------------------------------------------------------
# RunInfo.merge: exact arithmetic.
# ----------------------------------------------------------------------
def _info(**overrides):
    base = dict(
        backend="statevector",
        shots=100,
        evolutions=1,
        fast_path=False,
        batched=True,
        fused_ops=4,
        channel_applications=7,
        readout_applications=2,
        gates_fused=3,
        workers=1,
        chunks=1,
        compile_cache="memory",
    )
    base.update(overrides)
    return RunInfo(**base)


def test_merge_sums_additive_counters_exactly():
    merged = RunInfo.merge(
        [_info(), _info(shots=50, evolutions=2, channel_applications=1,
                       readout_applications=5, gates_fused=9, fused_ops=6,
                       chunks=2)]
    )
    assert merged.shots == 150
    assert merged.evolutions == 3
    assert merged.channel_applications == 8
    assert merged.readout_applications == 7
    assert merged.gates_fused == 12
    assert merged.fused_ops == 10
    assert merged.chunks == 3
    assert merged.backend == "statevector"
    assert merged.compile_cache == "memory"


def test_merge_flags_fast_path_all_batched_any():
    a = _info(fast_path=True, batched=False)
    b = _info(fast_path=False, batched=True)
    merged = RunInfo.merge([a, b])
    assert merged.fast_path is False
    assert merged.batched is True
    assert RunInfo.merge([a, a]).fast_path is True
    assert RunInfo.merge([a, a]).batched is False


def test_merge_fused_ops_none_poisons_the_sum():
    merged = RunInfo.merge([_info(), _info(fused_ops=None)])
    assert merged.fused_ops is None


def test_merge_mixed_provenances():
    merged = RunInfo.merge([_info(), _info(compile_cache="disk")])
    assert merged.compile_cache is None


def test_merge_workers_explicit_beats_input_max():
    infos = [_info(workers=2), _info(workers=3)]
    assert RunInfo.merge(infos).workers == 3
    assert RunInfo.merge(infos, workers=8).workers == 8


def test_merge_rejects_empty_and_mixed_backends():
    with pytest.raises(SimulationError):
        RunInfo.merge([])
    with pytest.raises(SimulationError):
        RunInfo.merge([_info(), _info(backend="density")])


# ----------------------------------------------------------------------
# The determinism contract.
# ----------------------------------------------------------------------
def test_same_seed_and_workers_is_bit_stable():
    circuit = teleport_circuit()
    first, _ = parallel_run_with_info(circuit, 400, seed=3, workers=2)
    second, _ = parallel_run_with_info(circuit, 400, seed=3, workers=2)
    assert np.array_equal(first, second)
    assert len(first) == 400


def test_serial_fallback_is_bit_identical_to_pooled_run():
    circuit = teleport_circuit()
    pooled, pooled_info = parallel_run_with_info(
        circuit, 400, seed=5, workers=2
    )
    serial, serial_info = parallel_run_with_info(
        circuit, 400, seed=5, workers=2, use_processes=False
    )
    assert np.array_equal(pooled, serial)
    assert pooled_info == serial_info
    assert pooled_info.workers == 2
    assert pooled_info.chunks == 2


def test_worker_counts_give_statistically_equivalent_histograms():
    # Different worker counts draw from different derived streams, so
    # the outputs differ bit-for-bit but must agree as distributions.
    circuit = teleport_circuit()
    one, _ = parallel_run_with_info(
        circuit, 4000, seed=11, workers=1, use_processes=False
    )
    four, _ = parallel_run_with_info(
        circuit, 4000, seed=11, workers=4, use_processes=False
    )
    assert not np.array_equal(one, four)
    assert_histograms_close(
        bit_tuples(one), bit_tuples(four), label="workers=1 vs workers=4"
    )


def test_single_worker_run_reports_one_chunk():
    _, info = parallel_run_with_info(
        teleport_circuit(), 300, seed=1, workers=1
    )
    assert (info.workers, info.chunks) == (1, 1)
    assert info.shots == 300


def test_noise_model_rides_through_the_parallel_path():
    model = NoiseModel().add_channel(depolarizing(0.05))
    results, info = parallel_run_with_info(
        conditioned_fanout_circuit(), 600, seed=9, workers=3,
        noise_model=model, use_processes=False,
    )
    assert len(results) == 600
    assert info.chunks == 3
    # Per-chunk noise counters sum: every shot applies channels.
    assert info.channel_applications > 0
    repeat, repeat_info = parallel_run_with_info(
        conditioned_fanout_circuit(), 600, seed=9, workers=3,
        noise_model=model, use_processes=False,
    )
    assert np.array_equal(results, repeat)
    assert info == repeat_info


def test_unknown_backend_fails_fast_in_the_parent():
    with pytest.raises(SimulationError):
        parallel_run_with_info(teleport_circuit(), 10, workers=2,
                               backend="no-such-backend")


def test_density_matrix_backend_through_the_parallel_path():
    results, info = parallel_run_with_info(
        teleport_circuit(), 200, seed=2, workers=2,
        backend="density_matrix", use_processes=False,
    )
    assert info.backend == "density_matrix"
    assert info.shots == 200
    assert info.chunks == 2


# ----------------------------------------------------------------------
# parallel_workers= threading through the public entry points.
# ----------------------------------------------------------------------
def test_run_circuit_threads_parallel_workers():
    circuit = teleport_circuit()
    via_entry = run_circuit(circuit, 400, seed=3, parallel_workers=2)
    direct, _ = parallel_run_with_info(circuit, 400, seed=3, workers=2)
    assert via_entry == bit_tuples(direct)


def test_run_circuit_with_info_records_sharding():
    _, info = run_circuit_with_info(
        teleport_circuit(), 400, seed=3, parallel_workers=2
    )
    assert (info.workers, info.chunks) == (2, 2)


def _bv_kernel(n=4):
    return bernstein_vazirani(alternating_secret(n))


def test_simulate_kernel_with_info_records_parallel_provenance():
    kernel = _bv_kernel()
    results, info = simulate_kernel_with_info(
        kernel, shots=64, seed=0, parallel_workers=2
    )
    assert len(results) == 64
    assert info.workers == 2
    assert info.chunks == 2
    assert info.compile_cache in {"compiled", "memory", "disk"}


def test_histogram_accepts_parallel_workers():
    kernel = _bv_kernel()
    counts = kernel.histogram(shots=128, seed=0, parallel_workers=2)
    assert sum(counts.values()) == 128
    serial = kernel.histogram(shots=128, seed=0)
    # Same distribution support on a deterministic BV oracle: every
    # shot reads back the secret regardless of sharding.
    assert set(counts) == set(serial)


def test_run_circuit_default_is_bit_identical_to_one_worker():
    circuit = teleport_circuit()
    default = run_circuit(circuit, 400, seed=3)
    assert default == run_circuit(circuit, 400, seed=3, parallel_workers=1)
    _, info = run_circuit_with_info(circuit, 400, seed=3)
    assert (info.workers, info.chunks) == (1, 1)


def _ghz(n):
    circuit = Circuit(num_qubits=n, num_bits=n)
    circuit.add(CircuitGate("h", (0,)))
    for q in range(n - 1):
        circuit.add(CircuitGate("x", (q + 1,), controls=(q,)))
    for q in range(n):
        circuit.add(Measurement(q, q))
    return circuit


def test_one_worker_fast_path_is_one_chunk_and_one_evolution():
    # The plan has no memory-envelope term, so a terminal-measurement
    # circuit the fast path evolves once is not re-split into
    # envelope-sized chunks.
    clear_marginal_memo()
    results, info = run_circuit_with_info(
        _ghz(18), 4096, seed=0, parallel_workers=1
    )
    assert (info.chunks, info.evolutions) == (1, 1)
    assert info.fast_path
    assert {sum(bits) for bits in results} <= {0, 18}


def test_simulate_kernel_matches_the_service_for_seed_and_workers():
    # Simon's outputs are spread over many bitstrings, so equal counts
    # mean equal seeds and chunking, not just a deterministic oracle.
    library = simulate_kernel(
        asdf_kernel("simon", 6), shots=256, seed=7, parallel_workers=2
    )

    async def via_service():
        config = ServiceConfig(
            use_processes=False, parallel_workers=2, executors=1
        )
        async with ExecutionService(config) as service:
            return await ServiceClient(service).run(
                kernel="simon", n=6, shots=256, seed=7, workers=2
            )

    response = asyncio.run(via_service())
    assert response["ok"], response
    assert response["result"]["info"]["chunks"] == 2
    assert response["result"]["counts"] == counts_of(library)
