"""Tests for the pluggable simulation backends (repro.sim.backend).

Covers the registry, terminal-measurement detection, the fast path on
fused and unfused circuits, the gate-matrix cache, and — most
importantly — statistical agreement between vectorized sampling and
the exact density-matrix distribution.
"""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.qcircuit.fusion import fuse_adjacent_gates
from repro.sim import (
    DensityMatrixBackend,
    SimBackend,
    VectorizedStatevectorBackend,
    apply_gates_to_state,
    available_backends,
    clear_marginal_memo,
    gate_matrix,
    get_backend,
    register_backend,
    run_circuit,
    run_circuit_with_info,
    terminal_measurement_plan,
)
from repro.sim.backend import _REGISTRY


from tests.stats import (  # noqa: E402  (shared statistical helpers)
    assert_matches_distribution,
    histogram,
)


def g(name, targets, controls=(), params=(), ctrl_states=(), condition=None):
    return CircuitGate(
        name,
        tuple(targets),
        tuple(controls),
        tuple(params),
        tuple(ctrl_states),
        condition,
    )


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
def test_both_backends_registered():
    assert available_backends() == ("density_matrix", "statevector")


def test_get_backend_resolves_names_and_instances():
    assert isinstance(get_backend("statevector"), VectorizedStatevectorBackend)
    assert isinstance(get_backend("density_matrix"), DensityMatrixBackend)
    instance = VectorizedStatevectorBackend()
    assert get_backend(instance) is instance


def test_unknown_backend_lists_registered():
    with pytest.raises(SimulationError, match="statevector"):
        get_backend("tensor-network")


def test_register_backend_rejects_duplicates():
    with pytest.raises(SimulationError, match="already registered"):
        register_backend("statevector", VectorizedStatevectorBackend)


def test_register_custom_backend():
    class EchoBackend(SimBackend):
        name = "echo-test"

        def run_array_with_info(self, circuit, shots=1, seed=0,
                                noise_model=None):
            from repro.sim.backend import RunInfo

            width = len(circuit.output_bits or range(circuit.num_bits))
            bits = np.zeros((shots, width), dtype=np.uint8)
            return bits, RunInfo(self.name, shots, 0, False)

    register_backend("echo-test", EchoBackend)
    try:
        circuit = Circuit(num_qubits=1, num_bits=1)
        circuit.add(g("x", [0]))
        circuit.add(Measurement(0, 0))
        assert run_circuit(circuit, shots=3, backend="echo-test") == [(0,)] * 3
    finally:
        del _REGISTRY["echo-test"]


# ----------------------------------------------------------------------
# Terminal-measurement detection.
# ----------------------------------------------------------------------
def test_terminal_plan_simple():
    circuit = Circuit(num_qubits=2, num_bits=2)
    circuit.add(g("h", [0]))
    circuit.add(g("x", [1], controls=[0]))
    circuit.add(Measurement(0, 0))
    circuit.add(Measurement(1, 1))
    plan = terminal_measurement_plan(circuit)
    assert plan is not None and len(plan) == 2


def test_terminal_plan_allows_trailing_resets():
    # Simon-style: measure half the register, discard (reset) the rest.
    circuit = Circuit(num_qubits=2, num_bits=1)
    circuit.add(g("h", [0]))
    circuit.add(Measurement(0, 0))
    circuit.add(Reset(1))
    assert terminal_measurement_plan(circuit) is not None


def test_terminal_plan_rejects_measure_after_reset():
    circuit = Circuit(num_qubits=1, num_bits=2)
    circuit.add(g("h", [0]))
    circuit.add(Measurement(0, 0))
    circuit.add(Reset(0))
    circuit.add(Measurement(0, 1))
    assert terminal_measurement_plan(circuit) is None


def test_terminal_plan_rejects_mid_circuit_measurement():
    circuit = Circuit(num_qubits=1, num_bits=2)
    circuit.add(g("h", [0]))
    circuit.add(Measurement(0, 0))
    circuit.add(g("h", [0]))
    circuit.add(Measurement(0, 1))
    assert terminal_measurement_plan(circuit) is None


def test_terminal_plan_rejects_conditioned_gates():
    circuit = Circuit(num_qubits=2, num_bits=2)
    circuit.add(Measurement(0, 0))
    circuit.add(g("x", [1], condition=(0, 1)))
    circuit.add(Measurement(1, 1))
    assert terminal_measurement_plan(circuit) is None


def test_terminal_plan_rejects_reset_mid_evolution():
    circuit = Circuit(num_qubits=1, num_bits=1)
    circuit.add(g("h", [0]))
    circuit.add(Reset(0))
    circuit.add(Measurement(0, 0))
    assert terminal_measurement_plan(circuit) is None


# ----------------------------------------------------------------------
# Gate fusion and the matrix cache.
# ----------------------------------------------------------------------
def test_gate_matrix_is_cached_and_frozen():
    assert gate_matrix("h") is gate_matrix("h")
    assert gate_matrix("rz", (0.25,)) is gate_matrix("rz", (0.25,))
    with pytest.raises(ValueError):
        gate_matrix("h")[0, 0] = 7


def _fuse_single_qubit_runs(gates, num_qubits):
    circuit = Circuit(num_qubits=num_qubits)
    for gate in gates:
        circuit.add(gate)
    return fuse_adjacent_gates(circuit, max_qubits=1, layer=False).instructions


def test_fusion_collapses_single_qubit_runs():
    gates = [
        g("h", [0]),
        g("t", [0]),
        g("x", [1]),
        g("x", [1], controls=[0]),
        g("h", [1]),
        g("s", [1]),
    ]
    fused = _fuse_single_qubit_runs(gates, 2)
    # h;t on qubit 0 and x on qubit 1 flush before the CX, then h;s fuse.
    assert len(fused) == 4
    assert np.allclose(fused[0].matrix, gate_matrix("t") @ gate_matrix("h"))
    assert np.allclose(
        apply_gates_to_state(fused, 2), apply_gates_to_state(gates, 2)
    )


def test_fusion_preserves_program_order_across_controls():
    gates = [
        g("h", [0]),
        g("x", [1], controls=[0]),
        g("h", [0]),
    ]
    fused = _fuse_single_qubit_runs(gates, 2)
    assert len(fused) == 3
    assert np.allclose(
        apply_gates_to_state(fused, 2), apply_gates_to_state(gates, 2)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fusion_matches_unfused_on_random_circuits(seed):
    # The fast path applies the execution circuit as it is, so a fused
    # and an unfused form of one circuit must sample the same bits.
    rng = np.random.default_rng(seed)
    names = ["h", "t", "s", "x", "rz", "rx"]
    circuit = Circuit(num_qubits=3, num_bits=3)
    for _ in range(30):
        name = names[rng.integers(len(names))]
        qubit = int(rng.integers(3))
        params = (float(rng.uniform(0, math.pi)),) if name in ("rz", "rx") else ()
        if rng.random() < 0.3:
            other = int(rng.integers(3))
            if other != qubit:
                circuit.add(g("x", [qubit], controls=[other]))
                continue
        circuit.add(g(name, [qubit], params=params))
    for q in range(3):
        circuit.add(Measurement(q, q))
    fused = fuse_adjacent_gates(circuit)
    assert len(fused.instructions) <= len(circuit.instructions)
    plain_bits, plain = run_circuit_with_info(circuit, 500, seed=seed)
    fused_bits, info = run_circuit_with_info(fused, 500, seed=seed)
    assert plain.fast_path and info.fast_path
    assert info.fused_ops == len(fused.instructions) - 3
    assert fused_bits == plain_bits


# ----------------------------------------------------------------------
# Vectorized sampling vs the exact density-matrix distribution.
# ----------------------------------------------------------------------
def test_teleportation_histograms_match():
    from repro.qcircuit import teleport_circuit

    circuit = teleport_circuit(theta=0.7)
    shots = 2000
    exact = DensityMatrixBackend().output_distribution(circuit)
    sampled, vector_info = run_circuit_with_info(
        circuit, shots=shots, seed=7, backend="statevector"
    )
    # Conditioned gates rule out the terminal fast path; the batched
    # trajectory engine evolves all shots in one sweep instead.
    assert not vector_info.fast_path
    assert vector_info.batched
    assert vector_info.evolutions == 1
    # Within the shot-count-derived TVD threshold (tests/stats.py).
    assert_matches_distribution(sampled, exact, label="teleport")
    # And the physics holds: P(1) = sin^2(0.35).
    expected = math.sin(0.35) ** 2
    sigma = math.sqrt(expected * (1 - expected) * shots)
    ones = sum(outcome[0] for outcome in sampled)
    assert abs(ones - expected * shots) < 5 * sigma


def test_grover_histograms_match():
    from repro.algorithms import grover

    circuit = grover(3).compile(cache=True).optimized_circuit
    shots = 2000
    exact = DensityMatrixBackend().output_distribution(circuit)
    # Other tests run this circuit too; drop its memoized marginal so
    # this run performs (and reports) the evolution.
    clear_marginal_memo()
    sampled, info = run_circuit_with_info(
        circuit, shots=shots, seed=11, backend="statevector"
    )
    assert info.fast_path and info.evolutions == 1
    assert_matches_distribution(sampled, exact, label="grover")
    # The samples concentrate on the marked item.
    assert histogram(sampled)[(1, 1, 1)] > 0.9 * shots


def test_mid_circuit_measurement_takes_batched_path_and_matches():
    circuit = Circuit(num_qubits=1, num_bits=2, output_bits=[0, 1])
    circuit.add(g("h", [0]))
    circuit.add(Measurement(0, 0))
    circuit.add(g("h", [0]))
    circuit.add(Measurement(0, 1))
    shots = 1500
    exact = DensityMatrixBackend().output_distribution(circuit)
    sampled, info = run_circuit_with_info(
        circuit, shots=shots, seed=3, backend="statevector"
    )
    assert not info.fast_path
    assert info.batched and info.evolutions == 1
    assert_matches_distribution(
        sampled, exact, outcomes=4, label="mid-circuit"
    )
    # All four outcomes occur: the second measurement is a fresh coin.
    assert len(histogram(sampled)) == 4


def test_ghz_sampling_matches_exact_distribution():
    circuit = Circuit(num_qubits=3, num_bits=3)
    circuit.add(g("h", [0]))
    circuit.add(g("x", [1], controls=[0]))
    circuit.add(g("x", [2], controls=[1]))
    for qubit in range(3):
        circuit.add(Measurement(qubit, qubit))
    shots = 4000
    clear_marginal_memo()
    sampled, info = run_circuit_with_info(
        circuit, shots=shots, seed=5, backend="statevector"
    )
    assert info.fast_path and info.evolutions == 1
    counts = histogram(sampled)
    assert set(counts) == {(0, 0, 0), (1, 1, 1)}
    sigma = math.sqrt(shots * 0.25)
    assert abs(counts[(0, 0, 0)] - shots / 2) < 5 * sigma


def test_vectorized_respects_output_bits_and_duplicate_measures():
    circuit = Circuit(num_qubits=2, num_bits=3, output_bits=[2, 0])
    circuit.add(g("x", [0]))
    circuit.add(Measurement(0, 0))
    circuit.add(Measurement(0, 2))
    circuit.add(Measurement(1, 1))
    (outcome,) = run_circuit(circuit, backend="statevector")
    assert outcome == (1, 1)


def test_vectorized_no_measurements():
    circuit = Circuit(num_qubits=1, num_bits=2)
    circuit.add(g("h", [0]))
    results = run_circuit(circuit, shots=5, backend="statevector")
    assert results == [(0, 0)] * 5


# ----------------------------------------------------------------------
# The terminal-marginal memo: one evolution per circuit content, every
# later run only draws shots.
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_memo():
    clear_marginal_memo()
    yield
    clear_marginal_memo()


def _memo_circuit(theta=0.3, num_qubits=4, measured=None):
    circuit = Circuit(num_qubits=num_qubits, num_bits=num_qubits)
    circuit.add(g("h", [0]))
    for q in range(num_qubits - 1):
        circuit.add(g("ry", [q + 1], controls=[q], params=[theta]))
    for q in range(num_qubits) if measured is None else measured:
        circuit.add(Measurement(q, q))
    return circuit


def _evolutions(circuit, shots=64, seed=0):
    return run_circuit_with_info(circuit, shots, seed=seed)[1].evolutions


def test_memo_repeat_run_is_bit_identical_without_evolving(fresh_memo):
    from repro.obs import metrics

    lookups = metrics.instruments()["repro_sim_marginal_memo_total"]
    sweeps = metrics.instruments()["repro_sim_sweeps_total"]
    before = (
        lookups.value(outcome="hit"),
        lookups.value(outcome="miss"),
        sweeps.value(engine="fast-path"),
    )
    circuit = fuse_adjacent_gates(_memo_circuit())
    first, miss = run_circuit_with_info(circuit, 300, seed=4)
    second, hit = run_circuit_with_info(circuit, 300, seed=4)
    assert miss.fast_path and hit.fast_path
    assert (miss.evolutions, hit.evolutions) == (1, 0)
    assert second == first
    # Keyed by content, not identity: an equal, separately built
    # circuit hits, and so does any other seed or shot count.
    clone_results, clone = run_circuit_with_info(
        fuse_adjacent_gates(_memo_circuit()), 300, seed=4
    )
    assert clone.evolutions == 0 and clone_results == first
    assert _evolutions(circuit, shots=17, seed=9) == 0
    after = (
        lookups.value(outcome="hit"),
        lookups.value(outcome="miss"),
        sweeps.value(engine="fast-path"),
    )
    assert [b - a for a, b in zip(before, after)] == [3, 1, 1]


def test_memo_edited_circuit_evolves_again(fresh_memo):
    circuit = _memo_circuit(theta=2.0, measured=[0, 1, 2])
    assert _evolutions(circuit) == 1
    assert _evolutions(circuit) == 0
    circuit.add(Measurement(3, 3))
    results, info = run_circuit_with_info(circuit, 64, seed=0)
    assert info.evolutions == 1
    assert {bits[3] for bits in results} == {0, 1}
    circuit.instructions[0] = g("x", [0])
    assert _evolutions(circuit) == 1


def test_memo_concurrent_threads_match_serial(fresh_memo):
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.sim import backend

    circuits = [
        fuse_adjacent_gates(_memo_circuit(theta, num_qubits=10))
        for theta in (0.3, 0.7)
    ]
    serial = [
        run_circuit(circuits[seed % 2], 128, seed=seed) for seed in range(8)
    ]
    clear_marginal_memo()
    barrier = threading.Barrier(8)

    def run(seed):
        barrier.wait(timeout=30)
        return run_circuit(circuits[seed % 2], 128, seed=seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(run, seed) for seed in range(8)]
            threaded = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    # Both circuits ended up resident: no insert was lost.
    assert len(backend._MARGINAL_MEMO) == 2
    assert [_evolutions(circuit) for circuit in circuits] == [0, 0]


def test_memo_bounds_evict(fresh_memo, monkeypatch):
    from repro.sim import backend

    circuits = [_memo_circuit(theta) for theta in (0.1, 0.2, 0.3)]
    monkeypatch.setattr(backend, "MARGINAL_MEMO_MAX_ENTRIES", 2)
    assert [_evolutions(c) for c in circuits] == [1, 1, 1]
    assert len(backend._MARGINAL_MEMO) == 2
    # Least recently used first out: the oldest circuit evolves again.
    assert [_evolutions(c) for c in circuits[::-1]] == [0, 0, 1]

    # A 4-qubit marginal is 16 float64s; a budget of one entry's bytes
    # keeps only the newest, and a smaller one memoizes nothing.
    clear_marginal_memo()
    monkeypatch.setattr(backend, "MARGINAL_MEMO_MAX_BYTES", 16 * 8)
    assert [_evolutions(c) for c in circuits[:2]] == [1, 1]
    assert len(backend._MARGINAL_MEMO) == 1
    assert [_evolutions(c) for c in circuits[1::-1]] == [0, 1]
    clear_marginal_memo()
    monkeypatch.setattr(backend, "MARGINAL_MEMO_MAX_BYTES", 16 * 8 - 1)
    assert [_evolutions(circuits[0]) for _ in range(2)] == [1, 1]
    assert len(backend._MARGINAL_MEMO) == 0


def test_sampling_cdf_draws_exactly_what_choice_draws():
    # The memo keeps each marginal's CDF, so a hit samples with one
    # searchsorted; that must be the draw Generator.choice makes from
    # the marginal.
    from repro.sim.backend import sampling_cdf

    rng = np.random.default_rng(2026)
    for index in range(200):
        size = int(rng.integers(1, 2 ** int(rng.integers(1, 13)) + 1))
        marginal = rng.random(size) ** 3
        if index % 4 == 0:
            marginal[rng.random(size) < 0.5] = 0.0
            marginal[rng.integers(size)] = 1.0
        marginal /= marginal.sum()
        shots = int(rng.integers(1, 2000))
        expected = np.random.default_rng(index).choice(
            size, shots, p=marginal
        )
        drawn = sampling_cdf(marginal).searchsorted(
            np.random.default_rng(index).random(shots), side="right"
        )
        assert np.array_equal(drawn, expected), index


def test_marginal_is_memoized_peeks_without_counting(fresh_memo):
    from repro.obs import metrics
    from repro.sim.backend import marginal_is_memoized

    lookups = metrics.instruments()["repro_sim_marginal_memo_total"]
    circuit = _memo_circuit(theta=1.1)
    before = (lookups.value(outcome="hit"), lookups.value(outcome="miss"))
    assert not marginal_is_memoized(circuit)
    assert _evolutions(circuit) == 1
    assert marginal_is_memoized(circuit)
    after = (lookups.value(outcome="hit"), lookups.value(outcome="miss"))
    assert after == (before[0], before[1] + 1)  # only the run counted
    # Mid-circuit measurement never takes the fast path.
    circuit.add(g("x", [0]))
    assert not marginal_is_memoized(circuit)


def test_engines_return_uint8_arrays_and_the_boundary_tuples():
    circuit = _memo_circuit(theta=0.7)
    for name in available_backends():
        bits, info = get_backend(name).run_array_with_info(circuit, 16, 3)
        assert bits.dtype == np.uint8 and bits.shape == (16, 4)
        assert bits.flags.c_contiguous
        results, _ = get_backend(name).run_with_info(circuit, 16, 3)
        assert results == [tuple(row) for row in bits.tolist()]
        assert all(type(bit) is int for bit in results[0])
    public = run_circuit(circuit, 16, seed=3)
    assert isinstance(public, list) and isinstance(public[0], tuple)


#: The service-warm request catalog: the five suite algorithms at
#: n = 6, 7, 8 plus four ``source`` Bernstein-Vazirani kernels.
_WARM_SOURCE = """\
from repro.frontend.decorators import Bits, N, bit, cfunc, classical, qpu

SECRET = Bits.from_str("{secret}")


@classical[N](SECRET)
def f(secret: bit[N], x: bit[N]) -> bit:
    return (secret & x).xor_reduce()


@qpu[N](f)
def kernel(f: cfunc[N, 1]) -> bit[N]:
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
"""
_WARM_CATALOG = [
    {"kernel": algorithm, "n": n}
    for algorithm in ("bv", "dj", "grover", "simon", "period")
    for n in (6, 7, 8)
] + [
    {"source": _WARM_SOURCE.format(secret=secret)}
    for secret in ("110100", "1011001", "11100101", "01101110")
]

#: sha256 of the catalog's counts at seeds 11 and 12, recorded before
#: the memo existed (every request evolved its circuit per chunk).
_WARM_COUNTS_SHA256 = (
    "7a9d906b43df3a64c306a87979368f51942ffc98f13a45cd44b017772c920475"
)


def test_memo_keeps_service_warm_counts_identical(fresh_memo):
    import asyncio
    import hashlib
    import json

    from repro.service import ExecutionService, ServiceClient, ServiceConfig

    async def sweep(client):
        digest = []
        for seed in (11, 12):
            for index, fields in enumerate(_WARM_CATALOG):
                response = await client.run(
                    id=index, shots=256, seed=seed, **fields
                )
                assert response["ok"], response
                counts = sorted(response["result"]["counts"].items())
                digest.append((seed, index, counts))
        return hashlib.sha256(json.dumps(digest).encode()).hexdigest()

    async def scenario():
        config = ServiceConfig(
            use_processes=False, parallel_workers=2, executors=2
        )
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            # The first sweep evolves; the second is all memo hits.
            return await sweep(client), await sweep(client)

    assert asyncio.run(scenario()) == (_WARM_COUNTS_SHA256,) * 2


# ----------------------------------------------------------------------
# Backend threading through the driver entry points.
# ----------------------------------------------------------------------
def test_simulate_kernel_backend_kwarg():
    from repro.algorithms import bernstein_vazirani
    from repro.pipeline import simulate_kernel

    kernel = bernstein_vazirani("1011")
    by_vector = simulate_kernel(kernel, shots=4, backend="statevector")
    by_density = simulate_kernel(kernel, shots=4, backend="density_matrix")
    assert [str(b) for b in by_vector] == ["1011"] * 4
    assert [str(b) for b in by_density] == ["1011"] * 4


def test_kernel_call_backend_kwarg():
    from repro.algorithms import bernstein_vazirani

    kernel = bernstein_vazirani("110")
    assert str(kernel(backend="density_matrix")) == "110"
    assert str(kernel(backend="statevector")) == "110"
    hist = kernel.histogram(shots=16, backend="statevector")
    assert hist == {"110": 16}
