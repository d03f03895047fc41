"""Sampled outputs of every statevector execution path, pinned by digest.

One sha256 per group covers, for fixed circuits and seeds:

- ``trajectory``: the ``statevector`` backend's outputs and noise
  counters on teleportation and seeded random trajectory circuits
  (mid-circuit measurement, reset, classically conditioned gates),
  noiseless and under two noise models — the batched trajectory engine;
- ``fast_path``: the ``statevector`` backend on terminal circuits,
  plain and fused, including the compiled benchmark algorithms;
- ``module``: ``interpret_module`` bits on compiled kernels;
- ``chunked``: in-process ``parallel_run_with_info`` at 1, 2 and 3
  workers on some of the circuits above, noiseless and noisy, where
  chunk *i* draws from ``chunk_stream(seed, i)``, plus the counts (in
  key order) and chunk count of one warm service request.

The ``module`` digest was recorded before the engines were refactored.
The ``trajectory`` and ``fast_path`` digests were recomputed, from these
builders, on the code that still had a per-shot backend beside the
batched engine, so removing that backend left every pinned
``statevector`` output in place.  The ``chunked`` digest was recorded
when the chunk streams replaced ``SeedSequence``-derived chunk seeds;
the other three did not move with that change.  Any change to
sampling, projection, Kraus selection, readout flips or the chunk
streams shows up here as a digest mismatch.
"""

import asyncio
import hashlib
import json

import numpy as np
import pytest

from repro.evaluation import asdf_kernel
from repro.exec.parallel import parallel_run_with_info
from repro.noise import (
    NoiseModel,
    ReadoutError,
    amplitude_damping,
    depolarizing,
    phase_flip,
    standard_noise_model,
)
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.qcircuit.examples import teleport_circuit
from repro.qcircuit.fusion import fuse_adjacent_gates
from repro.service import ExecutionService, ServiceClient, ServiceConfig
from repro.sim import clear_marginal_memo, get_backend, interpret_module

_ROTATIONS = ("p", "rx", "ry", "rz")
_FIXED = ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg")


def _random_gate(rng, num_qubits, condition=None):
    order = [int(q) for q in rng.permutation(num_qubits)]
    if num_qubits >= 2 and rng.random() < 0.1:
        return CircuitGate("swap", tuple(order[:2]), condition=condition)
    if rng.random() < 0.4:
        name = _ROTATIONS[rng.integers(len(_ROTATIONS))]
        params = (float(rng.uniform(-np.pi, np.pi)),)
    else:
        name = _FIXED[rng.integers(len(_FIXED))]
        params = ()
    num_controls = int(rng.integers(0, min(2, num_qubits - 1) + 1))
    controls = tuple(order[1 : 1 + num_controls])
    ctrl_states = tuple(int(rng.integers(2)) for _ in controls)
    return CircuitGate(
        name, (order[0],), controls, params, ctrl_states,
        condition=condition,
    )


def _trajectory_circuit(rng) -> Circuit:
    num_qubits = int(rng.integers(2, 5))
    circuit = Circuit(num_qubits, num_qubits)
    for _ in range(int(rng.integers(2, 7))):
        circuit.add(_random_gate(rng, num_qubits))
    measured = int(rng.integers(num_qubits))
    circuit.add(Measurement(measured, measured))
    if rng.random() < 0.5:
        circuit.add(Reset(measured))
    circuit.add(
        _random_gate(
            rng, num_qubits, condition=(measured, int(rng.integers(2)))
        )
    )
    for _ in range(int(rng.integers(0, 5))):
        circuit.add(_random_gate(rng, num_qubits))
    for qubit in range(num_qubits):
        if qubit != measured:
            circuit.add(Measurement(qubit, qubit))
    circuit.output_bits = list(range(num_qubits))
    return circuit


def _terminal_circuit(rng) -> Circuit:
    num_qubits = int(rng.integers(1, 6))
    circuit = Circuit(num_qubits, num_qubits)
    for _ in range(int(rng.integers(1, 12))):
        circuit.add(_random_gate(rng, num_qubits))
    for qubit in range(num_qubits):
        circuit.add(Measurement(qubit, qubit))
    circuit.output_bits = list(range(num_qubits))
    return circuit


def _noise_models():
    mixed = (
        NoiseModel()
        .add_channel(amplitude_damping(0.1), gates=("h", "rx", "ry"))
        .add_channel(depolarizing(0.08, num_qubits=2))
        .add_channel(phase_flip(0.05), qubits=(0,))
        .add_readout_error(ReadoutError.asymmetric(0.04, 0.07))
    )
    return (None, standard_noise_model(0.05), mixed)


def _run_record(backend, circuit, shots, seed, noise_model=None):
    results, info = get_backend(backend).run_with_info(
        circuit, shots, seed, noise_model=noise_model
    )
    return [
        [list(row) for row in results],
        info.evolutions,
        info.channel_applications,
        info.readout_applications,
    ]


def _trajectory_records():
    rng = np.random.default_rng(2024)
    circuits = [teleport_circuit()] + [
        _trajectory_circuit(rng) for _ in range(24)
    ]
    records = []
    for index, circuit in enumerate(circuits):
        for model_index, model in enumerate(_noise_models()):
            for seed in (0, 5):
                records.append(
                    [
                        index, model_index, seed,
                        _run_record("statevector", circuit, 24, seed, model),
                    ]
                )
    return records


def _fast_path_records():
    rng = np.random.default_rng(7)
    circuits = [_terminal_circuit(rng) for _ in range(24)]
    for algorithm in ("bv", "dj", "grover", "simon", "period"):
        for n in (3, 4):
            result = asdf_kernel(algorithm, n).compile(
                pipeline="default", cache=True
            )
            circuits.append(result.decomposed_circuit)
    records = []
    for index, circuit in enumerate(circuits):
        for fused in (False, True):
            run = fuse_adjacent_gates(circuit) if fused else circuit
            for seed in (1, 9):
                clear_marginal_memo()
                records.append(
                    [
                        index, fused, seed,
                        _run_record("statevector", run, 64, seed),
                    ]
                )
    return records


def _module_records():
    records = []
    for algorithm, n in (
        ("bv", 4), ("dj", 3), ("grover", 3), ("simon", 3), ("period", 3),
    ):
        for pipeline in ("default", "no-opt"):
            module = asdf_kernel(algorithm, n).compile(
                pipeline=pipeline, cache=True
            ).qcircuit_module
            for seed in (0, 3, 11):
                records.append(
                    [
                        algorithm, pipeline, seed,
                        interpret_module(module, num_qubits=12, seed=seed),
                    ]
                )
    return records


def _warm_service_record():
    fields = dict(kernel="grover", n=5, shots=512, seed=2**64 - 1)

    async def scenario():
        config = ServiceConfig(
            parallel_workers=2, executors=1
        )
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            cold = await client.run(id=0, **fields)
            warm = await client.run(id=1, **fields)
        return cold, warm

    clear_marginal_memo()
    cold, warm = asyncio.run(scenario())
    assert cold["ok"] and warm["ok"], (cold, warm)
    counts = list(warm["result"]["counts"].items())
    assert counts == list(cold["result"]["counts"].items())
    return [counts, warm["result"]["info"]["chunks"]]


def _chunked_records():
    rng = np.random.default_rng(2024)
    circuits = [teleport_circuit()] + [
        _trajectory_circuit(rng) for _ in range(6)
    ]
    rng = np.random.default_rng(7)
    circuits += [_terminal_circuit(rng) for _ in range(6)]
    records = []
    for index, circuit in enumerate(circuits):
        for model_index, model in enumerate(_noise_models()):
            for workers in (1, 2, 3):
                for seed in (5, 2**64 - 1):
                    clear_marginal_memo()
                    bits, info = parallel_run_with_info(
                        circuit, 24, seed, workers=workers,
                        noise_model=model,
                    )
                    records.append(
                        [
                            index, model_index, workers, seed,
                            bits.tolist(), info.evolutions,
                            info.channel_applications,
                            info.readout_applications,
                        ]
                    )
    records.append(_warm_service_record())
    return records


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


_PINNED = {
    "trajectory": (
        "6b8028533a3d21d18450c48e0f09aa9201285f7ec9e6fb7cedfd02ce34b333e7"
    ),
    "fast_path": (
        "de833433c3683d72e19cdce1a899ecdcd31d8eb9cba5d9a9b09db8840ce9dcb9"
    ),
    "module": (
        "db7f3a983120fd0c5894c2e463a72a32dfa89c06cffb010afc89154009de1f40"
    ),
    "chunked": (
        "f00a97764b5f0362e4a1e508953951bfa206f55a5ec8421576b0ab3523a694b1"
    ),
}


@pytest.mark.parametrize(
    "name, build",
    [
        ("trajectory", _trajectory_records),
        ("fast_path", _fast_path_records),
        ("module", _module_records),
        ("chunked", _chunked_records),
    ],
)
def test_sampled_outputs_match_recorded_digest(name, build):
    assert _digest(build()) == _PINNED[name]


if __name__ == "__main__":
    for key, builder in (
        ("trajectory", _trajectory_records),
        ("fast_path", _fast_path_records),
        ("module", _module_records),
        ("chunked", _chunked_records),
    ):
        print(key, _digest(builder()))
