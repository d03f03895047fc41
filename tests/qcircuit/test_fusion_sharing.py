"""Fused-block matrices are shared by block shape (repro.qcircuit.fusion).

``_cached_block_matrix`` keys a block's product matrix by its qubit
count and its gate list in block-relative positions, so every block of
one shape — on any qubits, in any kernel — holds the same read-only
array.  These tests pin that the shared matrices are bit-identical to
a build from the block's own absolute-qubit gate list, that the
sharing survives the disk cache's pickle round trip without any
loaded matrix becoming writable, and that a recompile builds nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import ALGORITHMS, asdf_kernel
from repro.exec import diskcache
from repro.pipeline import clear_compile_cache, compile_kernel
from repro.qcircuit import fusion
from repro.qcircuit.circuit import Circuit, CircuitGate
from repro.qcircuit.fusion import (
    FusedUnitary,
    controlled_matrix,
    fuse_adjacent_gates,
)
from repro.sim.kernels import apply_matrix_inplace, gate_matrix


def _fused_matrices(circuit: Circuit) -> list[np.ndarray]:
    return [
        inst.matrix
        for inst in circuit.instructions
        if isinstance(inst, FusedUnitary)
    ]


def _absolute_build(qubits, gates) -> np.ndarray:
    """A block's matrix built from its absolute-qubit gate list, with
    no cache: the construction before matrices were keyed by shape."""
    k = len(qubits)
    dim = 1 << k
    matrix = np.eye(dim, dtype=complex)
    tensor = matrix.reshape((2,) * k + (dim,))
    position = {qubit: index for index, qubit in enumerate(qubits)}
    for gate in gates:
        full = controlled_matrix(
            gate_matrix(gate.name, gate.params), gate.ctrl_states
        )
        apply_matrix_inplace(
            tensor, full, tuple(position[q] for q in gate.qubits)
        )
    return matrix


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(diskcache.DISK_CACHE_ENV, raising=False)
    clear_compile_cache(disk=True)
    yield tmp_path
    clear_compile_cache(disk=True)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_shared_matrices_equal_uncached_builds(algorithm, n, monkeypatch):
    emitted = []
    real_emit = fusion._Block.emit

    def recording_emit(block):
        inst = real_emit(block)
        emitted.append((block.qubits, tuple(block.gates), inst))
        return inst

    monkeypatch.setattr(fusion._Block, "emit", recording_emit)
    result = compile_kernel(asdf_kernel(algorithm, n), pipeline="default")
    blocks = [
        (qubits, gates, inst)
        for qubits, gates, inst in emitted
        if isinstance(inst, FusedUnitary)
    ]
    assert blocks
    assert [inst for _, _, inst in blocks] == [
        inst
        for inst in result.execution_circuit.instructions
        if isinstance(inst, FusedUnitary)
    ]
    for qubits, gates, inst in blocks:
        assert inst.targets == qubits
        assert np.array_equal(inst.matrix, _absolute_build(qubits, gates))


def _shifted_pairs(num_qubits: int, offset: int) -> Circuit:
    circuit = Circuit(num_qubits, 0)
    for low in range(offset, num_qubits - 1, 2):
        circuit.add(CircuitGate("h", (low,)))
        circuit.add(CircuitGate("x", (low + 1,), controls=(low,)))
        circuit.add(CircuitGate("t", (low + 1,)))
    return circuit


def test_blocks_of_one_shape_share_one_read_only_array():
    first = fuse_adjacent_gates(_shifted_pairs(6, 0), max_qubits=2)
    second = fuse_adjacent_gates(_shifted_pairs(9, 1), max_qubits=2)
    matrices = _fused_matrices(first) + _fused_matrices(second)
    assert len(matrices) == 7
    # One shape on seven qubit pairs in two circuits: one array.
    assert len({id(matrix) for matrix in matrices}) == 1
    shared = matrices[0]
    assert not shared.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        shared[0, 0] = 2
    # Which position each gate acts on is part of the shape.
    swapped = Circuit(2, 0)
    swapped.add(CircuitGate("h", (1,)))
    swapped.add(CircuitGate("x", (0,), controls=(1,)))
    swapped.add(CircuitGate("t", (0,)))
    (other,) = _fused_matrices(fuse_adjacent_gates(swapped, max_qubits=2))
    assert other is not shared


@pytest.mark.parametrize(
    "algorithm, n", [("simon", 16), ("simon", 32), ("grover", 32)]
)
def test_disk_round_trip_keeps_one_array_per_shape(cache_dir, algorithm, n):
    kernel = asdf_kernel(algorithm, n)
    cold = compile_kernel(kernel, pipeline="default", cache=True)
    assert cold.provenance == "compiled"
    clear_compile_cache()  # memory only: the next compile loads from disk
    warm = compile_kernel(kernel, pipeline="default", cache=True)
    assert warm.provenance == "disk"
    assert warm.execution_circuit == cold.execution_circuit
    cold_matrices = _fused_matrices(cold.execution_circuit)
    warm_matrices = _fused_matrices(warm.execution_circuit)
    distinct = len({id(matrix) for matrix in cold_matrices})
    assert distinct < len(cold_matrices)
    assert len({id(matrix) for matrix in warm_matrices}) == distinct
    for matrix in warm_matrices:
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix.setflags(write=True)


def test_a_view_over_a_mutable_buffer_is_still_copied():
    # Read-only flags alone are not enough: a bytearray behind the view
    # could still change it.
    buffer = bytearray(np.eye(2, dtype=complex).tobytes())
    flat = np.frombuffer(buffer, dtype=complex)
    flat.setflags(write=False)
    view = flat.reshape(2, 2)
    assert not view.flags.writeable
    block = FusedUnitary(view, (0,))
    assert block.matrix is not view
    buffer[:8] = np.array([2.0]).tobytes()
    assert block.matrix[0, 0] == 1


def test_recompiling_builds_no_matrix():
    kernel = asdf_kernel("simon", 16)
    compile_kernel(kernel, pipeline="default")
    before = fusion._cached_block_matrix.cache_info()
    again = compile_kernel(kernel, pipeline="default")
    after = fusion._cached_block_matrix.cache_info()
    blocks = len(_fused_matrices(again.execution_circuit))
    assert blocks > 0
    assert after.misses == before.misses
    assert after.hits - before.hits == blocks
