"""Statevector simulation (the qir-runner substitute, paper §7).

Execution is organized around pluggable backends — see
:mod:`repro.sim.backend` and docs/simulators.md.
"""

# Import order matters: the engine (repro.sim.batched, and through it
# repro.qcircuit.fusion) must initialize before statevector, backend and
# density, which build on it.
from repro.sim.kernels import apply_matrix_inplace, gate_matrix
from repro.sim.batched import (
    MAX_BATCH_BYTES,
    MAX_STATEVECTOR_QUBITS,
    BatchedStatevector,
    batch_chunk_size,
    batched_run,
)
from repro.sim.statevector import (
    apply_gates_to_state,
    run_circuit,
    unitary_of_gates,
)
from repro.sim.backend import (
    DEFAULT_BACKEND,
    RunInfo,
    SimBackend,
    VectorizedStatevectorBackend,
    available_backends,
    clear_marginal_memo,
    get_backend,
    register_backend,
    run_circuit_with_info,
    sample_marginal,
    terminal_marginal,
    terminal_measurement_plan,
)
from repro.sim.density import (
    MAX_DENSITY_QUBITS,
    DensityMatrixBackend,
    DensityMatrixSimulator,
    controlled_matrix,
)
from repro.sim.interpreter import ModuleInterpreter, interpret_module

__all__ = [
    "DEFAULT_BACKEND",
    "MAX_BATCH_BYTES",
    "MAX_DENSITY_QUBITS",
    "MAX_STATEVECTOR_QUBITS",
    "BatchedStatevector",
    "DensityMatrixBackend",
    "DensityMatrixSimulator",
    "ModuleInterpreter",
    "RunInfo",
    "SimBackend",
    "VectorizedStatevectorBackend",
    "apply_gates_to_state",
    "apply_matrix_inplace",
    "available_backends",
    "batch_chunk_size",
    "batched_run",
    "clear_marginal_memo",
    "controlled_matrix",
    "gate_matrix",
    "get_backend",
    "interpret_module",
    "register_backend",
    "run_circuit",
    "run_circuit_with_info",
    "sample_marginal",
    "terminal_marginal",
    "terminal_measurement_plan",
    "unitary_of_gates",
]
