"""Statevector simulation (the qir-runner substitute, paper §7).

Execution is organized around pluggable backends — see
:mod:`repro.sim.backend` and docs/simulators.md.
"""

# Import order matters: statevector (and through it repro.qcircuit.fusion)
# must initialize before backend/density, which build on its primitives.
from repro.sim.kernels import (
    active_kernel_name,
    available_kernels,
    current_kernel_selection,
    get_kernel,
    numba_available,
    use_kernel,
)
from repro.sim.statevector import (
    StatevectorSimulator,
    apply_gates_to_state,
    apply_matrix_inplace,
    gate_matrix,
    run_circuit,
    unitary_of_gates,
)
from repro.sim.batched import (
    MAX_BATCH_BYTES,
    BatchedStatevector,
    batch_chunk_size,
    batched_run,
)
from repro.sim.backend import (
    DEFAULT_BACKEND,
    InterpreterBackend,
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
    "BatchedStatevector",
    "DensityMatrixBackend",
    "DensityMatrixSimulator",
    "InterpreterBackend",
    "ModuleInterpreter",
    "RunInfo",
    "SimBackend",
    "StatevectorSimulator",
    "VectorizedStatevectorBackend",
    "active_kernel_name",
    "apply_gates_to_state",
    "apply_matrix_inplace",
    "available_backends",
    "available_kernels",
    "batch_chunk_size",
    "batched_run",
    "clear_marginal_memo",
    "controlled_matrix",
    "current_kernel_selection",
    "gate_matrix",
    "get_backend",
    "get_kernel",
    "interpret_module",
    "numba_available",
    "register_backend",
    "use_kernel",
    "run_circuit",
    "run_circuit_with_info",
    "sample_marginal",
    "terminal_marginal",
    "terminal_measurement_plan",
    "unitary_of_gates",
]
