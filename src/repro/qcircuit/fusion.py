"""Compile-time gate fusion: fewer, bigger unitaries per circuit.

Every simulation backend pays one full state sweep per gate, so a deep
circuit's wall-clock is dominated by sweep *count*, not sweep width.
This pass shrinks the count at compile time, in two composed moves:

1. **Run merging** — maximal runs of adjacent gates on the same (or
   overlapping) qubit set collapse into a single product matrix.
   Quantum controls are folded into the block as explicit block
   unitaries (:func:`controlled_matrix`), so a CX ladder fuses just
   like a single-qubit run.  Product matrices are LRU-cached per block
   *shape* (the gate list in block-relative positions), so every block
   of one shape — in one circuit, across kernels, across recompiles —
   shares one read-only array and pays the matmuls once.
2. **Layer grouping** — runs on *disjoint* qubit sets that would each
   cost a sweep are kron-grouped into one fused-layer op under the same
   qubit budget, applied by the backends as a single batched
   matmul/einsum sweep.

The result is a :class:`FusedUnitary` instruction stream that every
backend executes natively — the per-shot interpreter, the vectorized
statevector sampler, the shot-batched trajectory engine, and the
density-matrix backend all benefit.  This is the only fusion in the
tree: the simulators apply the execution circuit's instructions as
they are.  Classically conditioned gates are fusion barriers on
the qubits they touch; measurements and resets flush every pending
block, so fused circuits preserve terminal-measurement structure.

Fusion never touches ``CompileResult.optimized_circuit`` (the QASM/QIR
export artifact): the pipeline runs it on a separate copy recorded as
``CompileResult.execution_circuit``.  Noise models attach channels by
*gate name*, which a fused block no longer has — so noisy executions
use the unfused circuit (``simulate_kernel`` routes this automatically)
and backends apply no channels to :class:`FusedUnitary` ops.

Registered in the pass registry as ``fuse{max_qubits=…,layer=…}``; the
``default`` preset schedules it via ``CompileOptions.fusion_spec``.
See docs/performance.md.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import PassPipelineError, SimulationError, SourceSpan
from repro.qcircuit.circuit import (
    Circuit,
    CircuitGate,
    Measurement,
    Reset,
)

# NOTE: repro.sim.kernels is imported lazily inside functions.  The sim
# package's __init__ imports repro.sim.batched, which imports this
# module — an eager import here would re-enter repro.sim mid-init.

#: The driver's default execution-circuit fusion pipeline.
CIRCUIT_FUSION_SPEC = "fuse"

#: Default cap on a fused block's qubit count: a block's matrix holds
#: 4^k amplitudes and folding a gate costs an O(8^k) matmul, so the
#: budget trades sweep count against per-sweep width.  5 keeps block
#: matrices at 32x32 — far below the point where the matmul stops
#: being cheaper than the sweeps it replaces.
DEFAULT_MAX_FUSED_QUBITS = 5


def controlled_matrix(
    matrix: np.ndarray, ctrl_states: tuple[int, ...]
) -> np.ndarray:
    """Expand ``matrix`` to a full unitary over ``controls + targets``.

    The control qubits are the *leading* axes (matching
    ``CircuitGate.qubits = controls + targets``): the result is the
    identity except on the block where every control reads its required
    polarity, which holds ``matrix``.  Used by the fusion pass to fold
    controlled gates into plain block unitaries, and by the
    density-matrix simulator, which cannot use the statevector engines'
    control *slicing* — a sliced update would miss the coherences
    between the control-on and control-off blocks of rho.
    """
    if not ctrl_states:
        return matrix
    block = matrix.shape[0]
    selector = 0
    for state in ctrl_states:
        selector = (selector << 1) | state
    full = np.eye((1 << len(ctrl_states)) * block, dtype=complex)
    start = selector * block
    full[start : start + block, start : start + block] = matrix
    return full


@dataclass(frozen=True, eq=False)
class FusedUnitary:
    """One fused instruction: a raw unitary on explicit qubits.

    Unlike :class:`~repro.qcircuit.circuit.CircuitGate`, the matrix is
    arbitrary — the product of a whole run of gates (controls already
    folded in), acting on ``targets`` in tuple order (first target is
    the most significant matrix index).  ``gate_count`` records how
    many source gates the block absorbed, which is where the
    ``RunInfo.gates_fused`` telemetry comes from
    (:func:`fused_gate_savings`).

    Fused ops appear only in *execution* circuits
    (``CompileResult.execution_circuit``); the QASM 3 / QIR exporters
    and the resource estimator consume the unfused
    ``optimized_circuit`` / ``decomposed_circuit`` artifacts.

    ``matrix`` is read-only: blocks are compared by matrix content
    (the simulator's marginal memo keys on it), so an in-place write
    must not be able to change a block after construction.
    """

    matrix: np.ndarray
    targets: tuple[int, ...]
    gate_count: int = 1
    loc: Optional[SourceSpan] = field(default=None)

    def __post_init__(self) -> None:
        dim = 1 << len(self.targets)
        if self.matrix.shape != (dim, dim):
            raise SimulationError(
                f"fused unitary of shape {self.matrix.shape} does not act "
                f"on {len(self.targets)} qubit(s)"
            )
        if len(set(self.targets)) != len(self.targets):
            raise SimulationError("fused unitary touches a qubit twice")
        matrix = self.matrix
        if matrix.base is not None and not _immutable_view(matrix):
            # A view could still change through its writable base.
            matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    def __setstate__(self, state: dict) -> None:
        # Unpickling (a disk-cache load, a pool worker's task) bypasses
        # __init__; validate and freeze again.  Pickle protocol 5 loads
        # a read-only array as a read-only view over immutable bytes,
        # which is kept as is, so blocks that shared one matrix before
        # the pickle still share one after it.
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets

    def __eq__(self, other) -> bool:
        if not isinstance(other, FusedUnitary):
            return NotImplemented
        return (
            self.targets == other.targets
            and self.gate_count == other.gate_count
            and self.matrix.shape == other.matrix.shape
            and bool(np.array_equal(self.matrix, other.matrix))
        )

    def __hash__(self) -> int:  # matrix content is not hashed
        return hash((self.targets, self.gate_count))


def _immutable_view(matrix: np.ndarray) -> bool:
    """Whether nothing can write through ``matrix``'s base chain: every
    array in it is read-only and it ends in immutable ``bytes``."""
    base = matrix
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    return isinstance(base, bytes)


def fused_gate_savings(circuit: Circuit) -> int:
    """Gate applications eliminated by fusion: for every
    :class:`FusedUnitary`, the absorbed gates minus the one sweep the
    block still costs.  0 on unfused circuits — this is what backends
    report as ``RunInfo.gates_fused``."""
    return sum(
        inst.gate_count - 1
        for inst in circuit.instructions
        if isinstance(inst, FusedUnitary)
    )


# ----------------------------------------------------------------------
# Block-matrix construction (cached per block shape).
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1024)
def _cached_block_matrix(k: int, signature: tuple) -> np.ndarray:
    """The product matrix of one fused block shape, built once.

    ``signature`` is the block's gate list as hashable
    ``(name, params, positions, ctrl_states)`` tuples in program order,
    where ``positions`` index the block's ``k`` sorted qubits — so
    blocks of one shape on different qubits share one read-only array.
    Each gate folds into the accumulating matrix by applying it to the
    *row* axes of the block matrix viewed as a ``(2,)*k + (2^k,)``
    tensor — ``U_full @ M`` without materializing ``U_full``.
    """
    from repro.sim.kernels import apply_matrix_inplace, gate_matrix

    dim = 1 << k
    matrix = np.eye(dim, dtype=complex)
    tensor = matrix.reshape((2,) * k + (dim,))
    for name, params, positions, ctrl_states in signature:
        full = controlled_matrix(gate_matrix(name, params), ctrl_states)
        apply_matrix_inplace(tensor, full, positions)
    matrix.setflags(write=False)
    return matrix


class _Block:
    """One pending fusion block during the sweep (mutable)."""

    __slots__ = ("qubits", "gates", "order")

    def __init__(self, gate: CircuitGate, order: int) -> None:
        self.qubits: tuple[int, ...] = tuple(sorted(gate.qubits))
        self.gates: list[CircuitGate] = [gate]
        self.order = order

    def absorb(self, gate: CircuitGate) -> None:
        union = set(self.qubits) | set(gate.qubits)
        self.qubits = tuple(sorted(union))
        self.gates.append(gate)

    def merge(self, other: "_Block") -> None:
        """Fold ``other`` (disjoint or overlapping-free pending block)
        into this one.  Pending blocks are pairwise disjoint, so their
        gate lists commute and concatenation is a valid linearization."""
        self.qubits = tuple(sorted(set(self.qubits) | set(other.qubits)))
        self.gates.extend(other.gates)
        self.order = min(self.order, other.order)

    def emit(self):
        if len(self.gates) == 1:
            # A lone gate gains nothing from becoming a raw matrix;
            # keep it as-is (readable, noise-attachable, exportable).
            return self.gates[0]
        position = {qubit: index for index, qubit in enumerate(self.qubits)}
        signature = tuple(
            (
                gate.name,
                gate.params,
                tuple(position[q] for q in gate.qubits),
                gate.ctrl_states,
            )
            for gate in self.gates
        )
        loc = next(
            (gate.loc for gate in self.gates if gate.loc is not None), None
        )
        return FusedUnitary(
            _cached_block_matrix(len(self.qubits), signature),
            self.qubits,
            gate_count=len(self.gates),
            loc=loc,
        )


def fuse_adjacent_gates(
    circuit: Circuit,
    max_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
    layer: bool = True,
) -> Circuit:
    """Fuse runs of adjacent gates into :class:`FusedUnitary` blocks.

    Pending blocks are pairwise disjoint; a gate joins (and merges) the
    blocks it overlaps while the union stays within ``max_qubits``,
    otherwise the overlapped blocks flush and the gate starts fresh.
    With ``layer=True`` a gate overlapping *no* block may also join a
    disjoint one under the budget — kron-grouping whole layers of
    independent gates into one sweep.  Classically conditioned gates
    are barriers on the qubits they touch; measurements and resets
    flush *every* pending block (so no unitary is ever reordered past
    a measurement, and terminal-measurement circuits stay terminal —
    preserving the vectorized backend's fast path).
    """
    if max_qubits < 1:
        raise PassPipelineError("fuse: max_qubits must be >= 1")
    out = Circuit(
        circuit.num_qubits, circuit.num_bits, [], list(circuit.output_bits)
    )
    pending: list[_Block] = []
    counter = 0

    def flush(blocks: list[_Block]) -> None:
        for block in sorted(blocks, key=lambda b: b.order):
            out.add(block.emit())
            pending.remove(block)

    def flush_touching(qubits: set[int]) -> None:
        flush([b for b in pending if qubits & set(b.qubits)])

    for inst in circuit.instructions:
        if isinstance(inst, CircuitGate):
            # Symbolic (unbound-parameter) gates cannot become a
            # concrete product matrix; they barrier like conditioned
            # gates and pass through for later binding.
            fusible = (
                inst.condition is None
                and len(inst.qubits) <= max_qubits
                and not inst.is_symbolic
            )
            if not fusible:
                flush_touching(set(inst.qubits))
                out.add(inst)
                continue
            gate_qubits = set(inst.qubits)
            overlapping = [
                b for b in pending if gate_qubits & set(b.qubits)
            ]
            union = set(gate_qubits)
            for block in overlapping:
                union |= set(block.qubits)
            if overlapping and len(union) <= max_qubits:
                host = overlapping[0]
                for other in overlapping[1:]:
                    host.merge(other)
                    pending.remove(other)
                host.absorb(inst)
            elif overlapping:
                flush(overlapping)
                pending.append(_Block(inst, counter))
                counter += 1
            else:
                host = None
                if layer:
                    host = next(
                        (
                            b
                            for b in pending
                            if len(set(b.qubits) | gate_qubits) <= max_qubits
                        ),
                        None,
                    )
                if host is not None:
                    host.absorb(inst)
                else:
                    pending.append(_Block(inst, counter))
                    counter += 1
        elif isinstance(inst, FusedUnitary):
            # Already-fused input (an idempotent re-run): barrier on its
            # qubits, passed through untouched.
            flush_touching(set(inst.targets))
            out.add(inst)
        elif isinstance(inst, (Measurement, Reset)):
            # Materialization barrier: every pending block flushes, not
            # just the measured qubit's.  Keeping disjoint blocks
            # pending *would* be unitarily sound (they commute past the
            # measurement), but emitting them after it turns a
            # terminal-measurement circuit into a non-terminal one and
            # costs the vectorized backend its fast path.
            flush(list(pending))
            out.add(inst)
        else:
            flush(list(pending))
            out.add(inst)
    flush(list(pending))
    return out


# ----------------------------------------------------------------------
# The registered pass.
# ----------------------------------------------------------------------
from repro.qcircuit.passes import CircuitPass  # noqa: E402
from repro.ir.passmanager import register_pass  # noqa: E402


class FusionPass(CircuitPass):
    """Compile-time gate fusion (``fuse{max_qubits=…,layer=…}``)."""

    def __init__(
        self,
        max_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
        layer: bool = True,
    ) -> None:
        if max_qubits < 1:
            raise PassPipelineError("fuse: max_qubits must be >= 1")
        self.max_qubits = max_qubits
        self.layer = layer
        self.name = (
            f"fuse{{max_qubits={max_qubits},layer={str(layer).lower()}}}"
        )

    def rewrite(self, circuit: Circuit) -> Circuit:
        return fuse_adjacent_gates(
            circuit, max_qubits=self.max_qubits, layer=self.layer
        )


def _fusion_factory(options: dict) -> FusionPass:
    max_qubits = options.pop("max_qubits", DEFAULT_MAX_FUSED_QUBITS)
    layer = options.pop("layer", True)
    if options:
        raise PassPipelineError(
            f"pass 'fuse' got unknown options {sorted(options)}"
        )
    return FusionPass(max_qubits=int(max_qubits), layer=bool(layer))


register_pass("fuse", _fusion_factory)
