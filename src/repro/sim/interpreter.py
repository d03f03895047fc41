"""A QCircuit-dialect IR interpreter (the qir-runner analogue for the
Unrestricted profile).

Executes a lowered module *without* requiring inlining: direct calls
run callee bodies, and callable values (``callable_create`` /
``callable_invoke``) are interpreted as closures over function symbols
with adjoint/controlled markers — the runtime dual of the QIR callables
API (paper §7).  This lets the "Asdf (No Opt)" configuration of Table 1
actually execute, demonstrating that disabling inlining preserves
program semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.dialects import arith, qcircuit, qwerty, scf
from repro.errors import QwertyError, SimulationError
from repro.ir.core import Operation, Value
from repro.ir.module import FuncOp, ModuleOp
from repro.qcircuit.circuit import CircuitGate
from repro.sim.batched import BatchedStatevector


@dataclass(frozen=True)
class _Callable:
    """A runtime callable value: a symbol plus functor markers."""

    symbol: str
    adjoint: bool = False
    controls: int = 0


class ModuleInterpreter:
    """Interprets one entry-point invocation of a lowered module.

    Module interpretation is inherently one trajectory (op-at-a-time,
    with data-dependent control flow), so it runs on a 1-row
    :class:`~repro.sim.batched.BatchedStatevector` seeded ``seed``.
    """

    def __init__(
        self,
        module: ModuleOp,
        num_qubits: int = 20,
        seed: int = 0,
    ):
        self.module = module
        self.simulator = BatchedStatevector(
            1, num_qubits, rng=np.random.default_rng(seed)
        )
        self._free = list(range(num_qubits))
        self._gate_log: list[CircuitGate] = []

    # ------------------------------------------------------------------
    def run(self, entry: str | None = None) -> list[int]:
        entry = entry or self.module.entry_point
        if entry is None:
            raise SimulationError("no entry point")
        results = self._call_function(self.module.get(entry), [])
        bits: list[int] = []

        def collect(value) -> None:
            if isinstance(value, list):
                for item in value:
                    collect(item)
            elif isinstance(value, int):
                bits.append(value)

        collect(results)
        return bits

    # ------------------------------------------------------------------
    def _alloc(self) -> int:
        if not self._free:
            raise SimulationError("interpreter ran out of qubits")
        return self._free.pop()

    def _call_function(self, func: FuncOp, args: list):
        env: dict[int, object] = {}
        for arg, value in zip(func.entry.args, args):
            env[id(arg)] = value
        returned = self._run_block(func.entry.ops, env)
        return returned

    def _run_block(self, ops, env: dict[int, object]):
        for op in ops:
            if op.name in (qwerty.RETURN, scf.YIELD):
                return [env[id(v)] for v in op.operands]
            try:
                self._step(op, env)
            except QwertyError as error:
                # Runtime failures point at the Qwerty expression whose
                # op was executing.
                raise error.attach_span(op.loc)
        return []

    def _step(self, op: Operation, env: dict[int, object]) -> None:
        name = op.name
        get = lambda v: env[id(v)]  # noqa: E731

        if name == qcircuit.QALLOC:
            env[id(op.result)] = self._alloc()
        elif name in (qcircuit.QFREE, qcircuit.QFREEZ):
            qubit = get(op.operands[0])
            if name == qcircuit.QFREE:
                self.simulator.reset(qubit)
            self._free.append(qubit)
        elif name == qcircuit.GATE:
            num_controls = op.attrs["num_controls"]
            physical = [get(v) for v in op.operands]
            gate = CircuitGate(
                op.attrs["gate"],
                tuple(physical[num_controls:]),
                tuple(physical[:num_controls]),
                op.attrs["params"],
                op.attrs["ctrl_states"],
            )
            self.simulator.apply_gate(gate)
            self._gate_log.append(gate)
            for result, qubit in zip(op.results, physical):
                env[id(result)] = qubit
        elif name == qcircuit.MEASURE:
            qubit = get(op.operands[0])
            outcome = int(self.simulator.measure(qubit)[0])
            env[id(op.results[0])] = qubit
            env[id(op.results[1])] = outcome
        elif name == qcircuit.ARRPACK:
            env[id(op.result)] = [get(v) for v in op.operands]
        elif name == qcircuit.ARRUNPACK:
            values = get(op.operands[0])
            for result, value in zip(op.results, values):
                env[id(result)] = value
        elif name == qcircuit.CALL:
            callee = self.module.get(op.attrs["callee"])
            results = self._call_function(
                callee, [get(v) for v in op.operands]
            )
            for result, value in zip(op.results, results):
                env[id(result)] = value
        elif name == qcircuit.CALLABLE_CREATE:
            env[id(op.result)] = _Callable(op.attrs["callee"])
        elif name == qcircuit.CALLABLE_ADJOINT:
            fn = get(op.operands[0])
            env[id(op.result)] = replace(fn, adjoint=not fn.adjoint)
        elif name == qcircuit.CALLABLE_CONTROL:
            fn = get(op.operands[0])
            env[id(op.result)] = replace(fn, controls=fn.controls + 1)
        elif name == qcircuit.CALLABLE_INVOKE:
            fn = get(op.operands[0])
            if fn.adjoint or fn.controls:
                raise SimulationError(
                    "adjoint/controlled callables require generated "
                    "specializations, which the 'specialize' pass of the "
                    "'default' pipeline preset produces; compile with "
                    "pipeline='default' (or CompileOptions.preset"
                    "('default')) instead of 'no-opt'"
                )
            callee = self.module.get(fn.symbol)
            results = self._call_function(
                callee, [get(v) for v in op.operands[1:]]
            )
            for result, value in zip(op.results, results):
                env[id(result)] = value
        elif name == arith.CONSTANT:
            env[id(op.result)] = op.attrs["value"]
        elif name in arith.STATIONARY_OPS:
            values = [get(v) for v in op.operands]
            fold = {
                arith.ADDF: lambda a, b: a + b,
                arith.SUBF: lambda a, b: a - b,
                arith.MULF: lambda a, b: a * b,
                arith.DIVF: lambda a, b: a / b,
                arith.NEGF: lambda a: -a,
            }[name]
            env[id(op.result)] = fold(*values)
        elif name == scf.IF:
            condition = get(op.operands[0])
            block = (
                scf.then_block(op) if condition else scf.else_block(op)
            )
            results = self._run_block(block.ops, env)
            for result, value in zip(op.results, results):
                env[id(result)] = value
        else:
            raise SimulationError(f"cannot interpret op {name}")


def interpret_module(
    module: ModuleOp,
    entry: str | None = None,
    num_qubits: int = 20,
    seed: int = 0,
) -> list[int]:
    """Execute a lowered module; returns the measured output bits."""
    return ModuleInterpreter(module, num_qubits, seed).run(entry)
