"""Expectation values and batched parameter-grid evaluation.

:func:`evaluate_grid` is the sweep engine: it simulates a *symbolic*
circuit at ``G`` parameter points in one pass by stacking the grid into
the leading batch axis of a ``(G, 2, …, 2)`` state tensor — the same
layout (and the same :func:`control_sliced_view` slicing) as the
shot-batched trajectory engine.  Fixed gates are applied once across
the whole batch; each symbolic gate evaluates its affine angle
expression over the grid vectorized, builds a ``(G, 2, 2)`` matrix
stack, and contracts it in a single einsum.  Parameter-shift gradients
(:mod:`repro.variational.gradients`) and the optimizer loop ride on
this, so a whole VQE run touches the compiler exactly once.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import QwertyTypeError, SimulationError
from repro.parameters import ParamExpr
from repro.qcircuit.circuit import (
    Circuit,
    CircuitGate,
    Measurement,
    Reset,
    bind_circuit,
    circuit_parameters,
)
from repro.sim.kernels import apply_matrix_inplace, gate_matrix
from repro.sim.batched import control_sliced_view
from repro.sim.statevector import apply_gates_to_state
from repro.variational.observables import DiagonalObservable

#: Parameterized gates the vectorized evaluator knows how to stack.
_SYMBOLIC_GATES = {"p", "rx", "ry", "rz"}


def _unitary_gates(circuit: Circuit) -> list[CircuitGate]:
    """The circuit's gates, rejecting anything non-unitary mid-stream.

    Grid evaluation runs the state once per batch, so classical control
    flow (mid-circuit measurement, reset, conditioned gates) has no
    meaning here; terminal measurements are fine and simply ignored —
    expectations read |psi|^2 directly.
    """
    gates: list[CircuitGate] = []
    seen_measurement = False
    for inst in circuit.instructions:
        if isinstance(inst, Measurement):
            seen_measurement = True
        elif isinstance(inst, Reset):
            raise SimulationError(
                "grid evaluation supports unitary circuits only; "
                "this circuit resets a qubit"
            )
        elif isinstance(inst, CircuitGate):
            if inst.condition is not None or seen_measurement:
                raise SimulationError(
                    "grid evaluation supports unitary circuits with "
                    "terminal measurements only; this circuit has "
                    "mid-circuit measurement or classical control"
                )
            gates.append(inst)
    return gates


def exact_probabilities(
    circuit: Circuit, values: Optional[Mapping] = None
) -> np.ndarray:
    """The exact 2^n computational-basis probabilities of a circuit.

    ``values`` binds any symbolic parameters first (names or
    :class:`~repro.parameters.Parameter` keys, angles in radians).
    Index ``x`` has qubit ``q`` at bit ``(x >> (n-1-q)) & 1``, matching
    :meth:`DiagonalObservable.eigenvalues`.
    """
    bound = bind_circuit(circuit, values or {})
    state = apply_gates_to_state(_unitary_gates(bound), circuit.num_qubits)
    return np.abs(state) ** 2


def expectation(
    circuit: Circuit,
    observable: DiagonalObservable,
    values: Optional[Mapping] = None,
    shots: Optional[int] = None,
    seed: int = 0,
) -> float:
    """``<H>`` for one parameter point — exact, or shot-sampled.

    With ``shots=None`` this is the noiseless expectation
    ``Σ p(x)·λ(x)``; with shots it draws a multinomial histogram from
    the exact distribution (seeded) and averages, the estimator an
    actual device would give.
    """
    probs = exact_probabilities(circuit, values)
    eigenvalues = observable.eigenvalues(circuit.num_qubits)
    if shots is None:
        return float(probs @ eigenvalues)
    if shots < 1:
        raise SimulationError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs / probs.sum())
    return float((counts @ eigenvalues) / shots)


def _grid_arrays(
    grid: Mapping, names: Sequence[str]
) -> tuple[dict[str, np.ndarray], int]:
    """Normalize a parameter grid to equal-length float arrays."""
    arrays: dict[str, np.ndarray] = {}
    for key, column in grid.items():
        name = getattr(key, "name", key)
        if not isinstance(name, str):
            raise QwertyTypeError(f"bad grid key {key!r}")
        arrays[name] = np.asarray(column, dtype=float).reshape(-1)
    missing = [name for name in names if name not in arrays]
    if missing:
        raise QwertyTypeError(
            "grid is missing parameter(s) " + ", ".join(missing)
        )
    lengths = {a.shape[0] for a in arrays.values()}
    if len(lengths) > 1:
        raise QwertyTypeError(
            "grid columns have mismatched lengths: "
            + ", ".join(
                f"{name}={a.shape[0]}" for name, a in sorted(arrays.items())
            )
        )
    return arrays, lengths.pop() if lengths else 0


def _angles_over_grid(
    expr, arrays: Mapping[str, np.ndarray], points: int
) -> np.ndarray:
    """Evaluate an affine angle expression at every grid point at once."""
    if not isinstance(expr, ParamExpr):
        return np.full(points, float(expr))
    theta = np.full(points, expr.constant, dtype=float)
    for param, coefficient in expr.terms:
        theta += coefficient * arrays[param.name]
    return theta


def _stacked_matrices(name: str, theta: np.ndarray) -> np.ndarray:
    """A ``(G, 2, 2)`` stack of one rotation gate at ``G`` angles."""
    mats = np.zeros((theta.shape[0], 2, 2), dtype=complex)
    cos, sin = np.cos(theta / 2.0), np.sin(theta / 2.0)
    if name == "p":
        mats[:, 0, 0] = 1.0
        mats[:, 1, 1] = np.exp(1j * theta)
    elif name == "rx":
        mats[:, 0, 0] = mats[:, 1, 1] = cos
        mats[:, 0, 1] = mats[:, 1, 0] = -1j * sin
    elif name == "ry":
        mats[:, 0, 0] = mats[:, 1, 1] = cos
        mats[:, 0, 1] = -sin
        mats[:, 1, 0] = sin
    elif name == "rz":
        mats[:, 0, 0] = np.exp(-0.5j * theta)
        mats[:, 1, 1] = np.exp(0.5j * theta)
    else:
        raise SimulationError(
            f"gate {name!r} cannot carry a symbolic parameter"
        )
    return mats


def grid_probabilities(circuit: Circuit, grid: Mapping) -> np.ndarray:
    """Probabilities at every grid point: a ``(G, 2^n)`` array.

    ``grid`` maps parameter names (or ``Parameter`` objects) to
    equal-length 1-D arrays of angles in radians; point ``g`` binds
    every parameter to its ``g``-th entry.  The whole sweep runs as one
    batched simulation over a ``(G, 2, …, 2)`` state tensor.
    """
    names = [p.name for p in circuit_parameters(circuit)]
    arrays, points = _grid_arrays(grid, names)
    if points == 0:
        return np.zeros((0, 2 ** circuit.num_qubits))
    gates = _unitary_gates(circuit)
    n = max(circuit.num_qubits, 1)
    state = np.zeros((points,) + (2,) * n, dtype=complex)
    state[(slice(None),) + (0,) * n] = 1.0
    for gate in gates:
        view, axes = control_sliced_view(
            state, gate.targets, gate.controls, gate.ctrl_states
        )
        if not gate.is_symbolic:
            # One fixed matrix broadcast across the whole batch axis.
            apply_matrix_inplace(
                view, gate_matrix(gate.name, gate.params), axes
            )
            continue
        theta = _angles_over_grid(gate.params[0], arrays, points)
        mats = _stacked_matrices(gate.name, theta)
        # Bring the (sliced) target axis next to the batch axis and
        # contract each grid point against its own 2x2 matrix.
        moved = np.moveaxis(view, axes[0], 1)
        moved[...] = np.einsum("gij,gj...->gi...", mats, moved)
    return np.abs(state.reshape(points, -1)) ** 2


def evaluate_grid(
    circuit: Circuit,
    observable: DiagonalObservable,
    grid: Mapping,
) -> np.ndarray:
    """``<H>`` at every grid point, batched: a ``(G,)`` float array.

    Equivalent to ``[expectation(circuit, observable, point) for point
    in grid]`` but runs the whole sweep through one batched state, so
    fixed gates cost one apply total instead of one per point.
    """
    probabilities = grid_probabilities(circuit, grid)
    eigenvalues = observable.eigenvalues(circuit.num_qubits)
    return probabilities @ eigenvalues
