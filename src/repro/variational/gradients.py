"""Parameter-shift and finite-difference gradients of expectations.

The two-term parameter-shift rule is *exact* for gates generated by an
operator with two eigenvalues: ``dE/dθ = (E(θ+π/2) − E(θ−π/2)) / 2``
for ``rx``/``ry``/``rz`` (generator eigenvalues ±1/2) and ``p`` with
any number of controls (generator eigenvalues {0, 1}, a two-eigenvalue
spectrum up to an unobservable phase).  A *controlled* ``rx``/``ry``/
``rz`` has a three-eigenvalue generator {0, ±1/2}, so the two-term rule
is wrong for it and this module refuses rather than silently returning
a biased gradient — decompose the gate first.

Angles may be affine expressions over several parameters; the chain
rule sums ``coef · (E_+ − E_−)/2`` over every gate occurrence, shifting
each occurrence's *bound* angle independently.  All ``2P`` shifted
points of ``P`` occurrences run as one parameter grid
(:func:`~repro.variational.evaluate.evaluate_grid`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

import math

import numpy as np

from repro.errors import QwertyTypeError, SimulationError
from repro.parameters import ParamExpr, Parameter
from repro.qcircuit.circuit import (
    Circuit,
    CircuitGate,
    bind_circuit,
    circuit_parameters,
)
from repro.variational.evaluate import evaluate_grid, expectation
from repro.variational.observables import DiagonalObservable


def _parameter_names(
    circuit: Circuit, parameters: Optional[Sequence]
) -> list[str]:
    if parameters is None:
        return [p.name for p in circuit_parameters(circuit)]
    return [getattr(p, "name", p) for p in parameters]


def _check_shift_valid(gate: CircuitGate) -> None:
    if gate.controls and gate.name != "p":
        raise SimulationError(
            f"the two-term parameter-shift rule is invalid for a "
            f"controlled {gate.name!r} gate (its generator has three "
            f"eigenvalues); decompose it into uncontrolled rotations "
            f"before differentiating"
        )


def parameter_shift_gradient(
    circuit: Circuit,
    observable: DiagonalObservable,
    values: Mapping,
    parameters: Optional[Sequence] = None,
) -> np.ndarray:
    """``∇<H>`` at one parameter point via exact parameter shifts.

    ``values`` binds every parameter (radians); the result is ordered
    like ``parameters`` (default: the circuit's parameters sorted by
    name, matching :func:`circuit_parameters`).  Each symbolic gate
    occurrence becomes its own parameter at its bound angle, and one
    grid of two rows per occurrence evaluates every ``±π/2`` shift in
    a single batched sweep.
    """
    names = _parameter_names(circuit, parameters)
    bound = bind_circuit(circuit, values)
    instructions = list(bound.instructions)
    exprs: list[ParamExpr] = []
    angles: list[float] = []
    for position, inst in enumerate(circuit.instructions):
        if not (isinstance(inst, CircuitGate) and inst.is_symbolic):
            continue
        _check_shift_valid(inst)
        slot = ParamExpr.of(Parameter(f"shift_{len(exprs)}"))
        exprs.append(ParamExpr.of(inst.params[0]))
        angles.append(instructions[position].params[0])
        instructions[position] = replace(inst, params=(slot,))
    # Row 2k shifts occurrence k by +π/2, row 2k+1 by −π/2.
    shifts = np.kron(np.eye(len(angles)), [[1.0], [-1.0]]) * (math.pi / 2.0)
    columns = (np.array(angles) + shifts).T
    energies = evaluate_grid(
        Circuit(
            circuit.num_qubits,
            bound.num_bits,
            instructions,
            list(bound.output_bits),
        ),
        observable,
        {f"shift_{k}": column for k, column in enumerate(columns)},
    )
    slopes = (energies[0::2] - energies[1::2]) / 2.0
    gradient = np.zeros(len(names))
    index_of = {name: i for i, name in enumerate(names)}
    for expr, slope in zip(exprs, slopes):
        for param, coefficient in expr.terms:
            if param.name in index_of:
                gradient[index_of[param.name]] += coefficient * slope
    return gradient


def finite_difference_gradient(
    circuit: Circuit,
    observable: DiagonalObservable,
    values: Mapping,
    parameters: Optional[Sequence] = None,
    step: float = 1e-6,
) -> np.ndarray:
    """``∇<H>`` by central finite differences (the reference oracle).

    Exact simulation keeps the O(step^2) truncation error dominant, so
    this agrees with :func:`parameter_shift_gradient` to ~1e-8 — the
    differential check the gradient tests rely on.
    """
    names = _parameter_names(circuit, parameters)
    env = {getattr(k, "name", k): float(v) for k, v in values.items()}
    unknown = [n for n in names if n not in env]
    if unknown:
        raise QwertyTypeError(
            "no value bound for parameter(s) " + ", ".join(unknown)
        )
    gradient = np.zeros(len(names))
    for i, name in enumerate(names):
        forward = dict(env, **{name: env[name] + step})
        backward = dict(env, **{name: env[name] - step})
        gradient[i] = (
            expectation(circuit, observable, forward)
            - expectation(circuit, observable, backward)
        ) / (2.0 * step)
    return gradient
