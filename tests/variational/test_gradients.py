"""Gradient correctness: parameter shift vs central finite differences.

Exact simulation makes the finite-difference oracle accurate to
~O(step²) ≈ 1e-12, so the two must agree to ~1e-7 — far tighter than
any plausible implementation error.  Also pins the validity boundary:
the two-term rule covers controlled ``p`` but NOT controlled
``rx``/``ry``/``rz``.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.parameters import ParamExpr, Parameter
from repro.qcircuit.circuit import Circuit, CircuitGate
from repro.variational import (
    finite_difference_gradient,
    hardware_efficient_ansatz,
    ising_observable,
    maxcut_observable,
    parameter_shift_gradient,
    qaoa_maxcut_ansatz,
)

theta = Parameter("theta")


def _random_values(params, seed):
    rng = np.random.default_rng(seed)
    return {p.name: float(v) for p, v in zip(
        params, rng.uniform(-np.pi, np.pi, len(params))
    )}


class TestShiftMatchesFiniteDifferences:
    @pytest.mark.parametrize("layers", [1, 2])
    def test_hardware_efficient_ansatz(self, layers):
        circuit, params = hardware_efficient_ansatz(3, layers=layers)
        obs = ising_observable(3, [(0, 1), (1, 2)], j=1.0, h=0.5)
        values = _random_values(params, seed=layers)
        shift = parameter_shift_gradient(circuit, obs, values)
        central = finite_difference_gradient(circuit, obs, values)
        assert shift == pytest.approx(central, abs=1e-6)
        # Gradients should be non-trivial at a generic point.
        assert np.abs(shift).max() > 1e-3

    def test_qaoa_chain_rule_through_scaled_angles(self):
        # The mixer rides on 2*beta — the chain rule must multiply the
        # shift slope by the coefficient for every gate occurrence.
        edges = [(0, 1), (1, 2), (0, 2)]
        circuit, params = qaoa_maxcut_ansatz(3, edges, layers=2)
        obs = maxcut_observable(edges)
        values = _random_values(params, seed=9)
        shift = parameter_shift_gradient(circuit, obs, values)
        central = finite_difference_gradient(circuit, obs, values)
        assert shift == pytest.approx(central, abs=1e-6)

    def test_shared_parameter_across_gates(self):
        # One symbol driving two gates: contributions must sum.
        circuit = Circuit(2, 0)
        circuit.add(CircuitGate("ry", (0,), params=(ParamExpr.of(theta),)))
        circuit.add(CircuitGate("ry", (1,), params=(3 * theta,)))
        obs = ising_observable(2, [(0, 1)])
        values = {"theta": 0.37}
        shift = parameter_shift_gradient(circuit, obs, values)
        central = finite_difference_gradient(circuit, obs, values)
        assert shift == pytest.approx(central, abs=1e-6)

    def test_controlled_p_supported(self):
        circuit = Circuit(2, 0)
        circuit.add(CircuitGate("h", (0,)))
        circuit.add(CircuitGate("h", (1,)))
        circuit.add(
            CircuitGate("p", (1,), controls=(0,), params=(ParamExpr.of(theta),))
        )
        circuit.add(CircuitGate("h", (1,)))
        obs = ising_observable(2, [(0, 1)])
        values = {"theta": 0.81}
        shift = parameter_shift_gradient(circuit, obs, values)
        central = finite_difference_gradient(circuit, obs, values)
        assert shift == pytest.approx(central, abs=1e-6)

    def test_known_closed_form(self):
        # <Z> of ry(t)|0> is cos(t); gradient is -sin(t).
        circuit = Circuit(1, 0)
        circuit.add(CircuitGate("ry", (0,), params=(ParamExpr.of(theta),)))
        obs = ising_observable(1, [], h=1.0)
        for t in (0.0, 0.4, 1.3, np.pi / 2):
            [g] = parameter_shift_gradient(circuit, obs, {"theta": t})
            assert g == pytest.approx(-np.sin(t), abs=1e-12)


class TestOneGrid:
    def test_gradient_is_one_sweep_of_two_rows_per_occurrence(
        self, monkeypatch
    ):
        from repro.variational import evaluate, gradients

        edges = [(0, 1), (1, 2), (0, 2)]
        circuit, params = qaoa_maxcut_ansatz(3, edges, layers=2)
        occurrences = sum(
            1
            for inst in circuit.instructions
            if isinstance(inst, CircuitGate) and inst.is_symbolic
        )
        assert occurrences > len(params)
        sweeps = []

        class Spy(evaluate.BatchedStatevector):
            def __init__(self, shots, *args, **kwargs):
                sweeps.append(shots)
                super().__init__(shots, *args, **kwargs)

        def no_expectation(*args, **kwargs):
            raise AssertionError("parameter shift called expectation")

        monkeypatch.setattr(evaluate, "BatchedStatevector", Spy)
        monkeypatch.setattr(gradients, "expectation", no_expectation)
        values = _random_values(params, seed=2)
        shift = parameter_shift_gradient(
            circuit, maxcut_observable(edges), values
        )
        assert sweeps == [2 * occurrences]
        monkeypatch.undo()
        central = finite_difference_gradient(
            circuit, maxcut_observable(edges), values
        )
        assert shift == pytest.approx(central, abs=1e-6)


class TestValidityBoundary:
    def test_controlled_rotation_refused(self):
        circuit = Circuit(2, 0)
        circuit.add(CircuitGate("h", (0,)))
        circuit.add(
            CircuitGate(
                "rz", (1,), controls=(0,), params=(ParamExpr.of(theta),)
            )
        )
        obs = ising_observable(2, [(0, 1)])
        with pytest.raises(SimulationError, match="three"):
            parameter_shift_gradient(circuit, obs, {"theta": 0.5})

    def test_gradient_restricted_to_requested_parameters(self):
        circuit, params = hardware_efficient_ansatz(2, layers=1)
        obs = ising_observable(2, [(0, 1)])
        values = _random_values(params, seed=4)
        subset = params[:2]
        partial = parameter_shift_gradient(circuit, obs, values, subset)
        full = parameter_shift_gradient(circuit, obs, values)
        assert partial == pytest.approx(full[:2], abs=1e-12)

    def test_finite_difference_requires_all_values(self):
        circuit, params = hardware_efficient_ansatz(2, layers=0)
        obs = ising_observable(2, [(0, 1)])
        from repro.errors import QwertyTypeError

        with pytest.raises(QwertyTypeError, match="theta_0_1"):
            finite_difference_gradient(circuit, obs, {"theta_0_0": 0.1})
