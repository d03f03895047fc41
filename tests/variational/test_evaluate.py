"""Batched grid evaluation vs per-point evaluation — they must agree.

``evaluate_grid`` runs a whole parameter sweep as the rows of one
``BatchedStatevector``; these tests pin it to the scalar path
(`expectation`) point by point, including controlled gates (the
shared ``control_sliced_view`` slicing), multi-parameter affine angles
(the per-row matrix stacks) and grids split into row chunks.
"""

import numpy as np
import pytest

from repro.errors import QwertyTypeError, SimulationError
from repro.parameters import ParamExpr, Parameter
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.variational import (
    evaluate_grid,
    exact_probabilities,
    expectation,
    hardware_efficient_ansatz,
    ising_observable,
    maxcut_observable,
    qaoa_maxcut_ansatz,
)
from repro.variational.evaluate import grid_probabilities

theta = Parameter("theta")
phi = Parameter("phi")


def _controlled_symbolic_circuit() -> Circuit:
    """h, controlled-p(2θ+0.1), rx(φ): controls + affine + plain mix."""
    circuit = Circuit(2, 0)
    circuit.add(CircuitGate("h", (0,)))
    circuit.add(CircuitGate("h", (1,)))
    circuit.add(
        CircuitGate("p", (1,), controls=(0,), params=(2 * theta + 0.1,))
    )
    circuit.add(CircuitGate("rx", (1,), params=(ParamExpr.of(phi),)))
    circuit.add(CircuitGate("x", (0,), controls=(1,), ctrl_states=(0,)))
    return circuit


class TestExactProbabilities:
    def test_bell_distribution(self):
        circuit = Circuit(2, 0)
        circuit.add(CircuitGate("h", (0,)))
        circuit.add(CircuitGate("x", (1,), controls=(0,)))
        probs = exact_probabilities(circuit)
        assert probs == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_symbolic_circuit_requires_values(self):
        circuit = Circuit(1, 0)
        circuit.add(CircuitGate("ry", (0,), params=(ParamExpr.of(theta),)))
        with pytest.raises(QwertyTypeError, match="theta"):
            exact_probabilities(circuit)
        probs = exact_probabilities(circuit, {"theta": np.pi})
        assert probs == pytest.approx([0.0, 1.0])

    def test_rejects_mid_circuit_measurement_and_reset(self):
        circuit = Circuit(1, 1)
        circuit.add(Measurement(0, 0))
        circuit.add(CircuitGate("x", (0,)))
        with pytest.raises(SimulationError, match="mid-circuit"):
            exact_probabilities(circuit)
        resetting = Circuit(1, 0)
        resetting.add(Reset(0))
        with pytest.raises(SimulationError, match="reset"):
            exact_probabilities(resetting)


class TestExpectation:
    def test_exact_vs_sampled_agree(self):
        circuit, params = hardware_efficient_ansatz(3, layers=1)
        obs = ising_observable(3, [(0, 1), (1, 2)], h=0.2)
        rng = np.random.default_rng(3)
        values = {p.name: rng.uniform(-1, 1) for p in params}
        exact = expectation(circuit, obs, values)
        sampled = expectation(circuit, obs, values, shots=60_000, seed=1)
        assert sampled == pytest.approx(exact, abs=0.05)

    def test_shots_validation(self):
        circuit, _ = hardware_efficient_ansatz(1, layers=0)
        obs = ising_observable(1, [], h=1.0)
        with pytest.raises(SimulationError, match="shots"):
            expectation(circuit, obs, {"theta_0_0": 0.1}, shots=0)


class TestEvaluateGrid:
    def test_matches_per_point_on_hea(self):
        circuit, params = hardware_efficient_ansatz(3, layers=2)
        obs = ising_observable(3, [(0, 1), (1, 2)], j=0.8, h=-0.4)
        rng = np.random.default_rng(0)
        grid = {p.name: rng.uniform(-np.pi, np.pi, 11) for p in params}
        batched = evaluate_grid(circuit, obs, grid)
        for g in range(11):
            point = {name: grid[name][g] for name in grid}
            assert batched[g] == pytest.approx(
                expectation(circuit, obs, point), abs=1e-12
            )

    def test_matches_per_point_with_controls_and_affine_angles(self):
        circuit = _controlled_symbolic_circuit()
        obs = maxcut_observable([(0, 1)])
        rng = np.random.default_rng(1)
        grid = {
            "theta": rng.uniform(-np.pi, np.pi, 9),
            "phi": rng.uniform(-np.pi, np.pi, 9),
        }
        batched = evaluate_grid(circuit, obs, grid)
        for g in range(9):
            point = {name: grid[name][g] for name in grid}
            assert batched[g] == pytest.approx(
                expectation(circuit, obs, point), abs=1e-12
            )

    def test_qaoa_grid(self):
        circuit, params = qaoa_maxcut_ansatz(4, [(0, 1), (1, 2), (2, 3)])
        obs = maxcut_observable([(0, 1), (1, 2), (2, 3)])
        grid = {
            p.name: np.linspace(0.1, 1.2, 6) * (i + 1)
            for i, p in enumerate(params)
        }
        batched = evaluate_grid(circuit, obs, grid)
        assert batched.shape == (6,)
        point = {p.name: grid[p.name][2] for p in params}
        assert batched[2] == pytest.approx(
            expectation(circuit, obs, point), abs=1e-12
        )

    def test_parameter_objects_accepted_as_grid_keys(self):
        circuit = Circuit(1, 0)
        circuit.add(CircuitGate("ry", (0,), params=(ParamExpr.of(theta),)))
        obs = ising_observable(1, [], h=1.0)
        angles = np.linspace(0.0, np.pi, 5)
        by_name = evaluate_grid(circuit, obs, {"theta": angles})
        by_param = evaluate_grid(circuit, obs, {theta: angles})
        assert by_name == pytest.approx(by_param)
        # <Z> under ry(t) is cos(t).
        assert by_name == pytest.approx(np.cos(angles), abs=1e-12)

    def test_grid_validation(self):
        circuit = Circuit(1, 0)
        circuit.add(CircuitGate("ry", (0,), params=(ParamExpr.of(theta),)))
        obs = ising_observable(1, [], h=1.0)
        with pytest.raises(QwertyTypeError, match="missing"):
            evaluate_grid(circuit, obs, {})
        with pytest.raises(QwertyTypeError, match="mismatched"):
            grid_probabilities(
                circuit, {"theta": [0.1, 0.2], "phi": [0.3]}
            )

    def test_empty_grid(self):
        circuit = Circuit(1, 0)
        circuit.add(CircuitGate("ry", (0,), params=(ParamExpr.of(theta),)))
        probs = grid_probabilities(circuit, {"theta": []})
        assert probs.shape == (0, 2)

    def test_zero_qubit_grid_matches_exact_probabilities(self):
        circuit = Circuit(0, 0)
        probs = grid_probabilities(circuit, {"theta": [0.1, 0.2]})
        assert np.array_equal(probs, [exact_probabilities(circuit)] * 2)

    def test_chunked_grid_matches_one_chunk(self, monkeypatch):
        from repro.variational import evaluate

        circuit = _controlled_symbolic_circuit()
        rng = np.random.default_rng(5)
        grid = {
            "theta": rng.uniform(-np.pi, np.pi, 10),
            "phi": rng.uniform(-np.pi, np.pi, 10),
        }
        whole = grid_probabilities(circuit, grid)
        monkeypatch.setattr(evaluate, "batch_chunk_size", lambda n: 3)
        chunked = grid_probabilities(circuit, grid)
        assert chunked.shape == whole.shape == (10, 4)
        assert np.abs(chunked - whole).max() <= 1e-12

    def test_evaluate_grid_memory_does_not_grow_with_points(self, monkeypatch):
        # Each chunk is reduced to its energies before the next runs, so
        # a 16x longer grid costs a (G,) result, not a (G, 2^n) array
        # (32 KiB more per point at n=12 if it were kept).
        import tracemalloc

        from repro.variational import evaluate

        circuit, params = hardware_efficient_ansatz(12, layers=1)
        obs = ising_observable(12, [(q, q + 1) for q in range(11)])
        monkeypatch.setattr(evaluate, "batch_chunk_size", lambda n: 2)
        rng = np.random.default_rng(7)

        def grid(points: int) -> dict:
            return {p.name: rng.uniform(-np.pi, np.pi, points) for p in params}

        def peak(points: int) -> int:
            sweep = grid(points)
            tracemalloc.start()
            try:
                evaluate_grid(circuit, obs, sweep)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # An untraced run first fills the interpreter's object free
        # lists, a bounded one-time cost that is not the grid's.
        evaluate_grid(circuit, obs, grid(256))
        small, large = peak(4), peak(64)
        assert large - small < 128 * 1024, (small, large)
