"""Optimizer unit tests: hand-computed steps and classic test functions."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.variational import ADOPT, Adam, AdamW, minimize


def quadratic(x):
    return float(((x - 3.0) ** 2).sum())


def quadratic_grad(x):
    return 2.0 * (x - 3.0)


def rosenbrock(x):
    return float(
        100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    )


def rosenbrock_grad(x):
    return np.array(
        [
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )


class TestAdamFirstStep:
    def test_bias_correction_hand_computed(self):
        # Step 1 from zero state: m̂ = g, v̂ = g², so the update is
        # exactly lr·g/(|g|+eps) regardless of the gradient scale.
        lr, eps = 0.1, 1e-8
        opt = Adam(lr=lr, eps=eps)
        params = np.array([1.0, -2.0])
        grad = np.array([0.5, -4.0])
        new = opt.step(params, grad)
        expected = params - lr * grad / (np.abs(grad) + eps)
        assert new == pytest.approx(expected, abs=1e-12)

    def test_second_step_hand_computed(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        opt = Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)
        g1, g2 = np.array([1.0]), np.array([2.0])
        x = opt.step(np.array([0.0]), g1)
        x = opt.step(x, g2)
        m = b1 * (1 - b1) * g1 + (1 - b1) * g2
        v = b2 * (1 - b2) * g1**2 + (1 - b2) * g2**2
        m_hat = m / (1 - b1**2)
        v_hat = v / (1 - b2**2)
        expected = (
            np.array([0.0])
            - lr * g1 / (np.abs(g1) + eps)
            - lr * m_hat / (np.sqrt(v_hat) + eps)
        )
        assert x == pytest.approx(expected, abs=1e-12)

    def test_input_not_mutated(self):
        opt = Adam()
        params = np.array([1.0, 2.0])
        opt.step(params, np.array([0.1, 0.2]))
        assert params == pytest.approx([1.0, 2.0])

    def test_shape_mismatch_rejected(self):
        opt = Adam()
        opt.step(np.zeros(2), np.ones(2))
        with pytest.raises(SimulationError, match="shape"):
            opt.step(np.zeros(3), np.ones(3))

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(SimulationError):
            Adam(beta1=1.0)
        with pytest.raises(SimulationError):
            Adam(lr=0.0)
        with pytest.raises(SimulationError):
            ADOPT(beta2=-0.1)


@pytest.mark.parametrize("optimizer", [Adam, AdamW, ADOPT])
def test_state_shape_mismatch_rejected_after_first_step(optimizer):
    # ADOPT's first step only seeds its second moment; a later step of
    # another shape must still be refused, not broadcast against it.
    opt = optimizer()
    opt.step(np.zeros(3), np.ones(3))
    with pytest.raises(SimulationError, match="optimizer state has shape"):
        opt.step(np.zeros(1), np.ones(1))


class TestAdamW:
    def test_decay_is_decoupled(self):
        # With a zero gradient, AdamW still shrinks the parameters by
        # lr·wd per step (decay bypasses the adaptive moments), while
        # classic Adam with weight_decay feeds it through the moments.
        opt = AdamW(lr=0.1, weight_decay=0.5)
        params = np.array([2.0])
        new = opt.step(params, np.zeros(1))
        assert new == pytest.approx([2.0 * (1.0 - 0.1 * 0.5)])

    def test_matches_adam_when_decay_zero(self):
        a, w = Adam(lr=0.05), AdamW(lr=0.05, weight_decay=0.0)
        x_a = x_w = np.array([1.0, -1.0])
        for _ in range(5):
            g_a, g_w = 2 * (x_a - 3), 2 * (x_w - 3)
            x_a, x_w = a.step(x_a, g_a), w.step(x_w, g_w)
        assert x_a == pytest.approx(x_w, abs=1e-12)


class TestADOPT:
    def test_first_step_only_seeds_second_moment(self):
        opt = ADOPT(lr=0.1)
        params = np.array([1.0, 2.0])
        new = opt.step(params, np.array([3.0, 4.0]))
        assert new == pytest.approx(params)
        assert opt.v == pytest.approx([9.0, 16.0])

    def test_second_step_uses_previous_v(self):
        lr, b1, eps = 0.1, 0.9, 1e-6
        opt = ADOPT(lr=lr, beta1=b1, eps=eps)
        x = opt.step(np.array([0.0]), np.array([2.0]))  # v = 4
        x = opt.step(x, np.array([1.0]))
        # m = (1-b1)·g/sqrt(v_prev) = 0.1·1/2; x -= lr·m.
        assert x == pytest.approx([-lr * (1 - b1) * 1.0 / 2.0])


class TestConvergence:
    @pytest.mark.parametrize(
        "optimizer",
        [Adam(lr=0.1), AdamW(lr=0.1, weight_decay=1e-4), ADOPT(lr=0.1)],
        ids=["adam", "adamw", "adopt"],
    )
    def test_quadratic(self, optimizer):
        result = minimize(
            quadratic, quadratic_grad, [0.0, 0.0],
            optimizer=optimizer, steps=300,
        )
        assert result["loss"] < 1e-2
        assert result["history"][0] == pytest.approx(18.0)
        assert result["history"][-1] < result["history"][0]

    def test_rosenbrock_adam(self):
        result = minimize(
            rosenbrock, rosenbrock_grad, [-1.2, 1.0],
            optimizer=Adam(lr=0.02), steps=4000,
        )
        assert result["loss"] < 1e-2
        assert result["x"] == pytest.approx([1.0, 1.0], abs=0.1)

    def test_minimize_returns_best_not_last(self):
        # A deliberately overshooting optimizer: the best-seen iterate
        # must be what comes back.
        losses = []
        result = minimize(
            quadratic,
            quadratic_grad,
            [0.0, 0.0],
            optimizer=Adam(lr=5.0),
            steps=20,
            callback=lambda i, x, loss: losses.append(loss),
        )
        assert result["loss"] == min(result["history"])
        assert len(losses) == 20
