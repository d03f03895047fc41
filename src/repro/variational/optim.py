"""First-order optimizers for variational loops: Adam, AdamW, ADOPT.

Pure NumPy implementations of the update rules from the PAPERS.md
Adam-convergence line of work: classic Adam (Kingma & Ba) with coupled
L2, AdamW (Loshchilov & Hutter) with *decoupled* weight decay, and
ADOPT (Taniguchi et al.), which normalizes by the *previous* second
moment before applying momentum so convergence no longer depends on
the β₂ choice.

Optimizers are stateful (`step(params, grad) -> new params`) and
framework-free; :func:`minimize` is the driving loop used by
:mod:`repro.variational.vqe`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import SimulationError


class Adam:
    """Adam with bias correction (and optional *coupled* L2 decay).

    First step from zero state reduces to ``params − lr·g/(|g|+eps)``
    because the bias corrections exactly cancel the ``(1−β)`` factors —
    the hand-computed check in the optimizer tests.
    """

    def __init__(
        self,
        lr: float = 0.05,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise SimulationError("betas must lie in [0, 1)")
        if lr <= 0.0 or eps <= 0.0:
            raise SimulationError("lr and eps must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None

    def _ensure_state(self, shape: tuple[int, ...]) -> None:
        if self.m is None:
            self.m = np.zeros(shape)
            self.v = np.zeros(shape)
        elif self.m.shape != shape:
            raise SimulationError(
                f"optimizer state has shape {self.m.shape}, "
                f"got gradient of shape {shape}"
            )

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One update; returns the new parameter vector (input unchanged)."""
        params = np.asarray(params, dtype=float)
        grad = np.asarray(grad, dtype=float)
        self._ensure_state(params.shape)
        if self.weight_decay:
            # Coupled L2: decay enters the gradient, hence the moments.
            grad = grad + self.weight_decay * params
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad**2
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with *decoupled* weight decay (Loshchilov & Hutter).

    Decay multiplies the parameters directly instead of entering the
    adaptive moments, so regularization strength no longer depends on
    the per-coordinate learning-rate rescaling.
    """

    def __init__(
        self,
        lr: float = 0.05,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(lr, beta1, beta2, eps, weight_decay=0.0)
        self.decoupled_decay = weight_decay

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        decayed = params * (1.0 - self.lr * self.decoupled_decay)
        return super().step(decayed, grad)


class ADOPT(Adam):
    """ADOPT: modified Adam that converges for any β₂.

    Two changes versus Adam: the gradient is normalized by the
    *previous* second moment (decorrelating numerator and denominator),
    and normalization happens *before* the momentum average.  The first
    call only seeds ``v₀ = g²`` and leaves the parameters unchanged, as
    in the published algorithm.
    """

    def __init__(
        self,
        lr: float = 0.05,
        beta1: float = 0.9,
        beta2: float = 0.9999,
        eps: float = 1e-6,
    ) -> None:
        super().__init__(lr, beta1, beta2, eps)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        grad = np.asarray(grad, dtype=float)
        if self.v is None:
            self.v = grad**2
            self.m = np.zeros_like(grad)
            return params.copy()
        self._ensure_state(params.shape)
        normalized = grad / np.maximum(np.sqrt(self.v), self.eps)
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * normalized
        new_params = params - self.lr * self.m
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad**2
        return new_params


def minimize(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    optimizer=None,
    steps: int = 100,
    callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
) -> dict:
    """Run an optimizer for ``steps`` iterations; keep the best point.

    Returns ``{"x": best params, "loss": best loss, "history": [loss
    per iterate, history[0] = f(x0)]}``.  The history has ``steps + 1``
    entries, so ``history[-1] < history[0]`` is the convergence check
    the VQE tests assert.
    """
    x = np.asarray(list(x0), dtype=float)
    optimizer = optimizer if optimizer is not None else Adam()
    history = [float(fun(x))]
    best_x, best_loss = x.copy(), history[0]
    for iteration in range(steps):
        x = optimizer.step(x, np.asarray(grad(x), dtype=float))
        loss = float(fun(x))
        history.append(loss)
        if loss < best_loss:
            best_x, best_loss = x.copy(), loss
        if callback is not None:
            callback(iteration, x, loss)
    return {"x": best_x, "loss": best_loss, "history": history}
