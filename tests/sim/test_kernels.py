"""The apply-matrix primitive and gate matrices (repro.sim.kernels).

Checks :func:`apply_matrix_inplace` against a dense-matrix reference
on every target layout the engines pass it: plain target tuples, the
batched ``(shots, 2, ..., 2)`` layout, and the non-contiguous
control-sliced views of ``BatchedStatevector.apply_gate`` — and its
``(rows, d, d)`` stack form against one 2-D apply per row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.batched import control_sliced_view
from repro.sim.kernels import apply_matrix_inplace, gate_matrix


def _random_state(shape, seed=0):
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.ascontiguousarray(state, dtype=np.complex128)


def _random_unitary(dim, seed=1):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    return np.ascontiguousarray(q, dtype=np.complex128)


def _dense_reference(state, matrix, targets):
    """Apply via the full 2^n unitary: embed, matmul, done."""
    n = state.ndim
    full = np.einsum(
        "ab,cd->acbd", matrix, np.eye(2 ** (n - len(targets)))
    ).reshape(2**n, 2**n)
    # Reorder axes so targets lead, apply, reorder back.
    rest = [ax for ax in range(n) if ax not in targets]
    perm = list(targets) + rest
    inverse = np.argsort(perm)
    flat = state.transpose(perm).reshape(-1)
    out = (full @ flat).reshape([2] * n).transpose(inverse)
    return out


# ----------------------------------------------------------------------
# apply_matrix_inplace against the dense reference.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("targets", [(0,), (2,), (0, 2), (3, 1), (1, 2, 0)])
def test_numpy_kernel_matches_dense_reference(targets):
    n = 4
    state = _random_state((2,) * n)
    matrix = _random_unitary(2 ** len(targets))
    expected = _dense_reference(state.copy(), matrix, targets)
    apply_matrix_inplace(state, matrix, targets)
    assert np.allclose(state, expected, atol=1e-10)


def test_numpy_kernel_handles_batched_layout():
    shots, n = 5, 3
    batched = _random_state((shots,) + (2,) * n)
    matrix = _random_unitary(4)
    expected = np.stack(
        [
            _dense_reference(batched[s].copy(), matrix, (1, 0))
            for s in range(shots)
        ]
    )
    # Axis 0 is the shot axis; targets are offset by one.
    apply_matrix_inplace(batched, matrix, (2, 1))
    assert np.allclose(batched, expected, atol=1e-10)


@pytest.mark.parametrize("targets", [(0,), (3, 0)])
def test_numpy_kernel_matches_dense_reference_on_control_sliced_view(
    targets,
):
    # The layout BatchedStatevector.apply_gate passes for a controlled
    # gate: a strided view of the batch with the control axis removed.
    shots, n = 3, 4
    batched = _random_state((shots,) + (2,) * n)
    original = batched.copy()
    matrix = _random_unitary(2 ** len(targets))
    view, axes = control_sliced_view(batched, targets, (1,), (1,))
    assert not view.flags["C_CONTIGUOUS"]
    # Each shot's row of the view drops qubit 1: qubits 0, 2, 3 sit on
    # its axes 0, 1, 2.
    row_targets = tuple(axis - 1 for axis in axes)
    expected = np.stack(
        [
            _dense_reference(view[s].copy(), matrix, row_targets)
            for s in range(shots)
        ]
    )
    apply_matrix_inplace(view, matrix, axes)
    assert np.allclose(batched[:, :, 1], expected, atol=1e-10)
    # The control-0 half is not part of the view and stays untouched.
    assert np.array_equal(batched[:, :, 0], original[:, :, 0])


def _per_row(state, stack, targets):
    """The stack applied the slow way: one 2-D apply per row."""
    rows = state.copy()
    for row, matrix in zip(rows, stack):
        apply_matrix_inplace(row, matrix, tuple(t - 1 for t in targets))
    return rows


@pytest.mark.parametrize("targets", [(2,), (3, 1)])
def test_matrix_stack_applies_one_matrix_per_row(targets):
    rows, n = 4, 3
    state = _random_state((rows,) + (2,) * n)
    stack = np.stack(
        [_random_unitary(2 ** len(targets), seed=r) for r in range(rows)]
    )
    expected = _per_row(state, stack, targets)
    apply_matrix_inplace(state, stack, targets)
    assert np.allclose(state, expected, atol=1e-12)


@pytest.mark.parametrize("targets", [(0,), (3, 0)])
def test_matrix_stack_on_control_sliced_view(targets):
    # A controlled symbolic gate over a parameter grid: the control
    # slice keeps the row axis, so each row still gets its own matrix.
    rows, n = 3, 4
    batched = _random_state((rows,) + (2,) * n)
    original = batched.copy()
    stack = np.stack(
        [_random_unitary(2 ** len(targets), seed=r) for r in range(rows)]
    )
    view, axes = control_sliced_view(batched, targets, (1,), (1,))
    expected = _per_row(view, stack, axes)
    apply_matrix_inplace(view, stack, axes)
    assert np.allclose(batched[:, :, 1], expected, atol=1e-12)
    assert np.array_equal(batched[:, :, 0], original[:, :, 0])


def test_gate_matrices_are_frozen_and_cached():
    h = gate_matrix("h")
    assert gate_matrix("h") is h  # cached
    with pytest.raises(ValueError):
        h[0, 0] = 0.0  # read-only
    assert gate_matrix("rx", (0.5,)) is gate_matrix("rx", (0.5,))
    assert not np.allclose(
        gate_matrix("rx", (0.5,)), gate_matrix("rx", (1.5,))
    )
    with pytest.raises(SimulationError):
        gate_matrix("not-a-gate")
