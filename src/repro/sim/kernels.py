"""Gate matrices and the one apply-matrix primitive.

Both simulation engines in the repository — the statevector engine
(:mod:`repro.sim.batched`, which serves every backend but one) and the
exact density-matrix backend — funnel each gate application through
one primitive, :func:`apply_matrix_inplace`: *apply a 2^k x 2^k unitary
to k target axes of a complex tensor, in place*.  It is plain NumPy: an
LRU-cached axis permutation, one reshape to a ``(2^k, rest)`` block,
one matmul, and the inverse permutation written back into the caller's
buffer, so it serves any array layout (the batched engine's leading
shot axis, control-sliced views).  A stack of matrices applies one
per row of the leading axis.  See docs/performance.md.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Sequence

import numpy as np

from repro.errors import SimulationError


# ----------------------------------------------------------------------
# Gate matrices (shared by every engine and by the fusion pass).
# ----------------------------------------------------------------------
def _build_gate_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    """The unitary matrix of a known 1- or 2-qubit gate."""
    from repro.parameters import is_symbolic

    symbolic = [str(p) for p in params if is_symbolic(p)]
    if symbolic:
        raise SimulationError(
            f"gate {name!r} has unbound symbolic parameter(s) "
            f"{', '.join(symbolic)}; bind concrete values first with "
            "CompileResult.bind(...) or pass params= to the simulation "
            "entry point (docs/variational.md)"
        )
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if name == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if name == "z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if name == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) * inv_sqrt2
    if name == "s":
        return np.array([[1, 0], [0, 1j]], dtype=complex)
    if name == "sdg":
        return np.array([[1, 0], [0, -1j]], dtype=complex)
    if name == "t":
        return np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
    if name == "tdg":
        return np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)
    if name == "sx":
        return 0.5 * np.array(
            [[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex
        )
    if name == "sxdg":
        return 0.5 * np.array(
            [[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex
        )
    if name == "p":
        return np.array([[1, 0], [0, cmath.exp(1j * params[0])]], dtype=complex)
    if name == "rx":
        half = params[0] / 2.0
        return np.array(
            [
                [math.cos(half), -1j * math.sin(half)],
                [-1j * math.sin(half), math.cos(half)],
            ],
            dtype=complex,
        )
    if name == "ry":
        half = params[0] / 2.0
        return np.array(
            [
                [math.cos(half), -math.sin(half)],
                [math.sin(half), math.cos(half)],
            ],
            dtype=complex,
        )
    if name == "rz":
        half = params[0] / 2.0
        return np.array(
            [
                [cmath.exp(-1j * half), 0],
                [0, cmath.exp(1j * half)],
            ],
            dtype=complex,
        )
    if name == "swap":
        return np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
    raise SimulationError(f"no matrix for gate {name!r}")


@functools.lru_cache(maxsize=4096)
def _cached_gate_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    matrix = _build_gate_matrix(name, params)
    # Cached matrices are shared across every simulator in the process;
    # freeze them so no caller can corrupt the cache in place.
    matrix.setflags(write=False)
    return matrix


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """The (cached, read-only) unitary matrix of a known gate.

    Rotation angles participate in the cache key, so circuits built
    from a fixed gate set — e.g. after Selinger decomposition — pay the
    trigonometry once per distinct (name, params) pair rather than once
    per gate application.
    """
    return _cached_gate_matrix(name, tuple(params))


# ----------------------------------------------------------------------
# The apply primitive.
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=4096)
def _axis_permutation(
    num_axes: int, targets: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cached (perm, inverse) moving ``targets`` to the leading axes."""
    rest = tuple(axis for axis in range(num_axes) if axis not in targets)
    perm = targets + rest
    inverse = tuple(int(axis) for axis in np.argsort(perm))
    return perm, inverse


def apply_matrix_inplace(
    state: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...]
) -> None:
    """Apply a 2^k x 2^k ``matrix`` to ``state``'s target axes, in place.

    ``state`` is any complex array whose ``targets`` axes each have
    length 2; every other axis — including a leading shot axis in the
    batched engine, or the surviving axes of a control-sliced view —
    rides along unchanged.  The first target is the matrix's most
    significant index bit.

    A ``(rows, 2^k, 2^k)`` stack gives row ``r`` of ``state``'s
    leading axis (never a target) its own ``matrix[r]``.
    """
    k = len(targets)
    lead = targets if matrix.ndim == 2 else (0,) + targets
    perm, inverse = _axis_permutation(state.ndim, lead)
    permuted_shape = tuple(state.shape[axis] for axis in perm)
    block = state.transpose(perm).reshape(matrix.shape[:-2] + (2**k, -1))
    updated = np.matmul(matrix, block)
    state[...] = updated.reshape(permuted_shape).transpose(inverse)
