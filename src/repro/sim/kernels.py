"""Gate matrices and the pluggable apply-matrix kernel registry.

Both simulation engines in the repository — the statevector engine
(:mod:`repro.sim.batched`, which serves every backend but one) and the
exact density-matrix backend — funnel each gate application through
one primitive: *apply a 2^k x 2^k unitary to k target axes of a
complex tensor, in place*.  This module owns that primitive.

Two implementations ship in-tree, behind a registry
(:func:`register_kernel` / :func:`get_kernel`):

``"numpy"``
    The pure-NumPy reference: an LRU-cached axis permutation, one
    reshape to a ``(2^k, rest)`` block, one matmul, and the inverse
    permutation written back into the caller's buffer.  Always
    available, and the fallback for inputs the JIT kernel does not
    accept (non-contiguous control-sliced views, exotic dtypes).

``"numba"``
    An optional ``numba``-jitted gather/matvec/scatter loop over
    precomputed flat offsets.  It avoids the NumPy path's two full-size
    temporaries (the reshape of a permuted view copies, and so does the
    write-back), working directly in the caller's buffer — including
    the batched ``(shots, 2, ..., 2)`` layout, whose leading shot axis
    is just another riding-along axis in the offset enumeration.
    Registered unconditionally; *resolving* it raises a clear
    :class:`~repro.errors.SimulationError` when numba is not installed.

The active kernel is *context-local* (:mod:`contextvars`): the process
default comes from the ``REPRO_SIM_KERNEL`` environment variable
(``"numba"`` when importable, ``"numpy"`` otherwise — the automatic
pure-NumPy fallback CI exercises on both legs), and per-run selection
goes through :func:`use_kernel` (which is what
``CompileOptions.sim_kernel`` drives).  Because the override lives in a
:class:`~contextvars.ContextVar` rather than a module global,
concurrent executors — threads of the evaluation harness, the parallel
shot executor's dispatch path (:mod:`repro.exec`) — can never observe
each other's selection, and a worker process spawned with any start
method resolves the same env-driven default as its parent.  Every
backend records the kernel that actually executed in
``RunInfo.kernel``.  See docs/performance.md.
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import functools
import importlib.util
import math
import os
from typing import Callable, Iterator, Optional, Sequence

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
# The pure-NumPy apply kernel (the always-available reference).
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


class NumpyKernel:
    """Reshape/transpose matmul in NumPy; handles any array layout."""

    name = "numpy"

    @staticmethod
    def apply(
        state: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...]
    ) -> None:
        k = len(targets)
        perm, inverse = _axis_permutation(state.ndim, targets)
        permuted_shape = tuple(state.shape[axis] for axis in perm)
        block = state.transpose(perm).reshape(2**k, -1)
        updated = np.matmul(matrix, block)
        state[...] = updated.reshape(permuted_shape).transpose(inverse)


# ----------------------------------------------------------------------
# The optional numba JIT kernel.
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def numba_available() -> bool:
    """Whether the optional ``numba`` dependency is importable.

    Memoized: this sits under :func:`default_kernel_name`, which the
    per-gate-application hot path consults, and ``find_spec`` hits the
    filesystem.  Installing numba mid-process is not supported.
    """
    return importlib.util.find_spec("numba") is not None


@functools.lru_cache(maxsize=64)
def _flat_offsets(
    shape: tuple[int, ...], targets: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """``(base, target)`` flat-element offsets for a C-contiguous array.

    ``base`` enumerates every combination of the non-target axes (the
    gather groups); ``target`` enumerates the 2^k target-axis index
    combinations in matrix row order (first target most significant —
    the same convention as the NumPy kernel's leading-axes permutation).
    """
    strides = np.ones(len(shape), dtype=np.int64)
    for axis in range(len(shape) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * shape[axis + 1]
    base = np.zeros(1, dtype=np.int64)
    for axis in range(len(shape)):
        if axis in targets:
            continue
        base = (
            base[:, None]
            + np.arange(shape[axis], dtype=np.int64) * strides[axis]
        ).reshape(-1)
    target = np.zeros(1, dtype=np.int64)
    for axis in targets:
        target = (
            target[:, None]
            + np.arange(shape[axis], dtype=np.int64) * strides[axis]
        ).reshape(-1)
    base.setflags(write=False)
    target.setflags(write=False)
    return base, target


class NumbaKernel:
    """JIT gather/matvec/scatter loop (requires ``numba``).

    Works in the caller's buffer with no full-size temporaries.  Inputs
    it cannot serve — non-contiguous views (control slicing), non-
    complex128 dtypes — silently take the NumPy path, so correctness
    never depends on layout.
    """

    name = "numba"

    def __init__(self) -> None:
        if not numba_available():
            raise SimulationError(
                "the 'numba' apply kernel requires the optional numba "
                "dependency; install numba or select kernel 'numpy' "
                "(see docs/performance.md)"
            )
        self._jit = None

    def _compiled(self):
        if self._jit is None:
            import numba

            @numba.njit(cache=True)
            def _apply_flat(flat, matrix, base, target):  # pragma: no cover
                dim = target.shape[0]
                amplitudes = np.empty(dim, dtype=np.complex128)
                for group in range(base.shape[0]):
                    offset = base[group]
                    for i in range(dim):
                        amplitudes[i] = flat[offset + target[i]]
                    for i in range(dim):
                        accumulated = 0.0 + 0.0j
                        for j in range(dim):
                            accumulated += matrix[i, j] * amplitudes[j]
                        flat[offset + target[i]] = accumulated

            self._jit = _apply_flat
        return self._jit

    def apply(
        self, state: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...]
    ) -> None:
        if (
            not state.flags["C_CONTIGUOUS"]
            or state.dtype != np.complex128
        ):
            NumpyKernel.apply(state, matrix, targets)
            return
        base, target = _flat_offsets(state.shape, targets)
        matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
        self._compiled()(state.reshape(-1), matrix, base, target)


# ----------------------------------------------------------------------
# The kernel registry and active-kernel selection.
# ----------------------------------------------------------------------
#: Environment variable naming the default kernel for the process.
KERNEL_ENV_VAR = "REPRO_SIM_KERNEL"

_KERNEL_REGISTRY: dict[str, Callable[[], object]] = {}
_KERNEL_INSTANCES: dict[str, object] = {}


def register_kernel(
    name: str, factory: Callable[[], object], *, replace: bool = False
) -> None:
    """Register an apply-kernel factory under ``name``.

    A kernel object exposes ``name`` and
    ``apply(state, matrix, targets)``; the factory is called once (the
    instance is cached) and may raise :class:`SimulationError` when an
    optional dependency is missing — the error then surfaces at
    *selection* time, not registration time.
    """
    if not replace and name in _KERNEL_REGISTRY:
        raise SimulationError(
            f"apply kernel {name!r} is already registered; pass "
            f"replace=True to override it"
        )
    _KERNEL_REGISTRY[name] = factory
    _KERNEL_INSTANCES.pop(name, None)


def available_kernels() -> tuple[str, ...]:
    """Registered kernel names, sorted (registration, not importability)."""
    return tuple(sorted(_KERNEL_REGISTRY))


def get_kernel(name: "str | None" = None):
    """Resolve a kernel name to its (cached) instance.

    ``None`` resolves to the process default (:func:`default_kernel_name`).
    Unknown names — and registered kernels whose optional dependency is
    missing — raise :class:`SimulationError`.
    """
    resolved = name or default_kernel_name()
    instance = _KERNEL_INSTANCES.get(resolved)
    if instance is not None:
        return instance
    factory = _KERNEL_REGISTRY.get(resolved)
    if factory is None:
        known = ", ".join(available_kernels())
        raise SimulationError(
            f"unknown apply kernel {resolved!r} (registered kernels: "
            f"{known}); see docs/performance.md"
        )
    instance = factory()
    _KERNEL_INSTANCES[resolved] = instance
    return instance


def default_kernel_name() -> str:
    """The process-default kernel name.

    ``REPRO_SIM_KERNEL`` wins when set; otherwise ``"numba"`` when the
    optional dependency is importable, else the pure-NumPy fallback.
    """
    from_env = os.environ.get(KERNEL_ENV_VAR)
    if from_env:
        return from_env
    return "numba" if numba_available() else "numpy"


register_kernel(NumpyKernel.name, NumpyKernel)
register_kernel(NumbaKernel.name, NumbaKernel)

#: The context-local kernel override.  ``None`` means "no override":
#: the active kernel is then the env-driven process default.  Only
#: :func:`use_kernel` writes this; keeping the override in a
#: ContextVar (not a module global) is what makes kernel selection
#: safe for concurrent executors and stateless across worker
#: processes — a worker that never calls ``use_kernel`` resolves
#: exactly what its parent's environment dictates.
_KERNEL_OVERRIDE: "contextvars.ContextVar[Optional[str]]" = (
    contextvars.ContextVar("repro_sim_kernel_override", default=None)
)


def current_kernel_selection() -> Optional[str]:
    """The context-local override name, or ``None`` when the process
    default applies.  The parallel shot executor ships this (resolved)
    to its workers so they execute under the dispatcher's selection."""
    return _KERNEL_OVERRIDE.get()


def active_kernel():
    """The kernel object currently serving :func:`apply_matrix_inplace`.

    Resolution order: the context-local :func:`use_kernel` override,
    then the env-driven process default (:func:`default_kernel_name`).
    """
    return get_kernel(_KERNEL_OVERRIDE.get() or default_kernel_name())


def active_kernel_name() -> str:
    """The active kernel's registry name (recorded in ``RunInfo``)."""
    return active_kernel().name


@contextlib.contextmanager
def use_kernel(name: "str | None") -> Iterator[None]:
    """Run a block under a specific apply kernel.

    ``None`` is a no-op (keep the active kernel), so callers can thread
    an optional selection straight through::

        with use_kernel(options.sim_kernel):
            backend.run_with_info(circuit, shots, seed)

    The selection is **context-local** (:mod:`contextvars`): it is
    visible only to the current thread/task and any contexts forked
    from it, so two concurrent executors selecting different kernels
    never interfere.  Unknown names (and kernels whose optional
    dependency is missing) raise on *entry*, before the body runs.
    """
    if name is None:
        yield
        return
    # Validate eagerly so a bad selection fails here, not mid-sweep.
    token = _KERNEL_OVERRIDE.set(get_kernel(name).name)
    try:
        yield
    finally:
        _KERNEL_OVERRIDE.reset(token)


def apply_matrix_inplace(
    state: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...]
) -> None:
    """Apply a 2^k x 2^k ``matrix`` to ``state``'s target axes, in place.

    ``state`` is any complex array whose ``targets`` axes each have
    length 2; every other axis — including a leading shot axis in the
    batched engine, or the surviving axes of a control-sliced view —
    rides along unchanged.  Dispatches to the active kernel (see
    :func:`use_kernel`); the pure-NumPy kernel is the reference
    implementation and the universal fallback.
    """
    active_kernel().apply(state, matrix, targets)
