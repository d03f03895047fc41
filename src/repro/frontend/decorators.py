"""The ``@qpu`` and ``@classical`` decorators (paper §4).

The decorators retrieve the Python AST of the decorated function; no
changes to the Python interpreter are needed.  Dimension variables are
pre-declared symbols (``N``, ``M``, ``K``, ``I``, ``J``) used in
subscripts like ``@qpu[N](f)``; ASDF infers their values from the types
of captures when possible (e.g. ``N`` from the length of a captured
secret bit string), and remaining variables can be bound by
subscripting the kernel (``kernel[12]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import DimVarError, QwertyTypeError
from repro.frontend.ast_nodes import DimRef, eval_dim
from repro.frontend.types import AngleType, BitType, CFuncType, QwertyType
from repro.parameters import Parameter, ParamExpr


@dataclass(frozen=True)
class DimVar:
    """A dimension variable symbol, e.g. ``N`` in ``@qpu[N](f)``.

    Arithmetic returns the symbol itself so annotations like
    ``bit[2 * N + 1]`` evaluate harmlessly at function-definition time;
    the compiler reads the annotation's AST, never its runtime value.
    """

    name: str

    def __repr__(self) -> str:
        return self.name

    def _arith(self, *_args) -> "DimVar":
        return self

    __add__ = __radd__ = _arith
    __sub__ = __rsub__ = _arith
    __mul__ = __rmul__ = _arith
    __floordiv__ = __rfloordiv__ = _arith
    __pow__ = __rpow__ = _arith


N = DimVar("N")
M = DimVar("M")
K = DimVar("K")
I = DimVar("I")  # noqa: E741 - matches the paper's variable names.
J = DimVar("J")


class Bits:
    """A classical bit string value (the runtime form of ``bit[N]``)."""

    def __init__(self, values: Iterable[int]) -> None:
        self.values = tuple(int(v) for v in values)
        if any(v not in (0, 1) for v in self.values):
            raise QwertyTypeError("bits must be 0 or 1")

    @classmethod
    def from_str(cls, text: str) -> "Bits":
        return cls(int(ch) for ch in text)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Bits(self.values[index])
        return self.values[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Bits):
            return self.values == other.values
        if isinstance(other, str):
            return str(self) == other
        if isinstance(other, tuple):
            return self.values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __int__(self) -> int:
        value = 0
        for bit_value in self.values:
            value = (value << 1) | bit_value
        return value

    def __str__(self) -> str:
        return "".join(str(v) for v in self.values)

    def __repr__(self) -> str:
        return f"Bits('{self}')"


class _TypeMarker:
    """Placeholder returned by ``bit[N]`` etc. so that annotations
    evaluate without error; the compiler reads the AST, not these."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __getitem__(self, item) -> "_TypeMarker":
        return self

    def __call__(self, *args, **kwargs):
        raise QwertyTypeError(f"{self.name} is a type annotation, not a value")


class _BitMarker(_TypeMarker):
    """``bit`` doubles as the Bits factory (``bit.from_str``)."""

    @staticmethod
    def from_str(text: str) -> Bits:
        return Bits.from_str(text)


bit = _BitMarker("bit")
qubit = _TypeMarker("qubit")
cfunc = _TypeMarker("cfunc")
qfunc = _TypeMarker("qfunc")
rev_qfunc = _TypeMarker("rev_qfunc")
angle = _TypeMarker("angle")


def _as_dimvar_list(item) -> list[str]:
    if isinstance(item, DimVar):
        return [item.name]
    if isinstance(item, tuple):
        return [dim.name for dim in item]
    raise DimVarError("subscript decorators with dimension variables")


# ----------------------------------------------------------------------
# @classical
# ----------------------------------------------------------------------
class ClassicalFunction:
    """A parsed ``@classical`` function plus its captures."""

    def __init__(self, fn, dimvars: list[str], captures: tuple) -> None:
        from repro.classical.pyast import parse_classical_source

        self.python_fn = fn
        self.name, self.params, self.body = parse_classical_source(fn)
        self.dimvars = dimvars
        self.capture_values: dict[str, tuple[int, ...]] = {}
        for (param_name, _dim), capture in zip(self.params, captures):
            if not isinstance(capture, Bits):
                raise QwertyTypeError(
                    "@classical captures must be bit strings"
                )
            self.capture_values[param_name] = capture.values
        #: (input width, output width) per dims, filled by
        #: :meth:`signature`: a kernel's dims inference and capture
        #: typing would otherwise rebuild the whole network each time.
        self._signatures: dict[tuple, tuple[int, int]] = {}

    def infer_dims(self) -> dict[str, int]:
        dims: dict[str, int] = {}
        for param_name, dim in self.params:
            if param_name in self.capture_values:
                width = len(self.capture_values[param_name])
                if isinstance(dim, DimRef):
                    if dims.get(dim.name, width) != width:
                        raise DimVarError(
                            f"conflicting values for {dim.name}"
                        )
                    dims[dim.name] = width
                elif isinstance(dim, int) and dim != width:
                    raise QwertyTypeError(
                        f"capture {param_name!r} width mismatch"
                    )
        return dims

    def signature(self, dims: dict[str, int]) -> tuple[int, int]:
        """(input width, output width) once dims are known.

        Memoized per dims; a dims value the network cannot be built for
        raises on every call and is never stored."""
        key = tuple(sorted(dims.items()))
        widths = self._signatures.get(key)
        if widths is None:
            network = self.network(dims)
            widths = network.num_inputs, len(network.outputs)
            self._signatures[key] = widths
        return widths

    def network(self, dims: dict[str, int]):
        from repro.classical.pyast import build_network

        widths = [
            (name, eval_dim(dim, dims)) for name, dim in self.params
        ]
        return build_network(self.body, widths, self.capture_values, dims)

    def evaluate(self, bits: Bits, dims: Optional[dict[str, int]] = None) -> Bits:
        """Run the classical function on concrete bits (for testing)."""
        dims = dims if dims is not None else self.infer_dims()
        network = self.network(dims)
        return Bits(network.evaluate(list(bits)))


class _ClassicalFactory:
    def __init__(self, dimvars: list[str] = ()) -> None:
        self.dimvars = list(dimvars)

    def __getitem__(self, item) -> "_ClassicalFactory":
        return _ClassicalFactory(_as_dimvar_list(item))

    def __call__(self, *args):
        if len(args) == 1 and callable(args[0]) and not isinstance(args[0], Bits):
            return ClassicalFunction(args[0], self.dimvars, ())
        captures = args

        def decorate(fn):
            return ClassicalFunction(fn, self.dimvars, captures)

        return decorate


classical = _ClassicalFactory()


# ----------------------------------------------------------------------
# @qpu
# ----------------------------------------------------------------------
class QpuKernel:
    """A parsed ``@qpu`` kernel: compile lazily, simulate on call."""

    def __init__(self, fn, dimvars: list[str], captures: tuple,
                 bound_dims: Optional[dict[str, int]] = None) -> None:
        from repro.frontend.pyast import parse_kernel

        self.python_fn = fn
        self.dimvars = dimvars
        self.kernel_ast = parse_kernel(fn, dimvars)
        self.name = self.kernel_ast.name
        self.captures: dict[str, object] = {}
        for param, capture in zip(self.kernel_ast.params, captures):
            self.captures[param.name] = capture
        self.bound_dims = dict(bound_dims or {})
        #: Compile-cache fingerprint, computed on first use
        #: (:func:`repro.pipeline._kernel_fingerprint`).
        self._fingerprint: Optional[tuple] = None
        #: :meth:`infer_dims` results by ``allow_unbound``: every
        #: compile-cache lookup needs the dims, and a captured
        #: ``@classical`` oracle makes them cost a network build.
        self._dims: dict[bool, dict[str, int]] = {}

    # ------------------------------------------------------------------
    def __getitem__(self, item) -> "QpuKernel":
        """Bind remaining dimension variables positionally."""
        values = item if isinstance(item, tuple) else (item,)
        inferred = self.infer_dims(allow_unbound=True)
        unbound = [name for name in self.dimvars if name not in inferred]
        if len(values) > len(unbound):
            raise DimVarError("too many dimension values")
        bound = dict(self.bound_dims)
        for name, value in zip(unbound, values):
            bound[name] = int(value)
        return QpuKernel(
            self.python_fn,
            self.dimvars,
            tuple(self.captures.values()),
            bound,
        )

    def infer_dims(self, allow_unbound: bool = False) -> dict[str, int]:
        """Infer dimension variables from capture types (paper §4).

        Computed once per kernel and mode; each call returns a fresh
        dict.  A :class:`DimVarError` is raised again on every call."""
        dims = self._dims.get(allow_unbound)
        if dims is None:
            dims = self._infer_dims(allow_unbound)
            self._dims[allow_unbound] = dims
        return dict(dims)

    def _infer_dims(self, allow_unbound: bool) -> dict[str, int]:
        dims = dict(self.bound_dims)
        for param in self.kernel_ast.params:
            capture = self.captures.get(param.name)
            if capture is None:
                continue
            annotation = param.annotation
            if isinstance(capture, ClassicalFunction):
                try:
                    inner = capture.infer_dims()
                    n_in, n_out = capture.signature({**inner, **dims})
                except DimVarError:
                    continue  # Not inferable from this capture alone.
                if annotation.kind == "cfunc" and annotation.dims:
                    self._unify(dims, annotation.dims[0], n_in)
                    if len(annotation.dims) > 1:
                        self._unify(dims, annotation.dims[1], n_out)
            elif isinstance(capture, Bits):
                if annotation.kind == "bit" and annotation.dims:
                    self._unify(dims, annotation.dims[0], len(capture))
            elif isinstance(capture, QpuKernel):
                pass  # Dimensions of kernel captures are explicit.
        missing = [name for name in self.dimvars if name not in dims]
        if missing and not allow_unbound:
            raise DimVarError(
                f"could not infer dimension variables {missing} of "
                f"@{self.name}; bind them with kernel{missing}",
                span=self.kernel_ast.span,
            )
        return dims

    @staticmethod
    def _unify(dims: dict[str, int], dim_expr, value: int) -> None:
        if isinstance(dim_expr, DimRef):
            existing = dims.get(dim_expr.name)
            if existing is not None and existing != value:
                raise DimVarError(
                    f"conflicting values for {dim_expr.name}: "
                    f"{existing} vs {value}"
                )
            dims[dim_expr.name] = value
        elif isinstance(dim_expr, int) and dim_expr != value:
            raise QwertyTypeError("capture width mismatch")

    def capture_types(self, dims: dict[str, int]) -> dict[str, QwertyType]:
        types: dict[str, QwertyType] = {}
        for name, capture in self.captures.items():
            if isinstance(capture, ClassicalFunction):
                inner = capture.infer_dims()
                n_in, n_out = capture.signature({**inner, **dims})
                types[name] = CFuncType(n_in, n_out)
            elif isinstance(capture, Bits):
                types[name] = BitType(len(capture))
            elif isinstance(capture, (Parameter, ParamExpr)):
                types[name] = AngleType()
            elif isinstance(capture, (int, float)) and not isinstance(
                capture, bool
            ):
                types[name] = AngleType()
            else:
                raise QwertyTypeError(
                    f"unsupported capture type {type(capture).__name__}"
                )
        return types

    # ------------------------------------------------------------------
    def compile(self, options=None, *, pipeline=None, cache=False):
        from repro.pipeline import compile_kernel

        return compile_kernel(self, options, pipeline=pipeline, cache=cache)

    def __call__(
        self,
        shots: int = 1,
        seed: int = 0,
        backend: str | None = None,
        noise_model=None,
        params=None,
        parallel_workers: int | None = None,
    ):
        """Compile, simulate, and return the measured bits.

        ``backend`` names a simulation backend (docs/simulators.md);
        the default vectorized backend samples all shots from one
        statevector evolution whenever the circuit allows it.
        ``noise_model`` (a :class:`repro.noise.NoiseModel`) executes
        the compiled circuit under noise (docs/noise.md).
        ``params`` maps :class:`repro.parameters.Parameter` names (or
        Parameter objects) to concrete angles; the kernel is compiled
        once symbolically and bound per call (docs/variational.md).
        ``parallel_workers`` splits the shots into that many in-process
        chunks (:mod:`repro.exec`; ``0`` = one per core,
        docs/performance.md).
        """
        from repro.pipeline import simulate_kernel

        results = simulate_kernel(
            self,
            shots=shots,
            seed=seed,
            backend=backend,
            noise_model=noise_model,
            params=params,
            parallel_workers=parallel_workers,
        )
        if shots == 1:
            return results[0]
        return results

    def histogram(
        self,
        shots: int = 128,
        seed: int = 0,
        backend: str | None = None,
        noise_model=None,
        params=None,
        parallel_workers: int | None = None,
    ) -> dict[str, int]:
        from repro.pipeline import simulate_kernel

        counts: dict[str, int] = {}
        for result in simulate_kernel(
            self,
            shots=shots,
            seed=seed,
            backend=backend,
            noise_model=noise_model,
            params=params,
            parallel_workers=parallel_workers,
        ):
            counts[str(result)] = counts.get(str(result), 0) + 1
        return counts


class _QpuFactory:
    def __init__(self, dimvars: list[str] = ()) -> None:
        self.dimvars = list(dimvars)

    def __getitem__(self, item) -> "_QpuFactory":
        return _QpuFactory(_as_dimvar_list(item))

    def __call__(self, *args):
        if (
            len(args) == 1
            and callable(args[0])
            and not isinstance(args[0], (Bits, ClassicalFunction, QpuKernel))
        ):
            return QpuKernel(args[0], self.dimvars, ())
        captures = args

        def decorate(fn):
            return QpuKernel(fn, self.dimvars, captures)

        return decorate


qpu = _QpuFactory()
