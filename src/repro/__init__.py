"""Reproduction of ASDF, the compiler for the Qwerty basis-oriented
quantum programming language (CGO 2025).

Public API::

    from repro import qpu, classical, bit, N

    @classical[N](secret)
    def f(secret: bit[N], x: bit[N]) -> bit:
        return (secret & x).xor_reduce()

    @qpu[N](f)
    def kernel(f: cfunc[N, 1]) -> bit[N]:
        return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure

    print(kernel())
"""

from repro.errors import (
    Diagnostic,
    Note,
    QwertyError,
    SourceSpan,
)

# Load the ``repro.classical`` subpackage before the ``classical``
# decorator is bound below.  The import system sets a package attribute
# when it first loads a subpackage, so a later lazy import (the
# decorator loads ``repro.classical.pyast`` on first use) would
# otherwise rebind ``repro.classical`` to the subpackage.
import repro.classical  # noqa: E402,F401
from repro.frontend.decorators import (
    Bits,
    DimVar,
    I,
    J,
    K,
    M,
    N,
    angle,
    bit,
    cfunc,
    classical,
    qfunc,
    qpu,
    qubit,
    rev_qfunc,
)
from repro.parameters import Parameter, ParamExpr
from repro.noise import (
    KrausChannel,
    NoiseModel,
    ReadoutError,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    phase_damping,
    phase_flip,
    standard_noise_model,
)
from repro.pipeline import (
    PRESETS,
    CompileOptions,
    CompileResult,
    clear_compile_cache,
    compile_cache_info,
    compile_kernel,
    simulate_kernel,
    simulate_kernel_with_info,
)
from repro.sim.backend import (
    SimBackend,
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "Bits",
    "CompileOptions",
    "CompileResult",
    "Diagnostic",
    "KrausChannel",
    "NoiseModel",
    "Note",
    "PRESETS",
    "ParamExpr",
    "Parameter",
    "QwertyError",
    "ReadoutError",
    "SimBackend",
    "SourceSpan",
    "amplitude_damping",
    "available_backends",
    "bit_flip",
    "bit_phase_flip",
    "depolarizing",
    "get_backend",
    "phase_damping",
    "phase_flip",
    "register_backend",
    "standard_noise_model",
    "DimVar",
    "I",
    "J",
    "K",
    "M",
    "N",
    "angle",
    "bit",
    "cfunc",
    "classical",
    "clear_compile_cache",
    "compile_cache_info",
    "compile_kernel",
    "qfunc",
    "qpu",
    "qubit",
    "rev_qfunc",
    "simulate_kernel",
    "simulate_kernel_with_info",
]

__version__ = "0.1.0"
