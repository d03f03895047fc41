"""Symbolic angle captures end-to-end: DSL → compile → bind → run.

The tentpole contract: a kernel capturing a :class:`repro.Parameter`
compiles *once* — the compile cache keys on the parameter's name, never
its value — and ``CompileResult.bind(values)`` produces executable
circuits for any number of sweep points without recompiling and
without ever inserting per-value cache entries.
"""

import math

import numpy as np
import pytest

from repro import (
    Parameter,
    angle,
    bit,
    clear_compile_cache,
    compile_kernel,
    qpu,
    simulate_kernel,
)
from repro.errors import BackendError, QwertyTypeError
from repro.pipeline import compile_cache_info

from tests.stats import assert_matches_distribution

theta = Parameter("theta")


@qpu(theta)
def rotation(theta: angle) -> bit:
    return 'p' | {'0', '1'} >> {'0', '1'@theta} | pm.measure


@qpu
def concrete() -> bit:
    return 'p' | {'0', '1'} >> {'0', '1'@180} | pm.measure


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


class TestSymbolicCompile:
    def test_parameters_surface_on_the_result(self):
        result = compile_kernel(rotation)
        assert [p.name for p in result.parameters] == ["theta"]

    def test_qasm3_declares_input_and_symbolic_angle(self):
        qasm = compile_kernel(rotation).qasm3()
        assert "input float theta;" in qasm
        # DSL phases are degrees; the degree→radian factor is baked
        # into the gate's affine expression at compile time.
        assert f"{math.pi / 180.0:.12g}*theta" in qasm

    def test_bind_produces_concrete_qasm(self):
        bound = compile_kernel(rotation).bind(theta=180.0)
        assert bound.parameters == ()
        assert "input float" not in bound.qasm3()
        assert f"{math.pi:.12g}" in bound.qasm3()

    def test_bind_rejects_unknown_names(self):
        result = compile_kernel(rotation)
        with pytest.raises(QwertyTypeError, match="unknown parameter"):
            result.bind(gamma=1.0)

    def test_bound_histograms_match_physics(self):
        # '0','1'@theta in the pm frame: P(1) = sin^2(theta_deg/2).
        for degrees in (0.0, 90.0, 180.0):
            shots = 2000
            results = simulate_kernel(
                rotation, shots=shots, params={"theta": degrees}
            )
            outcomes = [tuple(r) for r in results]
            p1 = math.sin(math.radians(degrees) / 2.0) ** 2
            assert_matches_distribution(
                outcomes,
                {(0,): 1.0 - p1, (1,): p1},
                label=f"theta={degrees}",
            )

    def test_qir_refuses_unbound_parameters(self):
        result = compile_kernel(rotation)
        with pytest.raises(BackendError, match="bind"):
            result.qir()
        with pytest.raises(BackendError, match="bind"):
            result.qir(profile="base")
        # The Base Profile emits from the flat optimized circuit, which
        # bind() rebinds; the unrestricted profile emits from the IR
        # module (pre-binding by design — docs/variational.md).
        assert "call" in result.bind(theta=90.0).qir(profile="base")

    def test_nonnumeric_angle_capture_is_a_type_error(self):
        bad = "not an angle"

        @qpu(bad)
        def kernel(bad: angle) -> bit:
            return '1'@bad | std.measure

        with pytest.raises(QwertyTypeError, match="angle"):
            compile_kernel(kernel)


class TestCompileCacheAmortization:
    def test_one_compile_serves_a_hundred_point_sweep(self):
        sweep = np.linspace(0.0, 360.0, 120)
        first = compile_kernel(rotation, cache=True)
        for degrees in sweep:
            again = compile_kernel(rotation, cache=True)
            # Cache *hit*: the very same object back, every point.
            assert again is first
            bound = again.bind(theta=float(degrees))
            assert bound.parameters == ()
        assert compile_cache_info()["entries"] == 1

    def test_bind_never_inserts_cache_entries(self):
        result = compile_kernel(rotation, cache=True)
        before = compile_cache_info()["entries"]
        for degrees in (0.0, 45.0, 90.0, 135.0):
            result.bind(theta=degrees)
        info = compile_cache_info()
        assert info["entries"] == before
        # And no key anywhere mentions a bound value.
        assert not any("45" in repr(key) for key in info["keys"])

    def test_simulate_kernel_sweep_shares_one_entry(self):
        for degrees in np.linspace(0.0, 180.0, 25):
            simulate_kernel(
                rotation, shots=8, params={"theta": float(degrees)}
            )
        assert compile_cache_info()["entries"] == 1

    def test_distinct_parameter_names_get_distinct_entries(self):
        phi = Parameter("phi")

        @qpu(phi)
        def other(phi: angle) -> bit:
            return 'p' | {'0', '1'} >> {'0', '1'@phi} | pm.measure

        compile_kernel(rotation, cache=True)
        compile_kernel(other, cache=True)
        assert compile_cache_info()["entries"] == 2

    def test_concrete_kernels_unaffected(self):
        result = compile_kernel(concrete, cache=True)
        assert result.parameters == ()
        assert compile_kernel(concrete, cache=True) is result
