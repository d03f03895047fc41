"""Tests for the textual IR printer and module-level views."""

from repro.algorithms import bernstein_vazirani
from repro.ir.printer import print_module


def test_printed_bv_module_structure():
    result = bernstein_vazirani("101").compile()
    text = print_module(result.qwerty_module)
    # Fully inlined: a single function with the key quantum ops.
    assert text.count("func @") == 1
    assert "qwerty.qbprep" in text
    assert "qwerty.embed" in text
    assert "qwerty.qbtrans" in text
    assert "qwerty.qbmeas" in text
    assert "func.return" in text
    # No function-value machinery survives inlining.
    assert "call_indirect" not in text
    assert "func_const" not in text


def test_printed_noopt_module_keeps_function_values():
    result = bernstein_vazirani("101").compile(pipeline="no-opt")
    text = print_module(result.qwerty_module)
    assert "qwerty.call_indirect" in text
    assert "qwerty.func_const" in text
    assert text.count("func @") > 1  # Lifted lambdas.


def test_printed_qcircuit_module():
    result = bernstein_vazirani("101").compile()
    text = print_module(result.qcircuit_module)
    assert "qcirc.qalloc" in text
    assert "qcirc.gate" in text
    assert "qcirc.measure" in text


def test_ssa_names_are_stable_within_print():
    result = bernstein_vazirani("11").compile()
    first = print_module(result.qwerty_module)
    second = print_module(result.qwerty_module)
    assert first == second
