"""Tests for the IR interpreter: the no-opt configuration must compute
the same results as the fully inlined one (Table 1 soundness, §8.2)."""

import pytest

from repro.algorithms import bernstein_vazirani, deutsch_jozsa
from repro.errors import SimulationError
from repro.sim.interpreter import interpret_module


def test_no_opt_bv_runs_via_callables():
    kernel = bernstein_vazirani("1011")
    result = kernel.compile(pipeline="no-opt")
    bits = interpret_module(result.qcircuit_module, num_qubits=12)
    assert bits == [1, 0, 1, 1]


def test_no_opt_matches_opt():
    kernel = bernstein_vazirani("110")
    opt = kernel()
    noopt_module = kernel.compile(pipeline="no-opt").qcircuit_module
    bits = interpret_module(noopt_module, num_qubits=10)
    assert list(opt) == bits


def test_no_opt_dj():
    kernel = deutsch_jozsa(3)
    noopt = kernel.compile(pipeline="no-opt")
    bits = interpret_module(noopt.qcircuit_module, num_qubits=10)
    assert bits == [1, 1, 1]


def test_opt_module_also_interpretable():
    kernel = bernstein_vazirani("101")
    result = kernel.compile()
    bits = interpret_module(result.qcircuit_module, num_qubits=10)
    assert bits == [1, 0, 1]


def test_interpreter_qubit_exhaustion():
    kernel = bernstein_vazirani("1111")
    result = kernel.compile(pipeline="no-opt")
    with pytest.raises(SimulationError, match="ran out"):
        interpret_module(result.qcircuit_module, num_qubits=2)
