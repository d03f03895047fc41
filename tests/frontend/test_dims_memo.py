"""Dims inference and classical signatures are computed once per kernel.

Every compile-cache lookup needs a kernel's dims, and a captured
``@classical`` oracle makes them cost a logic-network build, so
``QpuKernel.infer_dims`` and ``ClassicalFunction.signature`` are
memoized.  The memo must never leak: results are copies, errors are
raised again, and each bound clone has its own.
"""

import pytest

from repro.classical import pyast as classical_pyast
from repro.errors import DimVarError
from repro.frontend.decorators import I, N, bit, cfunc, classical, qpu


def _count_network_builds(monkeypatch) -> list:
    calls = []
    real = classical_pyast.build_network

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(classical_pyast, "build_network", counting)
    return calls


def _parity_kernel():
    @classical[N]
    def f(x: bit[N]) -> bit:
        return x.xor_reduce()

    @qpu[N, I](f)
    def kernel(f: cfunc[N, 1]) -> bit[N]:
        q = 'p'[N]  # noqa
        for _ in range(I):  # noqa
            q = q | f.sign  # noqa
        return q | std[N].measure  # noqa

    return kernel


def test_each_subscripted_clone_infers_its_own_dims():
    kernel = _parity_kernel()
    assert kernel.infer_dims(allow_unbound=True) == {}
    small, large = kernel[3, 1], kernel[5, 2]
    assert small.infer_dims() == {"N": 3, "I": 1}
    assert large.infer_dims() == {"N": 5, "I": 2}
    # The parent's memo is unaffected by its clones.
    assert kernel.infer_dims(allow_unbound=True) == {}
    assert small.captures == large.captures == kernel.captures


def test_mutating_the_returned_dims_does_not_change_the_memo():
    kernel = _parity_kernel()[4, 2]
    first = kernel.infer_dims()
    first["N"] = 99
    first["EXTRA"] = 1
    assert kernel.infer_dims() == {"N": 4, "I": 2}
    partial = kernel.infer_dims(allow_unbound=True)
    partial.clear()
    assert kernel.infer_dims(allow_unbound=True) == {"N": 4, "I": 2}


def test_uninferable_kernel_raises_on_every_call():
    kernel = _parity_kernel()
    for _ in range(3):
        with pytest.raises(DimVarError, match="could not infer"):
            kernel.infer_dims()
    # The error was never stored as a result for either mode.
    assert kernel.infer_dims(allow_unbound=True) == {}
    assert kernel[2, 1].infer_dims() == {"N": 2, "I": 1}


def test_infer_dims_builds_the_oracle_network_once(monkeypatch):
    secret = bit.from_str("1011")

    @classical[N](secret)
    def f(s: bit[N], x: bit[N]) -> bit:
        return (s & x).xor_reduce()

    @qpu[N](f)
    def kernel(f: cfunc[N, 1]) -> bit[N]:
        return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure  # noqa

    calls = _count_network_builds(monkeypatch)
    for _ in range(5):
        assert kernel.infer_dims() == {"N": 4}
    assert len(calls) == 1


def test_classical_signature_builds_one_network_per_dims(monkeypatch):
    @classical[N]
    def f(x: bit[N]) -> bit:
        return x.xor_reduce()

    calls = _count_network_builds(monkeypatch)
    for _ in range(3):
        assert f.signature({"N": 3}) == (3, 1)
        assert f.signature({"N": 6}) == (6, 1)
    assert len(calls) == 2
    # Dims are keyed by content, not by dict identity or order.
    assert f.signature(dict(N=3)) == (3, 1)
    assert len(calls) == 2
