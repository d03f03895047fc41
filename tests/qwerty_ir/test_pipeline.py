"""Tests for the full Qwerty IR optimization pipeline (paper §5.4)."""

from repro.basis.basis import pm, std
from repro.dialects import qwerty
from repro.ir import Builder, FuncOp, FunctionType, ModuleOp, QBundleType
from repro.ir.core import walk
from repro.ir.verifier import verify_module
from repro.qwerty_ir import (
    QWERTY_NOOPT_SPEC,
    QWERTY_OPT_SPEC,
    make_qwerty_pass_manager,
)
from repro.qwerty_ir.pipeline import drop_unused_private_funcs


def rev_type(n=1):
    return FunctionType((QBundleType(n),), (QBundleType(n),), reversible=True)


def test_lambda_then_inline_end_to_end():
    module = ModuleOp()
    kernel = FuncOp("kernel", rev_type())
    builder = Builder(kernel.entry)
    lam = qwerty.lambda_op(builder, rev_type())
    lam_builder = Builder(lam.regions[0].entry)
    out = qwerty.qbtrans(
        lam_builder, lam.regions[0].entry.args[0], std(1), pm(1)
    )
    qwerty.return_op(lam_builder, [out])
    call = qwerty.call_indirect(builder, lam.result, [kernel.entry.args[0]])
    qwerty.return_op(builder, [call.results[0]])
    module.add(kernel)
    module.entry_point = "kernel"

    make_qwerty_pass_manager(QWERTY_OPT_SPEC).run(module)
    verify_module(module)
    assert list(module.funcs) == ["kernel"]
    ops = [op.name for op in module.get("kernel").entry.ops]
    assert ops == [qwerty.QBTRANS, qwerty.RETURN]


def test_no_opt_mode_only_lifts():
    module = ModuleOp()
    kernel = FuncOp("kernel", rev_type())
    builder = Builder(kernel.entry)
    lam = qwerty.lambda_op(builder, rev_type())
    lam_builder = Builder(lam.regions[0].entry)
    qwerty.return_op(lam_builder, [lam.regions[0].entry.args[0]])
    call = qwerty.call_indirect(builder, lam.result, [kernel.entry.args[0]])
    qwerty.return_op(builder, [call.results[0]])
    module.add(kernel)
    module.entry_point = "kernel"

    make_qwerty_pass_manager(QWERTY_NOOPT_SPEC).run(module)
    ops = [op.name for op in walk(module.get("kernel").entry)]
    assert qwerty.CALL_INDIRECT in ops
    assert qwerty.FUNC_CONST in ops
    assert qwerty.LAMBDA not in ops


def test_drop_unused_private_funcs_keeps_referenced():
    module = ModuleOp()
    used = FuncOp("used", rev_type(), visibility="private")
    builder = Builder(used.entry)
    qwerty.return_op(builder, [used.entry.args[0]])
    module.add(used)

    unused = FuncOp("unused", rev_type(), visibility="private")
    builder = Builder(unused.entry)
    qwerty.return_op(builder, [unused.entry.args[0]])
    module.add(unused)

    kernel = FuncOp("kernel", rev_type())
    builder = Builder(kernel.entry)
    call = qwerty.call(builder, "used", [kernel.entry.args[0]], [QBundleType(1)])
    qwerty.return_op(builder, [call.results[0]])
    module.add(kernel)
    module.entry_point = "kernel"

    drop_unused_private_funcs(module)
    assert "used" in module.funcs
    assert "unused" not in module.funcs
    assert "kernel" in module.funcs


def test_public_funcs_never_dropped():
    module = ModuleOp()
    public = FuncOp("isolated", rev_type(), visibility="public")
    builder = Builder(public.entry)
    qwerty.return_op(builder, [public.entry.args[0]])
    module.add(public)
    drop_unused_private_funcs(module)
    assert "isolated" in module.funcs
