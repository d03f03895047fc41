"""Tests for Qwerty IR canonicalization and inlining (paper §5.4, App. C)."""

from repro.basis import Basis
from repro.basis.basis import pm, std
from repro.dialects import arith, qwerty, scf
from repro.ir import (
    Builder,
    FuncOp,
    FunctionType,
    ModuleOp,
    QBundleType,
    inline_calls,
)
from repro.ir.core import walk
from repro.ir.types import I1
from repro.ir.verifier import verify_module
from repro.qwerty_ir import (
    QWERTY_OPT_SPEC,
    canonicalize,
    lift_lambdas,
    make_qwerty_pass_manager,
)


def rev_type(n):
    return FunctionType((QBundleType(n),), (QBundleType(n),), reversible=True)


def make_callee(module, name="g"):
    callee = FuncOp(name, rev_type(1), visibility="private")
    builder = Builder(callee.entry)
    out = qwerty.qbtrans(builder, callee.entry.args[0], std(1), pm(1))
    qwerty.return_op(builder, [out])
    module.add(callee)
    return callee


def test_call_indirect_func_const_becomes_call():
    module = ModuleOp()
    make_callee(module)
    func = FuncOp("f", rev_type(1))
    builder = Builder(func.entry)
    fn = qwerty.func_const(builder, "g", rev_type(1))
    call = qwerty.call_indirect(builder, fn, [func.entry.args[0]])
    qwerty.return_op(builder, [call.results[0]])
    module.add(func)

    canonicalize(module)
    verify_module(module)
    names = [op.name for op in func.entry.ops]
    assert qwerty.CALL in names
    assert qwerty.CALL_INDIRECT not in names
    assert qwerty.FUNC_CONST not in names  # DCE removed it.


def test_adj_pred_chain_folds_to_markers():
    # call_indirect(func_pred {'10'} (func_adj (func_const @f)))()
    #   --> call adj pred ({'10'}) @f()   (paper §5.4)
    module = ModuleOp()
    make_callee(module, "f_target")
    func = FuncOp("f", FunctionType((QBundleType(3),), (QBundleType(3),), True))
    builder = Builder(func.entry)
    fn = qwerty.func_const(builder, "f_target", rev_type(1))
    adj = qwerty.func_adj(builder, fn)
    pred = qwerty.func_pred(builder, adj, Basis.literal("10"))
    call = qwerty.call_indirect(builder, pred, [func.entry.args[0]])
    qwerty.return_op(builder, [call.results[0]])
    module.add(func)

    canonicalize(module)
    call_ops = [op for op in func.entry.ops if op.name == qwerty.CALL]
    assert len(call_ops) == 1
    assert call_ops[0].attrs["adj"] is True
    assert call_ops[0].attrs["pred"] == Basis.literal("10")
    assert call_ops[0].attrs["callee"] == "f_target"


def test_double_adjoint_cancels():
    module = ModuleOp()
    make_callee(module)
    func = FuncOp("f", rev_type(1))
    builder = Builder(func.entry)
    fn = qwerty.func_const(builder, "g", rev_type(1))
    adj2 = qwerty.func_adj(builder, qwerty.func_adj(builder, fn))
    call = qwerty.call_indirect(builder, adj2, [func.entry.args[0]])
    qwerty.return_op(builder, [call.results[0]])
    module.add(func)

    canonicalize(module)
    call_ops = [op for op in walk(func.entry) if op.name == qwerty.CALL]
    assert call_ops[0].attrs["adj"] is False


def test_pack_unpack_cancellation():
    module = ModuleOp()
    func = FuncOp("f", rev_type(2))
    builder = Builder(func.entry)
    qubits = qwerty.qbunpack(builder, func.entry.args[0])
    bundle = qwerty.qbpack(builder, qubits)
    qwerty.return_op(builder, [bundle])
    module.add(func)

    canonicalize(module)
    names = [op.name for op in func.entry.ops]
    assert names == [qwerty.RETURN]


def test_identity_qbtrans_removed():
    module = ModuleOp()
    func = FuncOp("f", rev_type(1))
    builder = Builder(func.entry)
    out = qwerty.qbtrans(builder, func.entry.args[0], std(1), std(1))
    qwerty.return_op(builder, [out])
    module.add(func)

    canonicalize(module)
    assert [op.name for op in func.entry.ops] == [qwerty.RETURN]


def test_scf_if_push_enables_direct_calls():
    # Paper Appendix C: call_indirect(scf.if ...) is pushed into both
    # forks, after which each fork's call_indirect(func_const) folds.
    module = ModuleOp()
    make_callee(module, "lambda3")
    make_callee(module, "lambda4")
    func = FuncOp(
        "f",
        FunctionType((I1, QBundleType(1)), (QBundleType(1),), False),
    )
    builder = Builder(func.entry)
    if_op = scf.if_op(builder, func.entry.args[0], [rev_type(1)])
    then_builder = Builder(scf.then_block(if_op))
    scf.yield_op(
        then_builder, [qwerty.func_const(then_builder, "lambda3", rev_type(1))]
    )
    else_builder = Builder(scf.else_block(if_op))
    scf.yield_op(
        else_builder, [qwerty.func_const(else_builder, "lambda4", rev_type(1))]
    )
    call = qwerty.call_indirect(builder, if_op.results[0], [func.entry.args[1]])
    qwerty.return_op(builder, [call.results[0]])
    module.add(func)

    canonicalize(module)
    verify_module(module)
    all_ops = list(walk(func.entry))
    assert not any(op.name == qwerty.CALL_INDIRECT for op in all_ops)
    call_ops = [op for op in all_ops if op.name == qwerty.CALL]
    assert {op.attrs["callee"] for op in call_ops} == {"lambda3", "lambda4"}
    # The scf.if now yields qbundles, not function values.
    if_ops = [op for op in all_ops if op.name == scf.IF]
    assert [r.type for r in if_ops[0].results] == [QBundleType(1)]


def test_lambda_lifting():
    module = ModuleOp()
    func = FuncOp("f", rev_type(1))
    builder = Builder(func.entry)
    lam = qwerty.lambda_op(builder, rev_type(1))
    lam_builder = Builder(lam.regions[0].entry)
    inner = qwerty.qbtrans(
        builder=lam_builder,
        qb=lam.regions[0].entry.args[0],
        b_in=std(1),
        b_out=pm(1),
    )
    qwerty.return_op(lam_builder, [inner])
    call = qwerty.call_indirect(builder, lam.result, [func.entry.args[0]])
    qwerty.return_op(builder, [call.results[0]])
    module.add(func)

    lift_lambdas(module)
    assert any(name.startswith("lambda") for name in module.funcs)
    names = [op.name for op in func.entry.ops]
    assert qwerty.LAMBDA not in names
    assert qwerty.FUNC_CONST in names


def test_lambda_lifting_rematerializes_captures():
    module = ModuleOp()
    make_callee(module)
    func = FuncOp("f", rev_type(1))
    builder = Builder(func.entry)
    captured = qwerty.func_const(builder, "g", rev_type(1))
    lam = qwerty.lambda_op(builder, rev_type(1))
    lam_builder = Builder(lam.regions[0].entry)
    inner_call = qwerty.call_indirect(
        lam_builder, captured, [lam.regions[0].entry.args[0]]
    )
    qwerty.return_op(lam_builder, [inner_call.results[0]])
    call = qwerty.call_indirect(builder, lam.result, [func.entry.args[0]])
    qwerty.return_op(builder, [call.results[0]])
    module.add(func)

    lift_lambdas(module)
    lifted = next(f for f in module if f.name.startswith("lambda"))
    lifted_names = [op.name for op in lifted.entry.ops]
    assert qwerty.FUNC_CONST in lifted_names  # re-materialized capture


def test_full_pipeline_inlines_to_straight_line():
    module = ModuleOp()
    make_callee(module)
    func = FuncOp("kernel", rev_type(1))
    builder = Builder(func.entry)
    fn = qwerty.func_const(builder, "g", rev_type(1))
    call = qwerty.call_indirect(builder, fn, [func.entry.args[0]])
    qwerty.return_op(builder, [call.results[0]])
    module.add(func)
    module.entry_point = "kernel"

    make_qwerty_pass_manager(QWERTY_OPT_SPEC).run(module)
    verify_module(module)
    names = [op.name for op in module.get("kernel").entry.ops]
    assert qwerty.CALL not in names
    assert qwerty.CALL_INDIRECT not in names
    assert qwerty.QBTRANS in names
    # The private callee was dropped after inlining.
    assert "g" not in module.funcs


def test_inline_adjoint_call_generates_specialization():
    module = ModuleOp()
    make_callee(module)
    func = FuncOp("kernel", rev_type(1))
    builder = Builder(func.entry)
    fn = qwerty.func_const(builder, "g", rev_type(1))
    adj = qwerty.func_adj(builder, fn)
    call = qwerty.call_indirect(builder, adj, [func.entry.args[0]])
    qwerty.return_op(builder, [call.results[0]])
    module.add(func)
    module.entry_point = "kernel"

    make_qwerty_pass_manager(QWERTY_OPT_SPEC).run(module)
    verify_module(module)
    trans = [
        op
        for op in module.get("kernel").entry.ops
        if op.name == qwerty.QBTRANS
    ]
    assert len(trans) == 1
    # The inlined body is the adjoint: pm >> std instead of std >> pm.
    assert trans[0].attrs["bin"] == pm(1)
    assert trans[0].attrs["bout"] == std(1)
