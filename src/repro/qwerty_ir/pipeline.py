"""The Qwerty IR optimization pipeline (paper §5.4), as registered passes.

The sequence is: (1) lift all lambdas to funcs referenced by
``func_const``; (2) canonicalize, converting
``call_indirect(func_const @f)(...)`` into ``call @f(...)`` (including
through ``func_adj``/``func_pred`` chains and ``scf.if``); and (3)
inline repeatedly, re-running the canonicalizer to expose new
opportunities.  Function specializations are generated before inlining
so that ``call adj/pred`` ops become plain calls with real bodies.

Each stage is registered with the unified pass infrastructure
(:mod:`repro.ir.passmanager`), so pipelines are textual specs —
:data:`QWERTY_OPT_SPEC` is the paper's full §5.4 sequence and
:data:`QWERTY_NOOPT_SPEC` the "Asdf (No Opt)" Table 1 configuration —
and every run can be instrumented per pass.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.inline import inline_calls
from repro.ir.module import ModuleOp
from repro.ir.passmanager import (
    FunctionPass,
    PassManager,
    PassStatistics,
    count_module_ops,
    expect_no_options,
    register_pass,
)
from repro.qwerty_ir.canonicalize import canonicalize
from repro.qwerty_ir.lift_lambdas import lift_lambdas
from repro.qwerty_ir.specialize import generate_specializations

#: The full §5.4 optimization sequence.
QWERTY_OPT_SPEC = "lift-lambdas,canonicalize,specialize,inline,canonicalize,dce"

#: "Asdf (No Opt)" (Table 1): lambdas are still lifted (the IR must be
#: executable) but nothing is inlined, so function values survive to
#: QIR as callables (paper §8.2).
QWERTY_NOOPT_SPEC = "lift-lambdas"


def drop_unused_private_funcs(module: ModuleOp) -> bool:
    """Remove private functions that are no longer referenced."""
    from repro.ir.core import walk

    changed = False
    progress = True
    while progress:
        progress = False
        referenced: set[str] = set()
        if module.entry_point is not None:
            referenced.add(module.entry_point)
        for func in module:
            for op in walk(func.entry):
                callee = op.attrs.get("callee")
                if callee is not None:
                    referenced.add(callee)
        for func in list(module):
            if func.visibility == "public":
                continue
            if func.name not in referenced:
                module.remove(func.name)
                progress = True
                changed = True
    return changed


def _canonicalize_and_specialize(module: ModuleOp) -> bool:
    changed = canonicalize(module)
    changed |= generate_specializations(module)
    return changed


def _inline(module: ModuleOp) -> bool:
    # The inliner interleaves canonicalization + specialization between
    # sweeps, exactly the MLIR-style interleaving the paper describes
    # (§5.4): each sweep can expose new call_indirect(func_const)
    # patterns that become further direct calls.
    return inline_calls(module, canonicalize=_canonicalize_and_specialize)


def _simple(name: str, fn):
    def factory(options: dict) -> FunctionPass:
        expect_no_options(name, options)
        return FunctionPass(name, fn, ir="qwerty")

    register_pass(name, factory)


_simple("lift-lambdas", lift_lambdas)
_simple("canonicalize", canonicalize)
_simple("specialize", generate_specializations)
_simple("inline", _inline)
_simple("dce", drop_unused_private_funcs)


def make_qwerty_pass_manager(
    spec: str = QWERTY_OPT_SPEC,
    *,
    verify_each: bool = False,
    statistics: Optional[PassStatistics] = None,
) -> PassManager:
    """A PassManager over Qwerty IR modules for a textual ``spec``."""
    from repro.ir.verifier import verify_module

    return PassManager.from_spec(
        spec,
        verifier=verify_module if verify_each else None,
        # Counting ops costs two module walks per pass; only pay for it
        # when the caller actually wants the statistics.
        count_ops=count_module_ops if statistics is not None else None,
        statistics=statistics,
    )
