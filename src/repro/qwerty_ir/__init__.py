"""Transformations on Qwerty IR (paper §5).

* :mod:`repro.qwerty_ir.adjoint` — reversing basic blocks (§5.2).
* :mod:`repro.qwerty_ir.predicate` — predicating basic blocks, including
  the swap-undo dataflow analysis (§5.3).
* :mod:`repro.qwerty_ir.lift_lambdas` — lifting lambdas to functions.
* :mod:`repro.qwerty_ir.canonicalize` — canonicalization patterns,
  including the ``scf.if`` inlining-enabler (§5.4, Appendix C).
* :mod:`repro.qwerty_ir.specialize` — function specialization analysis
  and generation (§6.2, Appendix D).
* :mod:`repro.qwerty_ir.pipeline` — the full §5.4 pass sequence.
"""

from repro.qwerty_ir.adjoint import adjoint_function
from repro.qwerty_ir.predicate import predicate_function
from repro.qwerty_ir.lift_lambdas import lift_lambdas
from repro.qwerty_ir.canonicalize import canonicalize
from repro.qwerty_ir.specialize import (
    analyze_specializations,
    generate_specializations,
)
from repro.qwerty_ir.pipeline import (
    QWERTY_NOOPT_SPEC,
    QWERTY_OPT_SPEC,
    make_qwerty_pass_manager,
)

__all__ = [
    "QWERTY_NOOPT_SPEC",
    "QWERTY_OPT_SPEC",
    "adjoint_function",
    "analyze_specializations",
    "canonicalize",
    "generate_specializations",
    "lift_lambdas",
    "make_qwerty_pass_manager",
    "predicate_function",
]
