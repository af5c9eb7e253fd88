"""Executing detection *from* a compiled plan.

At run time a plan only drops its statically dead constraints: their
violation sets are empty on every instance, so skipping them is
byte-identical.  The engines come from the one detection dispatch,
:func:`repro.violations.detector.engine_chain`, exactly as for an
unplanned run.
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints.denial import DenialConstraint
from repro.model.instance import DatabaseInstance
from repro.plan.program import CompiledProgram
from repro.violations.detector import ViolationSet, find_all_violations


def planned_find_all_violations(
    instance: DatabaseInstance,
    constraints: Sequence[DenialConstraint],
    plan: CompiledProgram,
    max_violations: int | None = None,
    engine: str = "auto",
) -> Sequence[ViolationSet]:
    """``I(D, IC)`` over the constraints ``plan`` executes, in order.

    The caller has already validated the plan against
    ``(instance.schema, constraints)`` (:meth:`CompiledProgram.
    require_match`), so entries index the constraint list directly.
    """
    return find_all_violations(
        instance, plan.executed_constraints(constraints), max_violations, engine
    )
