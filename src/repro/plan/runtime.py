"""Executing detection *from* a compiled plan.

The unplanned ``auto`` engine re-derives, per call and per constraint,
which engine to try first; the planned path reads the per-constraint
chain straight out of the :class:`~repro.plan.program.CompiledProgram`
and only keeps the *runtime* decisions: a chain's pushdown step is
skipped for non-backend-resident instances (the same gate
``resolve_engine("auto")`` applies), and an engine that refuses at
execution time (:class:`~repro.exceptions.KernelError` /
:class:`~repro.exceptions.PushdownError`) falls through to the next
chain entry with the downgrade recorded on the
``plan_engine_downgrades`` counter.  Every chain ends in
``"interpreted"``, which cannot refuse.

Byte parity with the unplanned path holds by construction: every engine
produces the canonical minimality + ordering of
:func:`repro.violations.detector._ordered_violation_sets`, dead entries
have provably empty violation sets, and results concatenate in original
constraint order (:func:`~repro.violations.columns.concat_violations`).
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints.denial import DenialConstraint
from repro.exceptions import KernelError, PlanError, PushdownError
from repro.model.instance import DatabaseInstance
from repro.obs import current_tracer
from repro.plan.program import CompiledProgram
from repro.violations.columns import concat_violations
from repro.violations.detector import ViolationSet, find_violations
from repro.violations.pushdown import pushdown_ready


def effective_chain(
    chain: Sequence[str], instance: DatabaseInstance
) -> tuple[str, ...]:
    """The plan chain minus steps this instance can never run.

    Pushdown needs a backend-resident instance; dropping it here (the
    static analogue of ``resolve_engine("auto")``'s residency gate)
    avoids a guaranteed refusal per constraint per round.
    """
    if "pushdown" in chain and not pushdown_ready(instance):
        return tuple(e for e in chain if e != "pushdown")
    return tuple(chain)


def planned_find_violations(
    instance: DatabaseInstance,
    constraint: DenialConstraint,
    chain: Sequence[str],
    max_violations: int | None = None,
) -> Sequence[ViolationSet]:
    """Run one constraint's detection down its planned engine chain."""
    engines = effective_chain(chain, instance)
    if not engines:
        raise PlanError(
            f"{constraint.label}: planned engine chain is empty - "
            "corrupt or hand-edited plan artifact"
        )
    last = len(engines) - 1
    for position, engine in enumerate(engines):
        if position == last:
            return find_violations(instance, constraint, max_violations, engine)
        try:
            return find_violations(instance, constraint, max_violations, engine)
        except (KernelError, PushdownError):
            current_tracer().metrics.counter(
                "plan_engine_downgrades",
                constraint=constraint.label,
                engine=engine,
            ).inc()
    raise PlanError(f"{constraint.label}: exhausted planned engine chain")


def planned_find_all_violations(
    instance: DatabaseInstance,
    constraints: Sequence[DenialConstraint],
    plan: CompiledProgram,
    max_violations: int | None = None,
) -> Sequence[ViolationSet]:
    """``I(D, IC)`` driven by a compiled plan, in constraint order.

    The caller has already validated the plan against
    ``(instance.schema, constraints)`` (:meth:`CompiledProgram.
    require_match`), so entries index the constraint list directly.
    Dead entries are skipped - their violation sets are provably empty.
    """
    return concat_violations(
        [
            planned_find_violations(
                instance, constraints[entry.index], entry.engines, max_violations
            )
            for entry in plan.executed_entries
        ]
    )

