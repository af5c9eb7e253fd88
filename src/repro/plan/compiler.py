"""The static constraint-program compiler.

:func:`compile_program` turns ``(schema, constraints, engine
availability)`` into a :class:`~repro.plan.program.CompiledProgram` in
four passes, all pure static analysis over the existing
:mod:`repro.lint` machinery:

1. **canonicalization** - rerun the lint satisfiability/subsumption
   passes; constraints with provably unsatisfiable bodies (``LINT010``,
   an *exact* verdict) are eliminated from execution with a ``LINT060``
   provenance record - a dead constraint has zero violations on every
   instance, so skipping its detection is byte-identical by
   construction.  Subsumed and duplicate constraints (``LINT020`` /
   ``LINT021``) are *kept executing*: removal preserves violation
   coverage but not byte-identity of the computed repair, and byte
   parity with the unplanned path is this compiler's hard contract.
   Their lint diagnostics stay in the plan as advisory provenance.
2. **engine classification** - each chain is the detector's ``auto``
   ladder (:func:`repro.violations.detector.engine_chain`) minus the
   engines the compile-time environment lacks (``LINT061`` records);
   kernel/pushdown compilability (:func:`repro.lint.compilability.
   classify_constraint`) marks the engines the runtime may refuse, and
   the static cost estimate (:mod:`repro.plan.cost`) is kept for
   ``repro explain-plan``.
3. **solver pre-selection** - locality verdict, the predicted MWSC
   max-frequency bound ``f`` (:mod:`repro.lint.bounds`) are resolved
   once.
4. **fingerprinting** - the canonical JSON of ``(schema, constraints)``
   is hashed (SHA-256) so the runtime can refuse stale plans.

``strict=True`` refuses (:class:`~repro.exceptions.PlanError`) any
program with a constraint whose compiled execution cannot be
*statically guaranteed* - i.e. its kernel/pushdown classification is
conditional (``LINT050``/``LINT051``), so the interpreted fallback may
trigger at runtime.  Environment gaps (NumPy absent) are downgrades,
not strict failures: they say nothing about the constraint itself.
"""

from __future__ import annotations

from typing import Iterable

from repro.constraints.denial import DenialConstraint
from repro.exceptions import PlanError
from repro.lint.analyzer import lint_constraints
from repro.lint.bounds import builtin_attribute_overlap
from repro.lint.compilability import classify_constraint
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.satisfiability import body_is_satisfiable
from repro.model.columnar import kernel_available
from repro.model.schema import Schema
from repro.plan.cost import estimate_cost
from repro.plan.program import (
    DOWNGRADED,
    ELIMINATED,
    EXECUTE,
    SKIP,
    CompiledProgram,
    EnginePlan,
    SolverPlan,
    program_fingerprint,
)
from repro.violations.detector import AUTO_CHAIN, engine_chain


def _predicted_frequency(
    constraint: DenialConstraint,
    schema: Schema,
    overlap: dict[tuple[str, str], int],
) -> int:
    """Per-constraint static ``f`` bound, keyed by identity not label.

    The body of :func:`repro.lint.bounds.predicted_max_frequency`, run
    for one constraint: label-keyed dict lookups would conflate distinct
    constraints that share a name.
    """
    builtin_attributes = constraint.attributes_in_builtins(schema)
    total = 0
    for atom in constraint.relation_atoms:
        relation = schema.relation(atom.relation_name)
        for attribute in relation.attributes:
            if not attribute.is_flexible:
                continue
            pair = (relation.name, attribute.name)
            if pair in builtin_attributes:
                total += overlap.get(pair, 0)
    return total


def default_availability() -> dict[str, bool]:
    """The compile-time engine-availability map.

    ``kernel`` is the NumPy import probe.  ``pushdown`` is always
    ``True``: backend residency is a property of the *instance*, not
    the environment, so the plan keeps pushdown in the chains and the
    detector leaves it out for non-resident instances.  The map only
    shapes the plan's informational ``engines``/``conditional`` fields,
    its ``LINT061`` notes and the plan-cache key; execution walks the
    detector's own ladder.
    """
    return {"kernel": kernel_available(), "pushdown": True}


def compile_program(
    schema: Schema,
    constraints: Iterable[DenialConstraint],
    *,
    strict: bool = False,
) -> CompiledProgram:
    """Compile ``(schema, constraints)`` into a :class:`CompiledProgram`.

    Raises :class:`~repro.exceptions.PlanError` when any constraint
    fails schema validation (``LINT001`` - its structure cannot be
    planned), or, under ``strict=True``, when any executed constraint
    is only conditionally compilable (see the module docstring).
    """
    constraints = tuple(constraints)
    availability = default_availability()
    lint = lint_constraints(schema, constraints)

    invalid = lint.by_code("LINT001")
    if invalid:
        raise PlanError(
            f"cannot compile: {len(invalid)} constraint(s) fail schema "
            "validation (LINT001)",
            diagnostics=invalid,
        )

    satisfiable = [body_is_satisfiable(c) for c in constraints]
    # The f bound counts candidate-fix overlaps among constraints that
    # can actually produce violations; dead bodies contribute none.
    live = [c for c, ok in zip(constraints, satisfiable) if ok]
    overlap = builtin_attribute_overlap(live, schema)
    chain = engine_chain(
        pushdown=availability["pushdown"], kernel=availability["kernel"]
    )
    dropped = tuple(engine for engine in AUTO_CHAIN if engine not in chain)
    provenance: list[Diagnostic] = []
    strict_blockers: list[Diagnostic] = []
    entries: list[EnginePlan] = []
    for index, constraint in enumerate(constraints):
        predicted = _predicted_frequency(constraint, schema, overlap)
        if not satisfiable[index]:
            # Exact verdict: the body has no satisfying assignment over
            # the integers, so I(D, ic) = ∅ on every instance and the
            # entry contributes nothing to detection, candidates, or
            # the MWSC instance.  Eliminating it is byte-identical.
            provenance.append(
                Diagnostic(
                    code=ELIMINATED,
                    severity=Severity.INFO,
                    constraint=constraint.label,
                    message=(
                        f"{constraint.label}: eliminated by plan - body is "
                        "unsatisfiable (exact verdict), detection skipped"
                    ),
                    details={"index": index, "reason": "unsatisfiable-body"},
                    suggestion="remove the constraint from the configuration",
                )
            )
            entries.append(
                EnginePlan(
                    index=index,
                    label=constraint.label,
                    text=str(constraint),
                    action=SKIP,
                    engines=(),
                    conditional=(),
                    cost=estimate_cost(constraint),
                    predicted_frequency=predicted,
                )
            )
            continue

        classification = classify_constraint(constraint, schema)
        conditional = (
            () if classification.unconditional else chain[:-1]
        )
        for engine in dropped:
            provenance.append(
                Diagnostic(
                    code=DOWNGRADED,
                    severity=Severity.INFO,
                    constraint=constraint.label,
                    message=(
                        f"{constraint.label}: plan downgraded engine - "
                        f"{engine} unavailable at compile time, chain is "
                        f"{'>'.join(chain)}"
                    ),
                    details={"index": index, "engine": engine},
                    suggestion=(
                        "install the optional dependency to restore the "
                        f"{engine} engine"
                    ),
                )
            )
        if not classification.unconditional:
            strict_blockers.append(
                Diagnostic(
                    code=DOWNGRADED,
                    severity=Severity.WARNING,
                    constraint=constraint.label,
                    message=(
                        f"{constraint.label}: compiled execution is "
                        "data-dependent - hard attribute(s) "
                        + ", ".join(
                            f"{r}.{a}"
                            for r, a in classification.conditional_attributes
                        )
                        + " may force the interpreted fallback at runtime"
                    ),
                    details={
                        "index": index,
                        "conditional_attributes": [
                            list(pair)
                            for pair in classification.conditional_attributes
                        ],
                    },
                    suggestion=(
                        "mark the attribute(s) flexible or accept the "
                        "runtime fallback (non-strict compilation)"
                    ),
                )
            )
        entries.append(
            EnginePlan(
                index=index,
                label=constraint.label,
                text=str(constraint),
                action=EXECUTE,
                engines=chain,
                conditional=conditional,
                cost=estimate_cost(constraint),
                predicted_frequency=predicted,
            )
        )

    if strict and strict_blockers:
        raise PlanError(
            f"strict compilation failed: {len(strict_blockers)} "
            "constraint(s) are not statically compilable (runtime may "
            "fall back to the interpreted engine)",
            diagnostics=strict_blockers,
        )

    locality_errors = [
        d
        for code in ("LINT030", "LINT031", "LINT032")
        for d in lint.by_code(code)
    ]
    executed = [e for e in entries if e.executed]
    solver = SolverPlan(
        predicted_max_frequency=max(
            (e.predicted_frequency for e in executed), default=0
        ),
        locality_ok=not locality_errors,
    )
    return CompiledProgram(
        fingerprint=program_fingerprint(schema, constraints),
        availability=availability,
        entries=tuple(entries),
        solver=solver,
        lint=lint,
        provenance=tuple(provenance),
    )
