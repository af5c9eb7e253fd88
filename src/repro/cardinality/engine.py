"""Tuple-deletion repairs through the attribute-update engine (Prop. 5.3)."""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.constraints.denial import DenialConstraint
from repro.fixes.distance import CITY_DISTANCE, DistanceMetric
from repro.model.instance import DatabaseInstance
from repro.model.tuples import Tuple
from repro.obs import Tracer, as_tracer
from repro.repair.engine import repair_database
from repro.repair.result import RepairResult
from repro.cardinality.transform import (
    Mode,
    build_delta_transform,
    project_delta,
)
from repro.setcover.solvers import DEFAULT_SOLVER


@dataclass(frozen=True)
class DeletionRepairResult:
    """Outcome of a cardinality / mixed repair.

    ``repaired`` is over the *original* schema (after ``↓ δ``);
    ``deleted`` lists the removed original-schema tuples; ``inner`` is the
    attribute-update result on ``D#`` for full diagnostics.
    """

    repaired: DatabaseInstance
    deleted: tuple[Tuple, ...]
    inner: RepairResult
    trace: Any = None

    @property
    def deletions(self) -> int:
        """Number of deleted tuples."""
        return len(self.deleted)

    @property
    def weighted_cost(self) -> float:
        """Σ α_{δ_R} over deletions (= count under cardinality semantics)."""
        return self.inner.distance

    def summary(self) -> str:
        """Human-readable report."""
        deleted = "\n".join(f"  - {t!r}" for t in self.deleted) or "  (none)"
        return (
            f"deletions: {self.deletions} (weighted cost {self.weighted_cost:g})\n"
            f"deleted tuples:\n{deleted}"
        )


def cardinality_repair(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    algorithm: str = DEFAULT_SOLVER,
    mode: Mode = "delete",
    table_weights: Mapping[str, float] | None = None,
    metric: str | DistanceMetric = CITY_DISTANCE,
    verify: bool = True,
    parallel: "bool | str | None" = None,
    engine: str = "auto",
    trace: "bool | Tracer" = False,
) -> DeletionRepairResult:
    """Approximate a minimum-cardinality tuple-deletion repair.

    Builds ``(D#, IC#)`` (Definition 5.1), runs the attribute-update engine
    on it, and projects the result back with ``↓ δ`` (Definition 5.2).

    Parameters
    ----------
    mode:
        ``delete`` - pure tuple deletions (the paper's Section 5; works for
        arbitrary linear denials, no locality or key requirements on the
        input).  ``mixed`` - the conclusion's extension where original
        flexible attributes remain updatable alongside δ, picking whichever
        of update or delete is cheaper per violation.
    table_weights:
        Per-relation deletion weights ``α_{δ_R}`` (default 1.0): deletions
        from lighter tables are preferred.
    parallel, engine:
        Forwarded to :func:`repro.repair.engine.repair_database` - the
        transformed instance ``D#`` decomposes and picks its detection
        engine exactly like a direct attribute-update repair.
    trace:
        ``True`` records the whole run - a ``cardinality-repair`` root
        span with ``transform`` and ``project`` stages around the nested
        ``repair`` span tree - and returns the finished trace on
        ``DeletionRepairResult.trace``.  A caller-provided tracer nests
        the run instead (and keeps ownership).
    """
    # The Δ-transform builds a fresh in-memory D#, never backend-resident,
    # so a strict pushdown request downgrades to auto for the inner repair.
    if engine == "pushdown":
        engine = "auto"
    tracer = as_tracer(trace)
    owns_trace = tracer.enabled and not isinstance(trace, Tracer)
    with ExitStack() as ctx:
        ctx.enter_context(tracer.activate())
        root = ctx.enter_context(
            tracer.span("cardinality-repair", category="pipeline", mode=mode)
        )
        with tracer.span("transform", category="stage") as transform_span:
            transform = build_delta_transform(
                instance, constraints, mode=mode, table_weights=table_weights
            )
            transform_span.tag(tuples=len(transform.instance))
        inner = repair_database(
            transform.instance,
            transform.constraints,
            algorithm=algorithm,
            metric=metric,
            verify=verify,
            # IC# is local by construction (all δ comparisons are '>', joins
            # bind hard attributes in delete mode); mixed mode keeps the check.
            check_locality=(mode == "mixed"),
            parallel=parallel,
            engine=engine,
            # Pass the tracer object (not True): the inner repair nests
            # into this trace instead of starting its own.
            trace=tracer if tracer.enabled else False,
        )
        with tracer.span("project", category="stage") as project_span:
            repaired, deleted = project_delta(transform, inner.repaired)
            project_span.tag(deletions=len(deleted))
        root.tag(deletions=len(deleted))
        result_trace = None
        if owns_trace:
            ctx.close()
            result_trace = tracer.finish()
        return DeletionRepairResult(
            repaired=repaired, deleted=deleted, inner=inner, trace=result_trace
        )


def all_optimal_deletion_repairs(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    table_weights: Mapping[str, float] | None = None,
    max_elements: int = 64,
) -> tuple[DatabaseInstance, ...]:
    """Every minimum-cardinality deletion repair (``Rep#(D, IC)``).

    Proposition 5.3 puts ``Rep#(D, IC)`` in bijection with the optimal
    attribute-update repairs of ``(D#, IC#)``; enumerating the latter
    (small databases only) and projecting through ``↓ δ`` yields the full
    repair set - Example 5.4's four repairs become a golden test.
    """
    from repro.repair.enumerate import all_optimal_repairs

    transform = build_delta_transform(
        instance, constraints, mode="delete", table_weights=table_weights
    )
    projected: dict[tuple, DatabaseInstance] = {}
    for repaired_sharp in all_optimal_repairs(
        transform.instance, transform.constraints, max_elements=max_elements
    ):
        repaired, _deleted = project_delta(transform, repaired_sharp)
        key = tuple(
            (relation.name, tuple(sorted(str(t.values) for t in repaired.tuples(relation.name))))
            for relation in repaired.schema
        )
        projected.setdefault(key, repaired)
    return tuple(projected[key] for key in sorted(projected))
