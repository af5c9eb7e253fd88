"""The end-to-end repair engine (Algorithm 6).

``repair_database`` chains the full pipeline: violation detection →
MWSCP construction → approximate set cover → repair construction →
(optional) verification that the result satisfies the constraints.

With ``parallel`` set, solving runs per connected component of the
MWSCP instance (see :mod:`repro.setcover.decompose`), in-process like
every other stage.

With ``trace=True`` the run is recorded by the :mod:`repro.obs` layer:
one ``repair`` root span with a stage span per Figure-1 box (``detect``,
``reduce``, ``solve``, ``apply``, ``verify``), per-constraint detection
spans and per-solver spans nested inside.  ``RepairResult.elapsed_seconds`` then
becomes a thin view over the stage spans (same keys as the untraced
dict, so no caller changes), and ``RepairResult.trace`` carries the full
:class:`~repro.obs.spans.Trace`.  Tracing never alters the computation:
traced and untraced runs produce byte-identical repairs.
"""

from __future__ import annotations

import logging
import time
from contextlib import ExitStack
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.plan.program import CompiledProgram

from repro.constraints.denial import DenialConstraint
from repro.exceptions import RepairError
from repro.fixes.distance import CITY_DISTANCE, DistanceMetric, get_metric
from repro.model.instance import DatabaseInstance
from repro.exceptions import RuntimeConfigError
from repro.obs import Tracer, as_tracer, normalize_solver_stats
from repro.repair.apply import apply_cover
from repro.repair.builder import RepairProblem, build_repair_problem
from repro.repair.result import RepairResult
from repro.setcover.decompose import decomposes, solve_by_components
from repro.setcover.solvers import DEFAULT_SOLVER, component_solver, get_solver
from repro.violations.detector import (
    ViolationSet,
    find_all_violations,
    is_consistent,
    resolve_engine,
)

logger = logging.getLogger(__name__)

#: Span name → ``elapsed_seconds`` key.
_STAGE_KEYS = {
    "detect": "detect",
    "reduce": "reduce",
    "solve": "solve",
    "apply": "apply",
    "verify": "verify",
}


def _stage_view(root_span) -> dict[str, float]:
    """``elapsed_seconds`` derived from the stage spans of a traced run."""
    return {
        _STAGE_KEYS[child.name]: child.duration or 0.0
        for child in root_span.children
        if child.category == "stage" and child.name in _STAGE_KEYS
    }


def repair_database(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    algorithm: str = DEFAULT_SOLVER,
    metric: str | DistanceMetric = CITY_DISTANCE,
    verify: bool = True,
    check_locality: bool = True,
    violations: Sequence[ViolationSet] | None = None,
    simplify: bool = False,
    parallel: "bool | str | None" = None,
    max_workers: int | None = None,
    engine: str = "auto",
    preflight: bool = False,
    trace: "bool | Tracer" = False,
    plan: "CompiledProgram | None" = None,
) -> RepairResult:
    """Compute an (approximate) attribute-update repair of ``instance``.

    Parameters
    ----------
    instance:
        The inconsistent database ``D``.  Never mutated.
    constraints:
        A local set of linear denial constraints ``IC``.
    algorithm:
        Set-cover solver name: ``greedy``, ``modified-greedy`` (default),
        ``layer``, ``modified-layer``, ``exact`` (small inputs only),
        ``exact-decomposed``, ``lp-rounding`` (needs scipy),
        ``greedy+prune`` or ``layer+prune`` - see
        :mod:`repro.setcover.solvers` - or a solver callable.  An unknown
        name raises :class:`~repro.exceptions.SetCoverError` before any
        work is done, even on a consistent instance.
    metric:
        Distance metric for Δ (``l1``, ``l2``, or ``l0``).
    verify:
        Re-check ``D(C) |= IC`` after repairing; a failure raises
        :class:`RepairError` (it would indicate non-local input slipping
        through, or a solver bug).
    check_locality:
        Validate locality up front (disabled by the cardinality
        transformation, whose output is local by construction).
    violations:
        Optionally reuse a precomputed ``I(D, IC)``.
    simplify:
        Preprocess the constraint set first (merge redundant bounds, drop
        unsatisfiable and duplicate denials) - semantics-preserving, see
        :mod:`repro.constraints.simplify`.  Incompatible with a
        precomputed ``violations`` list (whose constraint objects would
        not match the simplified set).
    parallel:
        ``None``/``False``/``"serial"`` (default) solves the whole
        MWSCP instance at once.  ``True``/``"auto"`` solves it per
        connected component (:func:`~repro.setcover.decompose.
        solve_by_components`).  Every stage runs in-process either way
        (see DESIGN.md, "Component decomposition").
    max_workers:
        Accepted for compatibility and validated (``None`` or an int
        >= 1), but it changes nothing: there is no worker pool, so the
        repair is the same for every value.
    engine:
        Violation-detection engine: ``auto`` (default; the ladder SQL
        pushdown when the instance is backend-resident, then the
        columnar kernel when NumPy is importable, then interpreted,
        each constraint falling through on a refusal), ``pushdown``,
        ``kernel``, or ``interpreted`` (see :func:`repro.violations.
        detector.engine_chain`).  All engines yield byte-identical
        violations, hence identical repairs; the choice also applies to
        post-repair verification (where ``pushdown`` downgrades to
        ``auto``: the repaired copy is no longer backend-resident).
    preflight:
        Run the static constraint analyzer (:mod:`repro.lint`) first and
        raise :class:`~repro.exceptions.LintError` - with the full
        report attached - when it finds error-severity diagnostics.
    trace:
        ``True`` records the run with a fresh
        :class:`~repro.obs.Tracer` (returned via ``RepairResult.trace``);
        an existing tracer nests this run into a larger trace (the
        cardinality engine and the incremental repairer do this).
        Tracing observes only - the repair is byte-identical either way.
    plan:
        A precompiled :class:`~repro.plan.program.CompiledProgram` for
        exactly this ``(schema, constraints)`` pair.  The static
        analysis the plan already holds is skipped per call: preflight
        reads the stored lint report, locality re-checking is skipped
        when the plan proved it, statically dead constraints are
        eliminated from detection and verification (provably
        byte-identical - their violation sets are empty on every
        instance).  Detection walks the same ``engine`` chain as an
        unplanned run.  A plan whose fingerprint does not match raises
        :class:`~repro.exceptions.StalePlanError`; ``simplify=True`` is
        incompatible (it would change the constraint set out from under
        the fingerprint).  Planned and unplanned runs produce
        byte-identical repairs.

    Returns
    -------
    RepairResult
        The repaired instance plus distance, change log and solver stats.
        ``elapsed_seconds`` splits the wall clock per stage (``detect``,
        ``reduce``, ``solve``, ``apply``, ``verify`` - the stage span
        names); ``solver_stats``
        follows the schema of :mod:`repro.obs.stats`; ``trace`` carries
        the span tree of a traced run.
    """
    constraints = tuple(constraints)
    if plan is not None:
        if simplify:
            raise RepairError(
                "simplify=True cannot be combined with a compiled plan - "
                "the plan's fingerprint covers the unsimplified constraint "
                "set; compile the simplified set instead"
            )
        plan.require_match(instance.schema, constraints)
    if preflight:
        from repro.exceptions import LintError
        from repro.lint.analyzer import lint_constraints

        # The plan already ran the analyzer at compile time over the
        # fingerprint-matched constraint set; reuse its report.
        report = (
            plan.lint
            if plan is not None
            else lint_constraints(instance.schema, constraints)
        )
        if report.gated("error"):
            raise LintError(
                f"constraint lint preflight failed: "
                f"{len(report.errors)} error(s)",
                report=report,
            )
    if plan is not None and check_locality and plan.solver.locality_ok:
        # Locality was proven statically at compile time.
        check_locality = False
    if simplify:
        if violations is not None:
            raise RepairError(
                "simplify=True cannot be combined with precomputed violations"
            )
        from repro.constraints.simplify import simplify_constraints

        constraints = simplify_constraints(constraints)
    metric = get_metric(metric)
    decomposed = decomposes(parallel)
    if max_workers is not None and (
        isinstance(max_workers, bool)
        or not isinstance(max_workers, int)
        or max_workers < 1
    ):
        raise RuntimeConfigError(f"max_workers must be >= 1, got {max_workers!r}")
    # Resolved before any work so a bad algorithm fails on every input,
    # consistent ones included.
    if decomposed:
        solver, max_elements, fallback = component_solver(algorithm)
    else:
        solver = get_solver(algorithm)
    tracer = as_tracer(trace)
    # A trace created here is finished here; a caller-provided tracer is
    # left open so several pipeline calls can share one trace.
    owns_trace = tracer.enabled and not isinstance(trace, Tracer)

    with ExitStack() as ctx:
        ctx.enter_context(tracer.activate())
        root = ctx.enter_context(
            tracer.span(
                "repair",
                category="pipeline",
                algorithm=str(algorithm),
                engine=resolve_engine(engine, instance),
                backend="auto" if decomposed else "serial",
                tuples=len(instance),
                constraints=len(constraints),
            )
        )

        # Statically dead constraints can never be violated, so a planned
        # run detects and verifies only the executed subset (identical
        # result, less work).
        executed = (
            plan.executed_constraints(constraints)
            if plan is not None
            else constraints
        )
        started = time.perf_counter()
        with tracer.span("detect", category="stage") as detect_span:
            if violations is None:
                violations = find_all_violations(
                    instance, executed, engine=engine
                )
            detect_span.tag(violations=len(violations), work=len(instance))
        if tracer.enabled:
            from repro.violations.degree import degree_of_database

            tracer.metrics.gauge("inconsistency_degree").set_max(
                degree_of_database(violations)
            )
        detected = time.perf_counter()

        with tracer.span("reduce", category="stage") as reduce_span:
            problem = build_repair_problem(
                instance,
                constraints,
                metric=metric,
                check_locality=check_locality,
                violations=violations,
            )
            reduce_span.tag(
                sets=problem.setcover.n_sets,
                elements=problem.setcover.n_elements,
            )
        built = time.perf_counter()

        if problem.is_consistent:
            root.tag(consistent=True)
            root_elapsed = {
                "detect": detected - started,
                "reduce": built - detected,
            }
            result_trace = None
            if tracer.enabled:
                detect_span.close()
                reduce_span.close()
                root_elapsed = {
                    "detect": detect_span.duration or 0.0,
                    "reduce": reduce_span.duration or 0.0,
                }
                if owns_trace:
                    result_trace = _finish_after(ctx, tracer)
            return RepairResult(
                repaired=instance.copy(),
                algorithm=str(algorithm),
                cover_weight=0.0,
                distance=0.0,
                changes=(),
                violations_before=0,
                verified=True,
                metric=metric.name,
                elapsed_seconds=root_elapsed,
                trace=result_trace,
            )

        logger.info(
            "repair: %d violations, %d candidate fixes, solving with %s%s",
            len(problem.violations),
            problem.setcover.n_sets,
            algorithm if isinstance(algorithm, str) else getattr(algorithm, "__name__", "?"),
            " per component" if decomposed else "",
        )
        with tracer.span("solve", category="stage") as solve_span:
            if decomposed:
                cover = solve_by_components(
                    problem.setcover,
                    solver,
                    max_component_elements=max_elements,
                    fallback=fallback,
                )
            else:
                cover = solver(problem.setcover)
            solve_span.tag(
                weight=cover.weight,
                selected=len(cover.selected),
                work=problem.setcover.n_elements + problem.setcover.n_sets,
            )
        solved = time.perf_counter()
        logger.info(
            "repair: cover weight %g with %d sets in %.3fs",
            cover.weight,
            len(cover.selected),
            solved - built,
        )

        with tracer.span("apply", category="stage") as apply_span:
            repaired, changes, distance, _ = apply_cover(problem, cover)
            apply_span.tag(changes=len(changes), distance=distance)
        applied = time.perf_counter()

        verified = False
        if verify:
            # The repaired copy is a fresh in-memory instance, never
            # backend-resident, so a strict pushdown request downgrades to
            # auto here instead of failing its own verification.
            verify_engine = "auto" if engine == "pushdown" else engine
            with tracer.span("verify", category="stage") as verify_span:
                if not is_consistent(repaired, executed, engine=verify_engine):
                    remaining = find_all_violations(
                        repaired, executed, engine=verify_engine
                    )
                    raise RepairError(
                        f"repair left {len(remaining)} violations - the constraint "
                        "set is not local or the cover construction is inconsistent; "
                        f"first remaining violation: {remaining[0]!r}"
                    )
                verified = True
                verify_span.tag(consistent=True)

        solver_stats = dict(cover.stats)
        solver_stats["detection_engine"] = resolve_engine(engine, instance)
        elapsed = {
            "detect": detected - started,
            "reduce": built - detected,
            "solve": solved - built,
            "apply": applied - solved,
            "verify": time.perf_counter() - applied if verify else 0.0,
        }
        result_trace = None
        if tracer.enabled:
            root.close()
            # The thin view: the same keys, now read off the stage spans.
            elapsed = {**elapsed, **_stage_view(root)}
            if owns_trace:
                result_trace = _finish_after(ctx, tracer)
        return RepairResult(
            repaired=repaired,
            algorithm=cover.algorithm,
            cover_weight=cover.weight,
            distance=distance,
            changes=changes,
            violations_before=len(problem.violations),
            verified=verified,
            metric=metric.name,
            solver_iterations=cover.iterations,
            solver_stats=normalize_solver_stats(solver_stats),
            elapsed_seconds=elapsed,
            trace=result_trace,
        )


def _finish_after(ctx: ExitStack, tracer: Tracer):
    """Close all open spans of ``ctx`` and snapshot the finished trace."""
    ctx.close()
    return tracer.finish()


def repair_problem_cover(
    problem: RepairProblem,
    algorithm: str = DEFAULT_SOLVER,
    parallel: "bool | str | None" = None,
):
    """Solve a prebuilt repair problem; exposed for the benchmark harness.

    The Figure-3 benchmark times *only* the MWSCP solver component (as the
    paper does), so it builds the problem once and calls this repeatedly.
    ``parallel`` selects the per-component solve, mirroring
    :func:`repair_database`.
    """
    if not decomposes(parallel):
        return get_solver(algorithm)(problem.setcover)
    solver, max_elements, fallback = component_solver(algorithm)
    return solve_by_components(
        problem.setcover,
        solver,
        max_component_elements=max_elements,
        fallback=fallback,
    )
