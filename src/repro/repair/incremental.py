"""Incremental repair: keep a database consistent across update batches.

The repair algorithms of Section 3 are batch algorithms; in a data-exchange
or ETL setting the natural loop is *load → repair → keep loading*.  For a
consistent instance ``D |= IC`` and a batch of inserts/updates ``Δ``, every
new violation involves at least one changed tuple, so detection can anchor
on ``Δ`` (see :func:`repro.violations.detector.find_violations_involving`)
and the MWSCP instance only covers the new violations - work proportional
to ``|Δ|`` and its join neighbourhood instead of ``|D|``.

Locality gives the correctness argument: the computed local fixes never
introduce fresh inconsistencies (Section 2), so repairing just the
Δ-anchored violations restores global consistency.  This realizes the
incremental repair semantics the paper points to via reference [15]
(Lopatenko & Bertossi, ICDT'07).

Usage::

    repairer = IncrementalRepairer(instance, constraints)
    repairer.insert("Client", (41, 15, 80))
    repairer.update("Buy", key=(12, 0), p=90)
    result = repairer.commit()         # repairs only what the batch broke
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.plan.program import CompiledProgram

from repro.constraints.denial import DenialConstraint
from repro.constraints.locality import check_local_set
from repro.exceptions import RepairError
from repro.fixes.distance import CITY_DISTANCE, DistanceMetric, get_metric
from repro.model.columnar import derive_snapshots
from repro.model.instance import DatabaseInstance
from repro.model.tuples import Tuple
from repro.obs import Tracer, as_tracer, normalize_solver_stats
from repro.repair.builder import build_repair_problem
from repro.repair.apply import apply_cover
from repro.repair.result import RepairResult
from repro.setcover.decompose import decomposes, solve_by_components
from repro.setcover.solvers import DEFAULT_SOLVER, component_solver, get_solver
from repro.violations.detector import (
    find_all_violations,
    find_violations_involving,
    is_consistent,
    resolve_engine,
)
from repro.violations.indexes import JoinIndexCache


class IncrementalRepairer:
    """Maintains a consistent instance under staged inserts and updates.

    The held instance is private; read it via :attr:`instance` (a copy) or
    act on the :class:`RepairResult` returned by :meth:`commit`.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        constraints: Iterable[DenialConstraint],
        algorithm: str = DEFAULT_SOLVER,
        metric: str | DistanceMetric = CITY_DISTANCE,
        repair_initial: bool = True,
        parallel: "bool | str | None" = None,
        engine: str = "auto",
        trace: "bool | Tracer" = False,
        plan: "CompiledProgram | None" = None,
    ) -> None:
        # One tracer observes the repairer's whole lifetime: every commit
        # adds a ``commit`` span (tagged with its delta-round number), so
        # the finished trace shows the incremental cost profile across
        # batches.  Read it with :meth:`finish_trace`.
        self._tracer = as_tracer(trace)
        self._rounds = 0
        self._constraints = tuple(constraints)
        # A precompiled plan is validated once for the repairer's whole
        # lifetime: every commit round then reuses its static analysis
        # (locality proof, solver pre-selection, dead-constraint
        # elimination) instead of re-deriving it.  A stale plan raises
        # StalePlanError here, before any state is built.
        self._plan = plan
        if plan is not None:
            plan.require_match(instance.schema, self._constraints)
        # Statically dead constraints have empty violation sets on every
        # instance, so all detection (initial, anchored, verify) runs on
        # the executed subset - byte-identical, less work per round.
        self._active_constraints = (
            plan.executed_constraints(self._constraints)
            if plan is not None
            else self._constraints
        )
        self._algorithm = algorithm
        self._metric = get_metric(metric)
        # Anchored commit detection passes its join indexes, so ``auto``
        # runs only the interpreted engine there (see
        # ``find_violations_involving``).  The private working copies are
        # never backend-resident, so a (name-checked) ``pushdown``
        # request runs as ``auto`` rather than failing every commit.
        resolve_engine(engine)
        self._engine = "auto" if engine == "pushdown" else engine
        # ``parallel`` means what it means in ``repair_database``: solve
        # per connected component.  Resolved once, before any detection:
        # a bad algorithm fails here even when every commit would find
        # nothing to repair.
        self._decomposed = decomposes(parallel)
        if self._decomposed:
            self._component_policy = component_solver(algorithm)
        else:
            self._solver = get_solver(algorithm)
        if self._plan is None or not self._plan.solver.locality_ok:
            # With a plan, locality was proven at compile time; without
            # one (or when the plan could not prove it) the raising
            # check runs so the error is identical to the unplanned path.
            check_local_set(self._constraints, instance.schema)

        self._instance = instance.copy()
        if not is_consistent(
            self._instance, self._active_constraints, engine=self._engine
        ):
            if not repair_initial:
                raise RepairError(
                    "initial instance is inconsistent; pass "
                    "repair_initial=True or repair it first"
                )
            with ExitStack() as ctx:
                ctx.enter_context(self._tracer.activate())
                ctx.enter_context(
                    self._tracer.span("initial-repair", category="pipeline")
                )
                problem = build_repair_problem(
                    self._instance, self._active_constraints, metric=self._metric,
                    check_locality=False,
                )
                cover = self._solve(problem.setcover)
                self._instance = apply_cover(problem, cover).repaired
        # Staged tuples by (relation, key), in staging order: every staged
        # tuple is its key's current tuple, so an update replaces (and moves
        # to the end) and a delete drops exactly one entry, in O(1).
        self._staged: dict[tuple[str, tuple[Any, ...]], Tuple] = {}
        # Persistent join indexes keep anchored detection sublinear across
        # commits; built lazily on the (now consistent) working instance.
        self._join_indexes = JoinIndexCache(self._instance)

    # -- staging ------------------------------------------------------------

    def insert(self, relation_name: str, row: Iterable[Any]) -> Tuple:
        """Stage a new tuple (applied to the working instance immediately)."""
        tup = self._instance.insert_row(relation_name, tuple(row))
        self._join_indexes.notify_insert(tup)
        self._staged[relation_name, tup.key] = tup
        return tup

    def insert_tuple(self, tup: Tuple) -> None:
        """Stage an already-built tuple."""
        self._instance.insert(tup)
        self._join_indexes.notify_insert(tup)
        self._staged[tup.relation.name, tup.key] = tup

    def update(
        self,
        relation_name: str,
        key: tuple[Any, ...],
        changes: Mapping[str, Any] | None = None,
        **kwargs: Any,
    ) -> Tuple:
        """Stage an attribute update of an existing tuple."""
        old = self._instance.get(relation_name, key)
        new = old.replace(changes, **kwargs)
        self._instance.replace_tuple(new)
        self._join_indexes.notify_replace(old, new)
        staged_key = (relation_name, old.key)
        self._staged.pop(staged_key, None)
        self._staged[staged_key] = new
        return new

    def delete(self, relation_name: str, key: tuple[Any, ...]) -> Tuple:
        """Remove a tuple; deletions cannot create denial violations."""
        removed = self._instance.delete(relation_name, key)
        self._join_indexes.notify_remove(removed)
        self._staged.pop((relation_name, removed.key), None)
        return removed

    @property
    def pending(self) -> tuple[Tuple, ...]:
        """Tuples staged since the last commit."""
        return tuple(self._staged.values())

    @property
    def instance(self) -> DatabaseInstance:
        """A copy of the current working instance."""
        return self._instance.copy()

    # -- committing ------------------------------------------------------------

    def commit(self, verify: bool = False, snapshot: bool = True) -> RepairResult:
        """Repair the violations the staged batch introduced.

        Returns the batch's :class:`RepairResult` (zero-change result when
        the batch kept the database consistent).  ``verify=True``
        additionally re-checks global consistency - an O(|D|) sanity pass
        that defeats the purpose of incrementality, so it is off by
        default and exercised in tests.

        ``snapshot=False`` is the sustained-throughput mode: the result's
        ``repaired`` field is ``None`` (read :attr:`instance` on demand)
        and the repair is applied *in place* instead of copy-on-apply, so
        a commit round costs O(|Δ| + neighbourhood) instead of O(|D|).
        The committed content is byte-identical either way.
        """
        self._rounds += 1
        with ExitStack() as ctx:
            ctx.enter_context(self._tracer.activate())
            commit_span = ctx.enter_context(
                self._tracer.span(
                    "commit",
                    category="pipeline",
                    round=self._rounds,
                    staged=len(self._staged),
                )
            )
            with self._tracer.span("detect", category="stage") as detect_span:
                violations = find_violations_involving(
                    self._instance,
                    self._active_constraints,
                    tuple(self._staged.values()),
                    raw_indexes=self._join_indexes,
                    engine=self._engine,
                )
                detect_span.tag(violations=len(violations))
            self._staged = {}
            if not violations:
                commit_span.tag(consistent=True)
                result = RepairResult(
                    repaired=self._instance.copy() if snapshot else None,
                    algorithm=str(self._algorithm),
                    cover_weight=0.0,
                    distance=0.0,
                    changes=(),
                    violations_before=0,
                    verified=verify,
                    metric=self._metric.name,
                )
                if verify:
                    with self._tracer.span("verify", category="stage"):
                        self._verify()
                return result

            with self._tracer.span("reduce", category="stage") as reduce_span:
                problem = build_repair_problem(
                    self._instance,
                    self._active_constraints,
                    metric=self._metric,
                    check_locality=False,          # checked once in __init__
                    violations=violations,
                )
                reduce_span.tag(sets=problem.setcover.n_sets)
            with self._tracer.span("solve", category="stage") as solve_span:
                cover = self._solve(problem.setcover)
                solve_span.tag(weight=cover.weight, selected=len(cover.selected))
            with self._tracer.span("apply", category="stage") as apply_span:
                repaired, changes, distance = self._apply(problem, cover, snapshot)
                apply_span.tag(changes=len(changes), distance=distance)
            if verify:
                with self._tracer.span("verify", category="stage"):
                    self._verify()
            return RepairResult(
                repaired=repaired.copy() if snapshot else None,
                algorithm=cover.algorithm,
                cover_weight=cover.weight,
                distance=distance,
                changes=changes,
                violations_before=len(violations),
                verified=verify,
                metric=self._metric.name,
                solver_iterations=cover.iterations,
                solver_stats=normalize_solver_stats(dict(cover.stats)),
            )

    def _apply(self, problem, cover, snapshot: bool):
        """Apply one round's cover and keep the warm caches consistent.

        The snapshot path preserves the historical copy-on-apply swap: the
        repaired copy derives its columnar snapshots from the working
        instance's (:func:`repro.model.columnar.derive_snapshots`) before
        that instance is dropped, patching only the replaced rows.  The
        streaming path mutates the working instance in place, and the
        columnar store refreshes through the bumped data versions.
        Either way the join indexes are maintained from the tuples the
        bulk write replaced.
        """
        repaired, changes, distance, replaced = apply_cover(
            problem, cover, in_place=not snapshot
        )
        self._join_indexes.notify_replacements(replaced)
        if snapshot:
            derive_snapshots(repaired)
            self._instance = repaired
            self._join_indexes.rebind(self._instance)
        return repaired, changes, distance

    @property
    def tracer(self) -> "Tracer":
        """The tracer observing this repairer (the null tracer when off)."""
        return self._tracer

    def finish_trace(self):
        """Snapshot the lifetime trace: one ``commit`` span per delta round.

        Returns an empty :class:`~repro.obs.spans.Trace` when tracing was
        not requested; call after the commits of interest (spans of later
        commits simply extend the next snapshot).
        """
        return self._tracer.finish()

    def _solve(self, setcover) -> "Cover":
        """Solve one commit's MWSCP; per component when ``parallel`` is on.

        Mirrors :func:`repro.repair.engine.repair_database`, so the covers
        match decomposed batch repairs of the same state, byte for byte.
        """
        if not self._decomposed:
            return self._solver(setcover)
        solver, max_elements, fallback = self._component_policy
        return solve_by_components(
            setcover,
            solver,
            max_component_elements=max_elements,
            fallback=fallback,
        )

    def _verify(self) -> None:
        remaining = find_all_violations(
            self._instance, self._active_constraints, engine=self._engine
        )
        if remaining:
            raise RepairError(
                f"incremental commit left {len(remaining)} violations; "
                "this indicates non-local constraints slipped through"
            )
