"""Build the MWSCP instance ``(U, S, w)^{(D, IC)}`` (Definition 3.1).

* ``U`` is ``I(D, IC)``: every (violation set, constraint) pair;
* ``S`` holds one set per mono-local fix ``t′`` of an inconsistent tuple
  ``t``, containing the elements ``S(t, t′)`` it solves;
* ``w(S(t,t′)) = Δ({t}, {t′})``.

The construction follows Algorithms 2-4: enumerate violation sets
(Algorithm 2), generate the mono-local fixes per (constraint, relation,
flexible attribute) triple (Algorithm 3), and link fixes to the violation
sets they solve across *all* constraints (Algorithm 4) using a per-tuple
index of ``I(D, IC, t)`` so the work stays proportional to the degree of
inconsistency.

It reads ``I(D, IC)`` in slot form: the distinct tuples in ref order and
one row of tuple slots per violation set.  The kernel engine hands that
over directly (:class:`~repro.violations.columns.ViolationColumns`);
plain violation sets are converted first, so one pass serves both and no
``TupleRef`` is built to order the sets.

It runs as one compiled pass.  The Definition-2.8 data of every
(constraint, relation, flexible attribute) is compiled once into a
:class:`~repro.fixes.mlf.FixDescriptor`; candidates live in parallel
columns; ``S(t, t′)`` is decided in closed form where the constraint
shape allows it (see DESIGN.md, "The reduction"); and the incidence is
written straight into the CSR arrays of the
:class:`~repro.setcover.instance.SetCoverInstance`.  The
:class:`~repro.fixes.mlf.FixCandidate` of a set is only built when it is
asked for (explain output does); a repair reads the set columns of the
:class:`RepairProblem` and builds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.constraints.denial import DenialConstraint
from repro.constraints.locality import check_local_set
from repro.exceptions import UnrepairableError
from repro.fixes.distance import CITY_DISTANCE, DistanceMetric, get_metric
from repro.fixes.mlf import (
    FixCandidate,
    FixDescriptor,
    fix_descriptors,
    solved_violations,
)
from repro.model.instance import DatabaseInstance
from repro.model.tuples import Tuple
from repro.obs import current_tracer
from repro.setcover.instance import SetCoverInstance
from repro.violations.columns import ViolationColumns, slot_form
from repro.violations.detector import ViolationSet, find_all_violations


@dataclass(frozen=True)
class RepairProblem:
    """A fully-built repair problem: database, universe, and MWSCP instance.

    ``violations[j]`` is universe element ``j``.  Set ``i`` is the fix
    ``tuples[set_slots[i]][set_descriptors[i].attribute] := set_values[i]``
    with weight ``setcover.weights[i]``, proposed by the constraints
    labelled ``set_sources[i]`` (a label, or a tuple of labels).
    ``tuples`` are in ref order, and sets are numbered in (tuple ref,
    attribute, new value) order.  These columns are
    the one representation of the fixes: ``setcover.sets[i].payload`` is
    the :class:`FixCandidate` built from them on request.
    """

    instance: DatabaseInstance
    constraints: tuple[DenialConstraint, ...]
    metric: DistanceMetric
    violations: Sequence[ViolationSet]
    setcover: SetCoverInstance
    tuples: Sequence[Tuple]
    set_slots: Sequence[int]
    set_descriptors: Sequence[FixDescriptor]
    set_values: Sequence[int]
    set_sources: Sequence[str | tuple[str, ...]]

    @property
    def is_consistent(self) -> bool:
        """True when the database has no violations (empty universe)."""
        return not self.violations

    def candidate(self, set_id: int) -> FixCandidate:
        """The fix candidate realizing one set (built on first request)."""
        return self.setcover.payload(set_id)


def build_repair_problem(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    metric: str | DistanceMetric = CITY_DISTANCE,
    check_locality: bool = True,
    violations: Sequence[ViolationSet] | None = None,
) -> RepairProblem:
    """Construct ``(U, S, w)^{(D, IC)}`` for a database and local denials.

    Parameters
    ----------
    instance:
        The (possibly inconsistent) database ``D``.
    constraints:
        The flexible ICs.  Must form a *local* set unless
        ``check_locality=False`` (the cardinality transformation produces
        sets that are local by construction and skips the check).
    metric:
        Cell distance for fix weights (default city distance ``L₁``).
    violations:
        Precomputed ``I(D, IC)`` to reuse, e.g. from a profiling pass:
        minimal violation sets, as every detection engine returns them -
        a :class:`~repro.violations.columns.ViolationColumns` view is read
        as is, any other sequence is converted to its slot form.

    Raises
    ------
    LocalityError
        When the constraint set is not local.
    UnrepairableError
        When some violation set admits no mono-local fix (cannot happen
        for local sets, but malformed input is reported, not mis-covered).
    """
    constraints = tuple(constraints)
    metric = get_metric(metric)
    if check_locality:
        check_local_set(constraints, instance.schema)

    if violations is None:
        violations = find_all_violations(instance, constraints)
    elif not isinstance(violations, ViolationColumns):
        violations = tuple(violations)
    # The slot form of I(D, IC): the distinct member tuples in ref order
    # (so a slot is a rank), one row of member slots per violation set
    # (-1 pads a view's rows) and one block per constraint.  The kernel
    # engine hands it over as is; plain violation sets are converted.
    if isinstance(violations, ViolationColumns):
        tuples: Sequence[Tuple] = violations.tuples
        rows: list = violations.slots.tolist()
        blocks = list(violations.blocks())
    else:
        tuples, rows, block_constraints, bounds = slot_form(violations)
        blocks = [
            (constraint, bounds[b], bounds[b + 1])
            for b, constraint in enumerate(block_constraints)
        ]

    # Pass 1 (Algorithm 3): record which violation sets each tuple slot
    # is in, and expand every (tuple, constraint) pair into its mono-local
    # fixes once.  Candidates are keyed by (slot, attribute, new value),
    # so a fix several constraints produce is one set (Example 2.10: ic₁
    # and ic₂ both yield t₁¹) with merged source labels.  Keys and
    # columns hold ints and strings only, which keeps the garbage
    # collector out of the pass.
    # id(constraint) -> (descriptors by relation name, label, expanded slots)
    tables: dict[int, tuple[dict[str, dict[str, FixDescriptor]], str, set[int]]] = {}
    violation_tables: list[dict[str, dict[str, FixDescriptor]]] = []
    member_slots: list[int] = []        # tuple slot of each (violation, member)
    member_violations: list[int] = []   # ... and its violation index
    candidate_of: dict[tuple[int, str, int], int] = {}
    slots: list[int] = []
    descriptors_used: list[FixDescriptor] = []
    new_values: list[int] = []
    labels: list = []                   # a label; a tuple once merged
    n_fixes = 0
    for constraint, start, stop in blocks:
        entry = tables.get(id(constraint))
        if entry is None:
            entry = tables[id(constraint)] = ({}, constraint.label, set())
        table, label, expanded = entry
        for index in range(start, stop):
            violation_tables.append(table)
            for slot in rows[index]:
                if slot < 0:
                    break
                member_slots.append(slot)
                member_violations.append(index)
                if slot in expanded:
                    continue
                expanded.add(slot)
                tup = tuples[slot]
                relation = tup.relation
                descriptors = table.get(relation.name)
                if descriptors is None:
                    descriptors = table[relation.name] = fix_descriptors(
                        constraint, relation
                    )
                values = tup.values
                for descriptor in descriptors.values():
                    new_value = descriptor.fix(values[descriptor.position])
                    if new_value is None:
                        continue
                    n_fixes += 1
                    key = (slot, descriptor.attribute, new_value)
                    found = candidate_of.get(key)
                    if found is None:
                        candidate_of[key] = len(slots)
                        slots.append(slot)
                        descriptors_used.append(descriptor)
                        new_values.append(new_value)
                        labels.append(label)
                    elif isinstance(labels[found], str):
                        if labels[found] != label:
                            labels[found] = (labels[found], label)
                    elif label not in labels[found]:
                        labels[found] += (label,)
    if violations:
        current_tracer().metrics.counter("mlf_evaluations").inc(n_fixes)

    # I(D, IC, t) per tuple slot, as CSR rows (ascending violation ids).
    tuple_start = [0] * (len(tuples) + 1)
    for slot in member_slots:
        tuple_start[slot + 1] += 1
    for slot in range(len(tuples)):
        tuple_start[slot + 1] += tuple_start[slot]
    tuple_violations = [0] * len(member_slots)
    cursor = tuple_start[:-1]
    for slot, index in zip(member_slots, member_violations):
        tuple_violations[cursor[slot]] = index
        cursor[slot] += 1

    # Sets ordered by (tuple ref, attribute, new value): slots are ranks.
    order = sorted(
        range(len(slots)),
        key=lambda i: (slots[i], descriptors_used[i].attribute, new_values[i]),
    )

    # Pass 2 (Algorithm 4): S(t, t′) for every candidate, across all
    # constraints, written straight into the CSR arrays.
    weights: list[float] = []
    set_start = [0]
    set_elements: list[int] = []
    set_slots: list[int] = []
    set_descriptors: list[FixDescriptor] = []
    set_values: list[int] = []
    set_sources: list = []
    point = metric.point
    for i in order:
        slot = slots[i]
        tup = tuples[slot]
        descriptor = descriptors_used[i]
        attribute = descriptor.attribute
        new_value = new_values[i]
        relation = tup.relation.name
        fixed: Tuple | None = None
        for index in tuple_violations[tuple_start[slot] : tuple_start[slot + 1]]:
            test = violation_tables[index][relation][attribute]
            if test.closed_form:
                if not test.solved_at(new_value):
                    continue
            else:
                if fixed is None:
                    fixed = tup.replace({attribute: new_value})
                if not solved_violations(tup, fixed, violations, (index,)):
                    continue
            set_elements.append(index)
        if len(set_elements) == set_start[-1]:
            # A fix that solves nothing is not a local fix (Definition
            # 2.6(b) requires S(t,t') to be non-empty); drop it.
            continue
        set_start.append(len(set_elements))
        # Δ({t}, {t′}) = α_A · Dist(t[A], t′[A]): only A differs.
        weights.append(
            descriptor.alpha * point(tup.values[descriptor.position], new_value)
        )
        set_slots.append(slot)
        set_descriptors.append(descriptor)
        set_values.append(new_value)
        set_sources.append(labels[i])

    def candidate(set_id: int) -> FixCandidate:
        old = tuples[set_slots[set_id]]
        sources = set_sources[set_id]
        return FixCandidate(
            ref=old.ref,
            old=old,
            attribute=set_descriptors[set_id].attribute,
            new_value=set_values[set_id],
            weight=weights[set_id],
            solves=tuple(set_elements[set_start[set_id] : set_start[set_id + 1]]),
            sources=(sources,) if isinstance(sources, str) else sources,
        )

    setcover = SetCoverInstance.from_arrays(
        len(violations), weights, set_start, set_elements, payload=candidate
    )
    uncovered = setcover.first_uncovered()
    if uncovered is not None:
        raise UnrepairableError(
            f"violation set {violations[uncovered]!r} admits no mono-local fix; "
            "the constraint set is not repairable by attribute updates"
        )
    return RepairProblem(
        instance=instance,
        constraints=constraints,
        metric=metric,
        violations=violations,
        setcover=setcover,
        tuples=tuples,
        set_slots=set_slots,
        set_descriptors=set_descriptors,
        set_values=set_values,
        set_sources=set_sources,
    )
