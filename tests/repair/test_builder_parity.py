"""The compiled reduction against the tuple-by-tuple Definition 2.8 reference.

``build_repair_problem`` compiles fix descriptors, decides ``S(t, t′)`` in
closed form where the constraint shape allows it, and writes CSR arrays.
The reference below assembles the same MWSCP straight from the public
definitions - :func:`mono_local_fixes_for_tuple` (Algorithm 3) and
:func:`solved_violations` (the substitution test of Definition 2.6(b)) -
and both must agree set for set: elements, weights, payload fields and
sources, or the same error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import repair_database
from repro.constraints.locality import check_local_set
from repro.exceptions import LocalityError, UnrepairableError
from repro.fixes.distance import get_metric, tuple_delta
from repro.fixes.mlf import (
    fix_descriptors,
    mono_local_fixes_for_tuple,
    solved_violations,
)
from repro.obs import Tracer
from repro.repair import builder
from repro.repair.builder import build_repair_problem
from repro.violations.detector import find_all_violations
from repro.workloads import (
    census_workload,
    client_buy_workload,
    finance_workload,
    paper_pub_example,
    random_detection_workload,
    tpch_like_workload,
)

METRICS = ("l1", "l2", "l0")


def reference_sets(instance, constraints, metric, check_locality):
    """``(violations, sets)`` of the MWSCP, one definition at a time."""
    constraints = tuple(constraints)
    metric = get_metric(metric)
    if check_locality:
        check_local_set(constraints, instance.schema)
    violations = tuple(find_all_violations(instance, constraints))
    by_tuple: dict = {}
    for index, violation in enumerate(violations):
        for tup in violation.tuples:
            by_tuple.setdefault(tup, []).append(index)
    raw: dict = {}
    expanded = set()
    for violation in violations:
        constraint = violation.constraint
        for tup in violation.tuples:
            if (tup.ref, id(constraint)) in expanded:
                continue
            expanded.add((tup.ref, id(constraint)))
            fixes = mono_local_fixes_for_tuple(tup, constraint, instance.schema)
            for attribute, fixed in fixes.items():
                key = (tup.ref, attribute, fixed[attribute])
                if key not in raw:
                    raw[key] = (tup, fixed, [constraint.label])
                elif constraint.label not in raw[key][2]:
                    raw[key][2].append(constraint.label)
    sets = []
    for key in sorted(raw, key=lambda k: (k[0], k[1], k[2])):
        old, new, sources = raw[key]
        solves = solved_violations(old, new, violations, by_tuple[old])
        if solves:
            weight = tuple_delta(old, new, metric)
            sets.append((old, key[1], key[2], weight, solves, tuple(sources)))
    covered = {element for entry in sets for element in entry[4]}
    for element, violation in enumerate(violations):
        if element not in covered:
            raise UnrepairableError(
                f"violation set {violation!r} admits no mono-local fix; "
                "the constraint set is not repairable by attribute updates"
            )
    return violations, sets


def outcome(build, *args):
    try:
        return "ok", build(*args)
    except (LocalityError, UnrepairableError) as error:
        return type(error).__name__, str(error)


def compiled_sets(instance, constraints, metric, check_locality):
    problem = build_repair_problem(
        instance, constraints, metric=metric, check_locality=check_locality
    )
    setcover = problem.setcover
    sets = []
    for set_id in range(setcover.n_sets):
        start, end = setcover.set_start[set_id], setcover.set_start[set_id + 1]
        candidate = problem.candidate(set_id)
        assert candidate is setcover.sets[set_id].payload
        assert candidate.ref == candidate.old.ref
        assert candidate.new == candidate.old.replace(
            {candidate.attribute: candidate.new_value}
        )
        assert candidate.weight == setcover.weights[set_id]
        assert candidate.solves == tuple(setcover.set_elements[start:end])
        sets.append(
            (
                candidate.old,
                candidate.attribute,
                candidate.new_value,
                candidate.weight,
                candidate.solves,
                candidate.sources,
            )
        )
    return problem.violations, sets


def assert_parity(instance, constraints, metric, check_locality):
    expected = outcome(reference_sets, instance, constraints, metric, check_locality)
    actual = outcome(compiled_sets, instance, constraints, metric, check_locality)
    assert actual == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_clients=st.integers(3, 25),
    n_constraints=st.integers(1, 4),
    metric=st.sampled_from(METRICS),
    check_locality=st.booleans(),
)
def test_random_shapes_match_reference(
    seed, n_clients, n_constraints, metric, check_locality
):
    """Self-joins, ``≠``, offset comparisons, non-local input and all."""
    workload = random_detection_workload(seed, n_clients, n_constraints)
    assert_parity(workload.instance, workload.constraints, metric, check_locality)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_clients=st.integers(3, 25),
    metric=st.sampled_from(METRICS),
)
def test_repairable_random_shapes_match_reference(seed, n_clients, metric):
    """The random shapes that do repair, non-local ones included.

    Most random draws fail fast (a non-local or unrepairable constraint);
    keeping only the constraints that repair on their own makes every
    draw build a full MWSCP, through both the closed form and the
    substitution fallback (self-joins, comparisons on flexible cells).
    """
    workload = random_detection_workload(seed, n_clients, 6)
    repairable = tuple(
        constraint
        for constraint in workload.constraints
        if outcome(reference_sets, workload.instance, (constraint,), "l1", False)[0]
        == "ok"
    )
    assert_parity(workload.instance, repairable, metric, False)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize(
    "make",
    [
        paper_pub_example,
        lambda: client_buy_workload(300, inconsistency_ratio=0.4, seed=5),
        lambda: census_workload(60, dirty_ratio=0.5, seed=2),
        lambda: finance_workload(60, dirty_ratio=0.5, seed=3),
        # tq6 is a self-join: its S(t, t′) runs the substitution fallback.
        lambda: tpch_like_workload(0.05, violation_ratio=0.2, seed=4),
    ],
    ids=["paper-pub", "clientbuy", "census", "finance", "tpch"],
)
def test_bundled_workloads_match_reference(make, metric):
    workload = make()
    assert_parity(workload.instance, workload.constraints, metric, True)


def test_serial_repair_builds_payloads_only_for_selected_sets(monkeypatch):
    """A repair materializes no fix candidate: apply reads the set columns."""
    from repro.repair import engine

    built = []
    covers = []
    real_candidate, real_apply = builder.FixCandidate, engine.apply_cover

    def counting_candidate(**fields):
        built.append(fields)
        return real_candidate(**fields)

    def recording_apply(problem, cover, *args, **kwargs):
        covers.append((len(problem.setcover.sets), cover.selected))
        return real_apply(problem, cover, *args, **kwargs)

    monkeypatch.setattr(builder, "FixCandidate", counting_candidate)
    monkeypatch.setattr(engine, "apply_cover", recording_apply)
    workload = client_buy_workload(400, inconsistency_ratio=0.3, seed=11)
    repair_database(workload.instance, workload.constraints)
    [(n_sets, selected)] = covers
    assert 0 < len(selected) < n_sets
    assert built == []


def test_descriptors_compile_once_per_constraint_and_relation():
    """Repeated reductions (commit rounds) reuse the compiled descriptors."""
    workload = tpch_like_workload(0.05, violation_ratio=0.2, seed=4)
    for constraint in workload.constraints:
        for relation in workload.schema:
            first = fix_descriptors(constraint, relation)
            assert fix_descriptors(constraint, relation) is first
            assert list(first) == [a.name for a in relation.flexible_attributes]


def test_mlf_evaluations_counter_unchanged():
    workload = client_buy_workload(200, inconsistency_ratio=0.4, seed=8)
    compiled, reference = Tracer(), Tracer()
    with compiled.activate():
        build_repair_problem(workload.instance, workload.constraints)
    with reference.activate():
        reference_sets(workload.instance, workload.constraints, "l1", True)

    def evaluations(tracer):
        [counter] = [
            c for c in tracer.metrics.snapshot()["counters"]
            if c["name"] == "mlf_evaluations"
        ]
        return counter["value"]

    assert evaluations(compiled) == evaluations(reference) > 0
