"""Unit tests for cover -> repair construction (Definition 3.2).

``apply_cover`` walks the reduction's set columns.  The oracle below is
the object construction it replaced, one definition at a time: a
:class:`FixCandidate` and a :class:`CellChange` per selected set, the
per-tuple merge ``C*`` with same-attribute subsumption, ``Tuple.replace``
per tuple and ``Δ`` recomputed with :func:`tuple_delta`.  Both must agree
byte for byte - changes, ``repr`` of the distance, repaired instance and
data versions - on every cover, metric and copy mode.
"""

import dataclasses
import random

import pytest

from repro import (
    Attribute,
    DatabaseInstance,
    Relation,
    Schema,
    build_repair_problem,
    is_consistent,
    parse_denials,
)
from repro.exceptions import InstanceError
from repro.fixes.distance import database_delta, tuple_delta
from repro.repair.apply import apply_cover
from repro.repair.result import CellChange
from repro.setcover import exact_cover, greedy_cover
from repro.setcover.result import Cover
from repro.setcover.solvers import get_solver
from repro.workloads import (
    census_workload,
    client_buy_workload,
    paper_example,
    paper_pub_example,
    tpch_like_workload,
)


def oracle_apply(problem, cover, in_place=False):
    """``(repaired, changes, distance)`` built from fix candidates."""
    merged = {}
    for set_id in cover.selected:
        candidate = problem.candidate(set_id)
        per_attribute = merged.setdefault(candidate.ref, {})
        change = CellChange(
            ref=candidate.ref,
            attribute=candidate.attribute,
            old_value=candidate.old[candidate.attribute],
            new_value=candidate.new_value,
            weight=candidate.weight,
        )
        incumbent = per_attribute.get(candidate.attribute)
        if incumbent is None or (change.weight, change.new_value) > (
            incumbent.weight,
            incumbent.new_value,
        ):
            per_attribute[candidate.attribute] = change
    repaired = problem.instance if in_place else problem.instance.copy()
    changes = []
    total = 0.0
    for ref in sorted(merged):
        per_attribute = merged[ref]
        old = repaired.resolve(ref)
        new = old.replace(
            {change.attribute: change.new_value for change in per_attribute.values()}
        )
        repaired.replace_tuple(new)
        total += tuple_delta(old, new, problem.metric)
        changes.extend(per_attribute[a] for a in sorted(per_attribute))
    return repaired, tuple(changes), total


def _cover_of(problem, fix_keys):
    """Build a Cover selecting the sets matching (key, attribute, value)."""
    selected = []
    for target in fix_keys:
        for weighted_set in problem.setcover.sets:
            candidate = weighted_set.payload
            if (
                candidate.ref.key_values,
                candidate.attribute,
                candidate.new_value,
            ) == target:
                selected.append(weighted_set.set_id)
                break
        else:
            raise AssertionError(f"no set for {target}")
    weight = sum(problem.setcover.sets[i].weight for i in selected)
    return Cover(tuple(selected), weight, "manual")


class TestMergeAndApply:
    def test_single_fix_per_tuple(self, paper):
        problem = build_repair_problem(paper.instance, paper.constraints)
        cover = _cover_of(problem, [(("B1",), "ef", 0), (("C2",), "ef", 0)])
        repaired, changes, distance, _ = apply_cover(problem, cover)
        assert repaired.get("Paper", ("B1",))["ef"] == 0
        assert repaired.get("Paper", ("C2",))["ef"] == 0
        assert distance == 2.0
        assert len(changes) == 2
        assert is_consistent(repaired, paper.constraints)

    def test_example_33_c2_combines_two_fixes_of_one_tuple(self, paper_pub):
        """Cover C2 of Example 3.3 merges t1^2 and t1^3 into t1^5=(B1,1,50,1)."""
        problem = build_repair_problem(paper_pub.instance, paper_pub.constraints)
        cover = _cover_of(
            problem,
            [
                (("B1",), "prc", 50),
                (("B1",), "cf", 1),
                (("C2",), "ef", 0),
                ((235,), "pag", 40),
            ],
        )
        repaired, changes, distance, _ = apply_cover(problem, cover)
        assert repaired.get("Paper", ("B1",)).values == ("B1", 1, 50, 1)
        assert repaired.get("Pub", (235,))["pag"] == 40
        assert is_consistent(repaired, paper_pub.constraints)
        assert len(changes) == 4

    def test_example_33_c3(self, paper_pub):
        """Cover C3 combines t1^3 and t1^4 into t1^6=(B1,1,70,1); p1 untouched."""
        problem = build_repair_problem(paper_pub.instance, paper_pub.constraints)
        cover = _cover_of(
            problem,
            [
                (("B1",), "prc", 70),
                (("B1",), "cf", 1),
                (("C2",), "ef", 0),
            ],
        )
        repaired = apply_cover(problem, cover).repaired
        assert repaired.get("Paper", ("B1",)).values == ("B1", 1, 70, 1)
        assert repaired.get("Pub", (235,))["pag"] == 45
        assert is_consistent(repaired, paper_pub.constraints)

    def test_same_attribute_subsumption(self, paper_pub):
        """Two fixes of one (tuple, attribute): the farther (prc=70) wins."""
        problem = build_repair_problem(paper_pub.instance, paper_pub.constraints)
        fixes = [
            (("B1",), "prc", 50),
            (("B1",), "prc", 70),
            (("B1",), "cf", 1),
            (("C2",), "ef", 0),
        ]
        cover = _cover_of(problem, fixes)
        repaired, changes, distance, _ = apply_cover(problem, cover)
        assert repaired.get("Paper", ("B1",))["prc"] == 70
        prc = [c for c in changes if c.attribute == "prc"]
        assert [c.new_value for c in prc] == [70]
        # distance reflects the APPLIED updates, not the cover weight:
        # the subsumed prc=50 fix contributes nothing.
        subsumed = problem.setcover.weights[cover.selected[0]]   # prc=50
        assert distance == sum(
            problem.setcover.weights[i] for i in cover.selected[1:]
        )
        assert distance == pytest.approx(cover.weight - subsumed)
        assert distance < cover.weight
        assert is_consistent(repaired, paper_pub.constraints)
        # The winner does not depend on the order of the cover's sets.
        reversed_cover = Cover(cover.selected[::-1], cover.weight, "manual")
        assert apply_cover(problem, reversed_cover)[:3] == (repaired, changes, distance)

    def test_original_instance_untouched(self, paper):
        problem = build_repair_problem(paper.instance, paper.constraints)
        cover = greedy_cover(problem.setcover)
        apply_cover(problem, cover)
        assert paper.instance.get("Paper", ("B1",))["ef"] == 1

    def test_changes_are_deterministic_and_sorted(self, paper):
        problem = build_repair_problem(paper.instance, paper.constraints)
        cover = exact_cover(problem.setcover)
        changes_a = apply_cover(problem, cover).changes
        changes_b = apply_cover(problem, cover).changes
        assert changes_a == changes_b
        refs = [c.ref for c in changes_a]
        assert refs == sorted(refs)


WORKLOADS = {
    "paper": paper_example,
    "paper-pub": paper_pub_example,
    "clientbuy": lambda: client_buy_workload(60, inconsistency_ratio=0.4, seed=3),
    "census": lambda: census_workload(40, 3, dirty_ratio=0.3, seed=3),
    "tpch": lambda: tpch_like_workload(0.05, violation_ratio=0.2, seed=3),
}
COVERS = ("greedy", "layer", "exact", "superset", "all-sets")
METRICS = ("l1", "l2", "l0")


def make_cover(problem, kind):
    """A cover of ``problem``; the last two are not minimal on purpose."""
    setcover = problem.setcover
    if kind in ("greedy", "layer"):
        return get_solver(kind)(setcover)
    if kind == "exact":
        return get_solver("exact-decomposed")(setcover)
    rng = random.Random(setcover.n_sets)
    if kind == "superset":
        base = set(get_solver("greedy")(setcover).selected)
        extra = rng.sample(range(setcover.n_sets), setcover.n_sets // 3)
        selected = list(base.union(extra))
    else:
        # Every set: forces same-attribute subsumption wherever a tuple
        # has two fixes on one attribute.
        selected = list(range(setcover.n_sets))
    rng.shuffle(selected)
    weight = sum(setcover.weights[i] for i in selected)
    return Cover(tuple(selected), weight, kind)


@pytest.fixture(scope="module")
def workloads():
    return {name: make() for name, make in WORKLOADS.items()}


@pytest.mark.parametrize("in_place", [False, True], ids=["copy", "in-place"])
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("kind", COVERS)
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_apply_matches_oracle(workloads, name, kind, metric, in_place):
    workload = workloads[name]
    original = workload.instance

    def problem_on_copy():
        return build_repair_problem(original.copy(), workload.constraints, metric)

    problem, reference = problem_on_copy(), problem_on_copy()
    cover = make_cover(problem, kind)
    before = {r.name: problem.instance.data_version(r.name) for r in original.schema}

    repaired, changes, distance, replaced = apply_cover(problem, cover, in_place)
    expected, expected_changes, expected_distance = oracle_apply(
        reference, cover, in_place
    )

    assert changes == expected_changes
    assert repr(distance) == repr(expected_distance)
    assert repaired == expected
    assert (repaired is problem.instance) is in_place
    for relation in original.schema:
        assert repaired.data_version(relation.name) == expected.data_version(
            relation.name
        )
        if in_place:
            touched = {c.ref for c in changes if c.ref.relation_name == relation.name}
            assert repaired.data_version(relation.name) == (
                before[relation.name] + len(touched)
            )
    assert distance == pytest.approx(
        database_delta(original, repaired, problem.metric), rel=1e-9, abs=1e-9
    )
    assert sorted(new.ref for _, new in replaced) == sorted({c.ref for c in changes})
    for old, new in replaced:
        assert old == original.resolve(old.ref)
        assert repaired.resolve(new.ref) is new
    assert is_consistent(repaired, workload.constraints)


def test_all_sets_cover_exercises_subsumption(workloads):
    """The all-sets cover really merges two fixes of one (tuple, attribute)."""
    problem = build_repair_problem(
        workloads["paper-pub"].instance, workloads["paper-pub"].constraints
    )
    cover = make_cover(problem, "all-sets")
    changes = apply_cover(problem, cover).changes
    assert len(changes) < len(cover.selected)
    assert len({(c.ref, c.attribute) for c in changes}) == len(changes)


def test_delta_sums_in_attribute_position_order():
    """Three fixes of one tuple: name order would round differently.

    Positions are (c, b, a), names sort (a, b, c); with weights 0.1, 0.2
    and 0.3, ``(0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1`` in floats.
    """
    schema = Schema(
        [
            Relation(
                "R",
                [
                    Attribute.hard("k"),
                    Attribute.flexible("c", 0.1),
                    Attribute.flexible("b", 0.2),
                    Attribute.flexible("a", 0.3),
                ],
                key=["k"],
            )
        ]
    )
    instance = DatabaseInstance.from_rows(schema, {"R": [(1, 0, 0, 0), (2, 0, 0, 0)]})
    constraints = parse_denials(
        "NOT(R(k, c, b, a), c < 1)\nNOT(R(k, c, b, a), b < 1)\nNOT(R(k, c, b, a), a < 1)"
    )
    problem = build_repair_problem(instance, constraints)
    cover = greedy_cover(problem.setcover)
    _, changes, distance, _ = apply_cover(problem, cover)
    assert [c.attribute for c in changes] == ["a", "b", "c"] * 2
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    expected = 0.0
    for _ in range(2):
        expected += (0.1 + 0.2) + 0.3
    assert repr(distance) == repr(expected)
    assert distance == database_delta(instance, apply_cover(problem, cover).repaired)


class TestGuards:
    """The ``Tuple.replace`` checks, once per descriptor and per value."""

    def test_non_integer_value_rejected(self, paper):
        problem = build_repair_problem(paper.instance, paper.constraints)
        cover = greedy_cover(problem.setcover)
        values = list(problem.set_values)
        values[cover.selected[0]] = 0.5
        broken = dataclasses.replace(problem, set_values=values)
        with pytest.raises(InstanceError, match="must be an integer"):
            apply_cover(broken, cover, in_place=True)
        assert problem.instance == paper_example().instance

    def test_key_attribute_rejected(self, paper):
        problem = build_repair_problem(paper.instance, paper.constraints)
        cover = greedy_cover(problem.setcover)
        key = paper.instance.schema.relation("Paper").key[0]
        descriptors = [
            _Descriptor(key, d.position) for d in problem.set_descriptors
        ]
        broken = dataclasses.replace(problem, set_descriptors=descriptors)
        with pytest.raises(InstanceError, match="cannot update key attribute"):
            apply_cover(broken, cover)


@dataclasses.dataclass(frozen=True)
class _Descriptor:
    attribute: str
    position: int
