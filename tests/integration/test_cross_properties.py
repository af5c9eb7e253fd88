"""Cross-module property-based tests (hypothesis).

These target the seams between subsystems:

* sqlite SQL-view detection == in-memory join detection on random data;
* cardinality repairs: the δ round trip preserves non-deleted tuples, the
  result is consistent, and deletion counts are bounded sensibly;
* a sequence of incremental commits ends consistent and equals batch
  repair in violations covered.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import (
    Attribute,
    DatabaseInstance,
    IncrementalRepairer,
    Relation,
    Schema,
    cardinality_repair,
    find_all_violations,
    is_consistent,
    repair_database,
)
from repro.constraints.atoms import BuiltinAtom, Comparator, RelationAtom
from repro.constraints.denial import DenialConstraint
from repro.storage import SqliteBackend

SCHEMA = Schema(
    [
        Relation(
            "R",
            [
                Attribute.hard("k"),
                Attribute.hard("g"),
                Attribute.flexible("x"),
            ],
            key=["k"],
        ),
        Relation(
            "S",
            [Attribute.hard("k"), Attribute.flexible("y")],
            key=["k"],
        ),
    ]
)

# Join constraint on the hard group attribute + a single-table range rule;
# always local: x only in '<', y only in '>'.
CONSTRAINTS = (
    DenialConstraint(
        [RelationAtom("R", ("k", "g", "x")), RelationAtom("S", ("g", "y"))],
        [
            BuiltinAtom("x", Comparator.LT, 10),
            BuiltinAtom("y", Comparator.GT, 5),
        ],
        name="join_rule",
    ),
    DenialConstraint(
        [RelationAtom("S", ("k", "y"))],
        [BuiltinAtom("y", Comparator.GT, 20)],
        name="range_rule",
    ),
)


@st.composite
def instances(draw):
    n_r = draw(st.integers(min_value=0, max_value=10))
    n_s = draw(st.integers(min_value=1, max_value=8))
    instance = DatabaseInstance(SCHEMA)
    for i in range(n_s):
        instance.insert_row("S", (i, draw(st.integers(0, 30))))
    for i in range(n_r):
        group = draw(st.integers(0, n_s - 1))
        instance.insert_row("R", (i, group, draw(st.integers(0, 20))))
    return instance


@given(instances())
@settings(max_examples=60, deadline=None)
def test_sqlite_detection_matches_memory(instance):
    in_memory = find_all_violations(instance, CONSTRAINTS)
    with SqliteBackend.from_instance(instance) as backend:
        from_sql = find_all_violations(
            backend.load_instance(SCHEMA), CONSTRAINTS, engine="pushdown"
        )
    as_labels = lambda vs: {
        (v.constraint.name, frozenset(t.ref for t in v)) for v in vs
    }
    assert as_labels(from_sql) == as_labels(in_memory)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_cardinality_repair_invariants(instance):
    result = cardinality_repair(instance, CONSTRAINTS)
    assert is_consistent(result.repaired, CONSTRAINTS)
    # every surviving tuple is an original tuple, unchanged.
    for relation in ("R", "S"):
        for tup in result.repaired.tuples(relation):
            assert tup in instance
    # deleted + kept partitions the original tuples.
    assert result.repaired.count() + result.deletions == instance.count()
    # deleting every tuple of some violation set is always enough, so the
    # optimum cannot exceed the number of violating tuples.
    violating = {t for v in find_all_violations(instance, CONSTRAINTS) for t in v}
    assert result.deletions <= len(violating)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_update_and_delete_semantics_agree_on_consistency(instance):
    updated = repair_database(instance, CONSTRAINTS)
    deleted = cardinality_repair(instance, CONSTRAINTS)
    assert is_consistent(updated.repaired, CONSTRAINTS)
    assert is_consistent(deleted.repaired, CONSTRAINTS)
    assert len(updated.repaired) == len(instance)


@given(instances(), st.lists(st.integers(0, 30), min_size=0, max_size=6))
@settings(max_examples=40, deadline=None)
def test_incremental_commits_stay_consistent(instance, feed):
    repairer = IncrementalRepairer(instance, CONSTRAINTS)
    next_key = 1000
    for value in feed:
        repairer.insert("S", (next_key, value))
        next_key += 1
        result = repairer.commit()
        assert result.distance <= result.cover_weight + 1e-9
    assert is_consistent(repairer.instance, CONSTRAINTS)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_incremental_initial_equals_batch_repair(instance):
    repairer = IncrementalRepairer(instance, CONSTRAINTS)
    batch = repair_database(instance, CONSTRAINTS)
    # both use the same solver and tie-breaks, so the initial repair the
    # repairer performs is the batch repair.
    assert repairer.instance == batch.repaired
