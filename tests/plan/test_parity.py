"""Byte parity: planned == unplanned repairs, fuzzed across engines.

The compiler's hard contract.  A :class:`CompiledProgram` may skip dead
constraints, pre-rank engines and pre-resolve the solver, but the repair
it produces - changes, cover weight, repaired instance - must be byte
for byte the one the unplanned path computes, on every instance, for
every detection engine and solver, batch or
incremental or streaming.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Attribute,
    DatabaseInstance,
    IncrementalRepairer,
    Relation,
    Schema,
    repair_database,
)
from repro.constraints.atoms import BuiltinAtom, Comparator, RelationAtom
from repro.constraints.denial import DenialConstraint
from repro.model.columnar import kernel_available
from repro.plan import compile_program
from repro.repair.streaming import StreamingRepairer
from repro.workloads.clientbuy import client_buy_workload

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

# A local constraint set: a join rule and a single-table range rule.
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

# The same set plus a dead rule (x < 2 and x > 90 cannot hold together)
# the plan eliminates.  The opposing bounds trip locality condition (c),
# so only the batch tests (which pass check_locality=False) use it.
CONSTRAINTS_WITH_DEAD = CONSTRAINTS + (
    DenialConstraint(
        [RelationAtom("R", ("k", "g", "x"))],
        [
            BuiltinAtom("x", Comparator.LT, 2),
            BuiltinAtom("x", Comparator.GT, 90),
        ],
        name="dead_rule",
    ),
)

PLAN = compile_program(SCHEMA, CONSTRAINTS)
PLAN_WITH_DEAD = compile_program(SCHEMA, CONSTRAINTS_WITH_DEAD)
assert len(PLAN_WITH_DEAD.skipped_entries) == 1

ENGINES = ["auto", "interpreted"] + (["kernel"] if kernel_available() else [])


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


def _assert_same(planned, unplanned):
    assert planned.changes == unplanned.changes
    assert planned.repaired == unplanned.repaired
    assert planned.cover_weight == unplanned.cover_weight
    assert planned.violations_before == unplanned.violations_before
    assert planned.verified and unplanned.verified


class TestBatchParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=25, deadline=None)
    @given(instance=instances())
    def test_planned_equals_unplanned(self, instance, engine):
        # check_locality=False: the dead rule's opposing bounds trip
        # condition (c), and parity must hold regardless.
        unplanned = repair_database(
            instance,
            CONSTRAINTS_WITH_DEAD,
            engine=engine,
            check_locality=False,
        )
        planned = repair_database(
            instance,
            CONSTRAINTS_WITH_DEAD,
            engine=engine,
            check_locality=False,
            plan=PLAN_WITH_DEAD,
        )
        _assert_same(planned, unplanned)

    @settings(max_examples=25, deadline=None)
    @given(instance=instances())
    def test_planned_parallel_equals_unplanned_serial(self, instance):
        unplanned = repair_database(
            instance, CONSTRAINTS_WITH_DEAD, check_locality=False
        )
        planned = repair_database(
            instance,
            CONSTRAINTS_WITH_DEAD,
            check_locality=False,
            parallel="auto",
            plan=PLAN_WITH_DEAD,
        )
        _assert_same(planned, unplanned)


class TestDeterministicWorkloadParity:
    def test_clientbuy(self):
        workload = client_buy_workload(80, inconsistency_ratio=0.4, seed=23)
        program = compile_program(workload.schema, workload.constraints)
        unplanned = repair_database(workload.instance, workload.constraints)
        planned = repair_database(
            workload.instance, workload.constraints, plan=program
        )
        _assert_same(planned, unplanned)

    @pytest.mark.parametrize("algorithm", ["greedy", "layer"])
    def test_across_solvers(self, algorithm):
        workload = client_buy_workload(60, inconsistency_ratio=0.5, seed=41)
        program = compile_program(workload.schema, workload.constraints)
        unplanned = repair_database(
            workload.instance, workload.constraints, algorithm=algorithm
        )
        planned = repair_database(
            workload.instance,
            workload.constraints,
            algorithm=algorithm,
            plan=program,
        )
        _assert_same(planned, unplanned)


class TestIncrementalParity:
    @settings(max_examples=15, deadline=None)
    @given(instance=instances())
    def test_commit_rounds_match(self, instance):
        planned = IncrementalRepairer(
            instance.copy(), CONSTRAINTS, plan=PLAN
        )
        unplanned = IncrementalRepairer(instance.copy(), CONSTRAINTS)
        results = []
        for repairer in (planned, unplanned):
            repairer.insert("S", (100, 25))
            repairer.insert("R", (100, 0, 1))
            results.append(repairer.commit(verify=True))
        assert planned.instance == unplanned.instance
        assert results[0].changes == results[1].changes


class TestStreamingParity:
    def test_streamed_rounds_match(self):
        planned = StreamingRepairer(
            DatabaseInstance(SCHEMA),
            CONSTRAINTS,
            commit_interval=5,
            plan=PLAN,
        )
        unplanned = StreamingRepairer(
            DatabaseInstance(SCHEMA), CONSTRAINTS, commit_interval=5
        )
        rows_s = [(i, (7 * i) % 31) for i in range(12)]
        rows_r = [(i, i % 12, (5 * i) % 21) for i in range(20)]
        for streamer in (planned, unplanned):
            for row in rows_s:
                streamer.insert("S", row)
            for row in rows_r:
                streamer.insert("R", row)
            streamer.flush()
        assert planned.instance == unplanned.instance
        assert (
            planned.aggregate_result().changes
            == unplanned.aggregate_result().changes
        )
