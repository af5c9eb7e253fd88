"""The columnar violation handoff: ``ViolationColumns`` and its canonical order.

The kernel engine hands ``I(D, ic)`` over as a slot matrix instead of
``ViolationSet`` objects.  The oracle is the frozenset funnel
:func:`~repro.violations.detector._ordered_violation_sets`, which the
interpreted and pushdown engines still use: the view must hold exactly
its sets, in exactly its order, whatever the key types - and a repair on
the kernel path must build no violation set and no ``TupleRef`` for a
tuple it leaves alone.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import repair_database
from repro.constraints.parser import parse_denial
from repro.model.columnar import ColumnarRelation, kernel_available
from repro.model.instance import DatabaseInstance
from repro.model.schema import Attribute, Relation, Schema
from repro.repair.builder import build_repair_problem
from repro.violations import columns
from repro.violations.columns import ViolationColumns, ViolationSet, concat_violations
from repro.violations.detector import (
    _ordered_violation_sets,
    _satisfying_assignments,
    find_all_violations,
    find_violations,
)
from repro.workloads import (
    client_buy_workload,
    random_detection_workload,
    tpch_like_workload,
)

pytestmark = pytest.mark.skipif(
    not kernel_available(), reason="NumPy not installed (repro[kernel] extra)"
)


def _oracle(instance, constraint):
    """``I(D, ic)`` through the interpreted enumeration and the funnel."""
    used = {frozenset(a) for a in _satisfying_assignments(instance, constraint)}
    return _ordered_violation_sets(used, constraint)


def _assert_canonical(view, expected):
    """Same sets, same order, same member order, canonical ``tuples``."""
    assert isinstance(view, ViolationColumns)
    assert tuple(view) == expected
    assert [v.sorted_tuples() for v in view] == [
        v.sorted_tuples() for v in expected
    ]
    assert list(view.tuples) == sorted(view.tuples, key=lambda t: t.ref.sort_key)
    assert set(view.tuples) == {t for v in expected for t in v}


@pytest.fixture
def built_sets(monkeypatch):
    """Count ``ViolationSet`` constructions."""
    count = {"n": 0}
    original = ViolationSet.__init__

    def counting(self, *args, **kwargs):
        count["n"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(ViolationSet, "__init__", counting)
    return count


def _keyed_instance(keys, key_arity=1):
    """R(k.., v) with the given keys and a spread of flexible values."""
    names = [f"k{i}" for i in range(key_arity)]
    schema = Schema(
        [
            Relation(
                "R",
                [*(Attribute.hard(n) for n in names), Attribute.flexible("v")],
                key=names,
            )
        ]
    )
    instance = DatabaseInstance(schema)
    for index, key in enumerate(keys):
        key = key if isinstance(key, tuple) else (key,)
        instance.insert_row("R", (*key, (index * 7) % 5))
    return instance


def _self_join(key_arity: int, same_row: bool):
    """A self-join over R; ``same_row`` lets both atoms bind one row
    (``v <= v``), so singleton witnesses make the pairs containing them
    non-minimal."""
    xs = ", ".join(f"x{i}" for i in range(key_arity))
    ys = ", ".join(f"y{i}" for i in range(key_arity))
    tail = "v <= w, w < 2" if same_row else "x0 != y0, v < w"
    return parse_denial(f"NOT(R({xs}, v), R({ys}, w), {tail})")


class TestDifferential:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_kernel_view_equals_funnel(self, seed):
        workload = random_detection_workload(seed)
        for constraint in workload.constraints:
            _assert_canonical(
                find_violations(workload.instance, constraint, engine="kernel"),
                _oracle(workload.instance, constraint),
            )

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_concatenation_equals_funnel(self, seed):
        workload = random_detection_workload(seed)
        expected = tuple(
            v for c in workload.constraints for v in _oracle(workload.instance, c)
        )
        view = find_all_violations(
            workload.instance, workload.constraints, engine="kernel"
        )
        assert tuple(view) == expected
        assert [v.sorted_tuples() for v in view] == [
            v.sorted_tuples() for v in expected
        ]

    def test_merge_by_tuple_equals_merge_by_row(self):
        workload = client_buy_workload(300, seed=5)
        parts = [
            find_violations(workload.instance, c, engine="kernel")
            for c in workload.constraints
        ]
        by_row = concat_violations(parts)
        assert by_row.origin is not None
        # A pickled view has no origin, so the merge goes by tuple.
        by_tuple = concat_violations([pickle.loads(pickle.dumps(p)) for p in parts])
        assert by_tuple.origin is None
        assert by_tuple.tuples == by_row.tuples
        assert (by_tuple.slots == by_row.slots).all()
        assert by_tuple == by_row


class TestAdversarialKeys:
    @pytest.mark.parametrize(
        "keys, key_arity",
        [
            # multi-column keys, negative and multi-digit values
            ([(1, 10), (1, 9), (-2, 3), (10, -1), (9, 100), (-10, 0)], 2),
            # int, str and bool in one key column
            ([2, "2", True, "b", -3, "10", 11], 1),
            # ints beyond int64
            ([10**30, -(10**25), 5, 2**63, -(2**63) - 1, 7], 1),
            # NUL inside a key value
            (["k\x00a", "k", "k\x00", "a\x00b", "ka"], 1),
            # the int64 extremes, on the vectorized path
            ([2**63 - 1, -(2**63), 0, -1, 1], 1),
        ],
    )
    @pytest.mark.parametrize("same_row", [False, True])
    def test_order_matches_funnel(self, keys, key_arity, same_row):
        constraint = _self_join(key_arity, same_row)
        instance = _keyed_instance(keys, key_arity)
        expected = _oracle(instance, constraint)
        assert expected
        _assert_canonical(find_violations(instance, constraint, engine="kernel"), expected)

    def test_same_row_witnesses_are_minimized(self):
        instance = _keyed_instance([1, 2, 3, 4, 5])
        view = find_violations(instance, _self_join(1, True), engine="kernel")
        assert {len(v) for v in view} == {1}
        assert len(view.tuples) == len(view)

    def test_tq6_self_join(self):
        workload = tpch_like_workload(0.05, violation_ratio=0.2, seed=3)
        constraint = next(c for c in workload.constraints if c.label == "tq6")
        expected = _oracle(workload.instance, constraint)
        assert expected
        _assert_canonical(
            find_violations(workload.instance, constraint, engine="kernel"), expected
        )

    @pytest.mark.parametrize(
        "keys",
        [
            [3, "3", False, "x\x00", 10**20, -4, 25],
            [(1, "a"), (1, "b"), (0, "c")],
            list(range(-150, 150, 3)),  # enough rows for the NumPy ranking
        ],
    )
    def test_snapshot_ref_order_matches_sort_key(self, keys):
        import numpy as np

        arity = len(keys[0]) if isinstance(keys[0], tuple) else 1
        tuples = _keyed_instance(keys, arity).tuples("R")
        snapshot = ColumnarRelation("R", tuples)
        rows = np.arange(len(tuples))[::-1].copy()
        ordered = [tuples[row] for row in snapshot.ref_order(rows).tolist()]
        assert ordered == sorted(tuples, key=lambda t: t.ref.sort_key)


class TestView:
    @pytest.fixture
    def view(self):
        workload = client_buy_workload(60, seed=2)
        view = find_all_violations(workload.instance, workload.constraints)
        assert isinstance(view, ViolationColumns) and len(view) > 3
        return view

    def test_len_and_constraints_build_nothing(self, built_sets):
        workload = client_buy_workload(60, seed=2)
        view = find_all_violations(workload.instance, workload.constraints)
        assert len(view) == view.slots.shape[0]
        assert [c.label for c, _, _ in view.blocks()] == ["ic1", "ic2"]
        assert view.constraint_of(len(view) - 1).label == "ic2"
        assert built_sets["n"] == 0
        view[0]
        view[0]
        assert built_sets["n"] == 1

    def test_equality_hash_repr(self, view):
        materialized = tuple(view)
        assert view == materialized and materialized == view
        assert hash(view) == hash(materialized)
        assert repr(view) == repr(materialized)
        assert view != materialized[1:]
        assert view != list(materialized)

    def test_pickle_round_trip(self, view):
        clone = pickle.loads(pickle.dumps(view))
        assert isinstance(clone, ViolationColumns)
        assert clone == view and tuple(clone) == tuple(view)
        assert clone.origin is None

    def test_slicing_and_negative_index(self, view):
        materialized = tuple(view)
        assert view[1:3] == materialized[1:3]
        assert view[::-2] == materialized[::-2]
        assert view[-1] == materialized[-1]
        with pytest.raises(IndexError):
            view[len(view)]

    def test_cached_sets_and_sorted_order(self, view):
        first = view[0]
        assert view[0] is first
        assert first.sorted_tuples() == tuple(
            sorted(first.tuples, key=lambda t: t.ref.sort_key)
        )

    def test_from_sets_keeps_the_given_objects(self, view):
        materialized = tuple(view)
        converted = ViolationColumns.from_sets(materialized)
        assert converted.tuples == view.tuples
        assert (converted.slots == view.slots).all()
        assert converted[0] is materialized[0]

    def test_empty_view(self):
        workload = client_buy_workload(10, inconsistency_ratio=0.0, seed=1)
        view = find_violations(
            workload.instance, workload.constraints[0], engine="kernel"
        )
        assert len(view) == 0 and view == () and not view


class TestRepairBuildsNoObjects:
    def test_kernel_repair_builds_no_set_and_no_stray_ref(self, built_sets):
        workload = client_buy_workload(2_000, seed=7)
        instance = workload.instance
        assert all(t._ref is None for t in instance.all_tuples())
        result = repair_database(
            instance, workload.constraints, engine="kernel", parallel="serial"
        )
        assert result.changes
        assert built_sets["n"] == 0
        changed = {change.ref for change in result.changes}
        for tup in instance.all_tuples():
            if tup._ref is not None:
                assert tup._ref in changed
        assert sum(t._ref is not None for t in instance.all_tuples()) == len(changed)

    def test_reduction_reads_the_view(self, built_sets):
        workload = client_buy_workload(500, seed=8)
        view = find_all_violations(workload.instance, workload.constraints)
        problem = build_repair_problem(
            workload.instance, workload.constraints, violations=view
        )
        assert problem.violations is view
        assert problem.tuples == view.tuples
        assert built_sets["n"] == 0

    def test_converted_tuple_input_gives_the_same_problem(self):
        workload = client_buy_workload(500, seed=9)
        view = find_all_violations(workload.instance, workload.constraints)
        a = build_repair_problem(workload.instance, workload.constraints, violations=view)
        b = build_repair_problem(
            workload.instance, workload.constraints, violations=tuple(view)
        )
        assert a.tuples == b.tuples
        assert a.set_slots == b.set_slots
        assert a.set_values == b.set_values
        assert a.setcover.weights == b.setcover.weights


def test_module_exports():
    assert columns.ViolationSet is ViolationSet
    from repro.violations.detector import ViolationSet as detector_set

    assert detector_set is ViolationSet


_SEED_SCRIPT = """
import hashlib
from repro import repair_database
from repro.violations.detector import find_all_violations
from repro.workloads import client_buy_workload, random_detection_workload

lines = []
workload = client_buy_workload(400, seed=11)
for engine in ("kernel", "interpreted"):
    result = repair_database(workload.instance, workload.constraints, engine=engine)
    lines.append(repr((result.changes, repr(result.distance), result.cover_weight)))
for seed in range(6):
    shapes = random_detection_workload(seed)
    found = find_all_violations(shapes.instance, shapes.constraints, engine="kernel")
    lines.append(repr([v.sorted_tuples() for v in found]))
print(hashlib.sha256("\\n".join(lines).encode()).hexdigest())
print(lines[0] == lines[1])
"""


def test_results_agree_across_hash_seeds():
    """Frozenset iteration order follows PYTHONHASHSEED; results must not."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(columns.__file__).resolve().parents[2])
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(run.stdout.split())
    assert outputs[0] == outputs[1]
    assert outputs[0][1] == "True"  # kernel and interpreted repairs agree
