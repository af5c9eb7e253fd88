"""Kernel-engine tests: columnar snapshots, plans, and engine equivalence.

The load-bearing property is byte-identical output: for every constraint
shape and every instance, ``engine="kernel"`` must return exactly what
``engine="interpreted"`` returns - same violation sets, same order, same
covers, same repairs.  The property-based section fuzzes that over the
random Client/Buy workloads of
:func:`repro.workloads.generator.random_detection_workload`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.parser import parse_denial
from repro.exceptions import ConfigError, ConstraintError, KernelError
from repro.model.columnar import ColumnarRelation, kernel_available, store_for
from repro.model.instance import DatabaseInstance
from repro.model.schema import Attribute, Relation, Schema
from repro.repair.engine import repair_database
from repro.violations.detector import (
    find_all_violations,
    find_violations,
    find_violations_involving,
    is_consistent,
    resolve_engine,
)
from repro.workloads import client_buy_workload, random_detection_workload

pytestmark = pytest.mark.skipif(
    not kernel_available(), reason="NumPy not installed (repro[kernel] extra)"
)


def _big_int_instance() -> tuple[DatabaseInstance, "Schema"]:
    """A relation whose flexible column holds ints beyond int64."""
    schema = Schema(
        [
            Relation(
                "R",
                [Attribute.hard("id"), Attribute.flexible("v")],
                key=["id"],
            )
        ]
    )
    instance = DatabaseInstance(schema)
    instance.insert_row("R", (0, 10**30))
    instance.insert_row("R", (1, 3))
    return instance, schema


class TestEngineDispatch:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError) as exc:
            resolve_engine("vectorized")
        assert "auto|kernel|interpreted|pushdown" in str(exc.value)

    def test_auto_resolves_to_kernel_with_numpy(self):
        assert resolve_engine("auto") == "kernel"
        assert resolve_engine("kernel") == "kernel"
        assert resolve_engine("interpreted") == "interpreted"

    def test_kernel_rejects_unsupported_shape(self):
        # an order built-in over a column that does not fit int64 has no
        # vectorized form: explicit kernel requests must say so ...
        instance, _schema = _big_int_instance()
        constraint = parse_denial("NOT(R(id, v), v > 5)")
        with pytest.raises(KernelError):
            find_violations(instance, constraint, engine="kernel")

    def test_auto_falls_back_on_unsupported_shape(self):
        # ... while auto silently falls back to the interpreted engine.
        instance, _schema = _big_int_instance()
        constraint = parse_denial("NOT(R(id, v), v > 5)")
        expected = find_violations(instance, constraint, engine="interpreted")
        assert find_violations(instance, constraint, engine="auto") == expected
        assert len(expected) == 1

    def test_max_violations_valve_matches_interpreted(self):
        workload = client_buy_workload(200, seed=11)
        constraint = workload.constraints[0]
        with pytest.raises(ConstraintError) as interpreted_error:
            find_violations(
                workload.instance, constraint, max_violations=1, engine="interpreted"
            )
        with pytest.raises(ConstraintError) as kernel_error:
            find_violations(
                workload.instance, constraint, max_violations=1, engine="kernel"
            )
        assert str(interpreted_error.value) == str(kernel_error.value)


    @pytest.mark.parametrize("engine", ["kernel", "auto"])
    def test_max_violations_valve_trips_before_building_witnesses(self, engine):
        # A cartesian self-join: 1,500 candidates on each side, ~2.25M
        # assignments.  The valve must refuse it from the match count,
        # before a single witness (or the expanded pair arrays) exists.
        import time
        import tracemalloc

        workload = client_buy_workload(1_500, seed=0)
        constraint = parse_denial(
            "NOT(Client(x, a, c), Client(y, b, d), a < 200, b < 200)"
        )
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(ConstraintError, match="more than 100 violation"):
                find_violations(
                    workload.instance, constraint, max_violations=100, engine=engine
                )
            elapsed = time.perf_counter() - started
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 50 * 1024 * 1024


class TestOrderingFallback:
    def test_nul_in_key_values_falls_back_to_sort_key_order(self):
        # keys without a flat rendering exercise the slow ordering branch;
        # both engines must still agree.
        schema = Schema(
            [
                Relation(
                    "R",
                    [Attribute.hard("id"), Attribute.flexible("v")],
                    key=["id"],
                )
            ]
        )
        instance = DatabaseInstance(schema)
        for i, v in enumerate([5, 1, 9, 3]):
            instance.insert_row("R", (f"k\x00{i}", v))
        constraint = parse_denial("NOT(R(x, v), R(y, w), x != y, v < w)")
        interpreted = find_violations(instance, constraint, engine="interpreted")
        kernel = find_violations(instance, constraint, engine="kernel")
        assert kernel == interpreted
        assert len(interpreted) == 6


class TestColumnarStore:
    def test_snapshot_cached_until_mutation(self):
        workload = client_buy_workload(20, seed=1)
        instance = workload.instance
        store = store_for(instance)
        first = store.relation(instance, "Client")
        assert store.relation(instance, "Client") is first
        instance.insert_row("Client", (999, 30, 10))
        rebuilt = store.relation(instance, "Client")
        assert rebuilt is not first
        assert len(rebuilt) == len(first) + 1

    def test_store_identity_per_instance(self):
        workload = client_buy_workload(5, seed=2)
        instance = workload.instance
        assert store_for(instance) is store_for(instance)
        assert store_for(instance) is not store_for(instance.copy())

    def test_data_version_tracks_every_mutation(self):
        workload = client_buy_workload(5, seed=3)
        instance = workload.instance
        version = instance.data_version("Client")
        buy_version = instance.data_version("Buy")
        tup = instance.insert_row("Client", (777, 40, 5))
        assert instance.data_version("Client") == version + 1
        instance.replace_tuple(tup.replace(a=41))
        assert instance.data_version("Client") == version + 2
        instance.delete("Client", (777,))
        assert instance.data_version("Client") == version + 3
        assert instance.data_version("Buy") == buy_version

    def test_numeric_fast_path_requires_all_ints(self):
        instance, _schema = _big_int_instance()
        snapshot = ColumnarRelation("R", tuple(instance.tuples("R")))
        assert snapshot.numeric(1) is None      # 10**30 overflows int64
        assert snapshot.numeric(0) is not None  # ids fit


class TestSortedTuplesCache:
    def test_cached_and_stable(self):
        workload = client_buy_workload(30, seed=4)
        violations = find_all_violations(workload.instance, workload.constraints)
        assert violations
        v = violations[0]
        first = v.sorted_tuples()
        assert v.sorted_tuples() is first       # cached object, not a re-sort
        assert first == tuple(sorted(v.tuples, key=lambda t: t.ref.sort_key))

    def test_cache_does_not_affect_equality_or_hash(self):
        workload = client_buy_workload(30, seed=4)
        violations = find_all_violations(workload.instance, workload.constraints)
        v = violations[0]
        from repro.violations.detector import ViolationSet

        twin = ViolationSet(v.tuples, v.constraint)
        v.sorted_tuples()                       # populate the cache on one side
        assert v == twin
        assert hash(v) == hash(twin)


class TestEquivalenceProperties:
    """Kernel == interpreted over randomized instances and constraint shapes."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_find_violations_equivalence(self, seed):
        workload = random_detection_workload(seed)
        for constraint in workload.constraints:
            interpreted = find_violations(
                workload.instance, constraint, engine="interpreted"
            )
            kernel = find_violations(workload.instance, constraint, engine="kernel")
            assert kernel == interpreted

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_anchored_equivalence(self, seed):
        workload = random_detection_workload(seed)
        anchors = [
            t
            for i, t in enumerate(workload.instance.all_tuples())
            if i % 3 == 0
        ]
        interpreted = find_violations_involving(
            workload.instance, workload.constraints, anchors, engine="interpreted"
        )
        kernel = find_violations_involving(
            workload.instance, workload.constraints, anchors, engine="kernel"
        )
        assert kernel == interpreted

    @pytest.mark.parametrize(
        "age, text",
        [
            (2**63 - 1, "NOT(Buy(id, i, p), Client(id, a, c), p >= a + 4)"),
            (2**63 - 1, "NOT(Client(i1, a, c), Client(i2, a2, c2), a < a2 - 5)"),
            (-(2**63), "NOT(Buy(id, i, p), Client(id, a, c), p >= a - 4)"),
        ],
        ids=["join-offset-max", "self-join-offset-max", "join-offset-min"],
    )
    def test_offsets_at_the_int64_limits(self, age, text):
        """An offset that would wrap int64 makes the kernel refuse, and
        ``auto`` then agrees with the interpreted engine."""
        workload = random_detection_workload(0, n_clients=12)
        instance = workload.instance
        instance.replace_tuple(instance.get("Client", (0,)).replace(a=age))
        constraint = parse_denial(text)
        interpreted = find_violations(instance, constraint, engine="interpreted")
        assert find_violations(instance, constraint, engine="auto") == interpreted
        with pytest.raises(KernelError):
            find_violations(instance, constraint, engine="kernel")

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_is_consistent_equivalence(self, seed):
        workload = random_detection_workload(seed, n_clients=15)
        assert is_consistent(
            workload.instance, workload.constraints, engine="kernel"
        ) == is_consistent(
            workload.instance, workload.constraints, engine="interpreted"
        )


class TestRepairParity:
    """Identical repairs from both engines across the solver matrix."""

    @pytest.mark.parametrize(
        "algorithm", ["greedy", "modified-greedy", "layer", "modified-layer"]
    )
    @pytest.mark.parametrize("parallel", [None, "auto"])
    def test_approximate_solvers(self, algorithm, parallel):
        workload = client_buy_workload(60, seed=9)
        results = {
            engine: repair_database(
                workload.instance,
                workload.constraints,
                algorithm=algorithm,
                parallel=parallel,
                engine=engine,
            )
            for engine in ("interpreted", "kernel")
        }
        a, b = results["interpreted"], results["kernel"]
        assert a.changes == b.changes
        assert a.cover_weight == b.cover_weight
        assert a.distance == b.distance
        assert a.repaired == b.repaired
        assert b.verified

    def test_exact_solver(self):
        workload = client_buy_workload(8, seed=12)
        a = repair_database(
            workload.instance, workload.constraints, algorithm="exact",
            engine="interpreted",
        )
        b = repair_database(
            workload.instance, workload.constraints, algorithm="exact",
            engine="kernel",
        )
        assert a.changes == b.changes
        assert a.repaired == b.repaired
