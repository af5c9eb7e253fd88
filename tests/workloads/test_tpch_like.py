"""The TPC-H-like workload behind the pushdown benchmark."""

import pytest

from repro.violations.detector import find_all_violations, is_consistent
from repro.workloads import tpch_like_schema, tpch_like_workload


class TestSchema:
    def test_shape(self):
        schema = tpch_like_schema()
        names = {relation.name: relation for relation in schema}
        assert set(names) == {"Customer", "Orders", "Lineitem"}
        assert names["Lineitem"].key == ("orderkey", "linenumber")
        assert names["Customer"].key == ("custkey",)


class TestGeneration:
    def test_clean_instance_is_consistent_by_construction(self):
        workload = tpch_like_workload(scale_factor=0.5, seed=4)
        assert is_consistent(workload.instance, workload.constraints)
        assert workload.params["injected_errors"] == 0

    def test_deterministic_given_seed(self):
        a = tpch_like_workload(scale_factor=0.3, violation_ratio=0.02, seed=9)
        b = tpch_like_workload(scale_factor=0.3, violation_ratio=0.02, seed=9)
        assert a.instance == b.instance
        assert a.params == b.params

    def test_different_seeds_differ(self):
        a = tpch_like_workload(scale_factor=0.3, seed=1)
        b = tpch_like_workload(scale_factor=0.3, seed=2)
        assert a.instance != b.instance

    def test_scale_factor_scales_tuples(self):
        small = tpch_like_workload(scale_factor=0.5, seed=3)
        large = tpch_like_workload(scale_factor=2.0, seed=3)
        assert len(large.instance) > 2 * len(small.instance)
        assert large.instance.count("Customer") == 300

    def test_violation_ratio_injects_errors(self):
        workload = tpch_like_workload(
            scale_factor=0.5, violation_ratio=0.05, seed=6
        )
        assert workload.params["injected_errors"] > 0
        violations = find_all_violations(workload.instance, workload.constraints)
        assert violations
        # Injection moves single cells out of range, so each injected
        # error produces at least one violation involving that tuple.
        assert not is_consistent(workload.instance, workload.constraints)

    def test_corruption_builds_refs_only_for_corrupted_tuples(self):
        """``corrupt`` draws per cell but names only the cells it corrupts:
        every other tuple comes out without a cached ``TupleRef``."""
        dirty = tpch_like_workload(2, violation_ratio=0.02, seed=12).instance
        clean = tpch_like_workload(2, seed=12).instance
        corrupted = untouched = 0
        for relation in dirty.schema:
            for tup in dirty.tuples(relation.name):
                if tup.values != clean.get(relation.name, tup.key).values:
                    corrupted += 1
                    continue
                untouched += 1
                assert tup._ref is None, tup
        assert corrupted and untouched

    def test_every_constraint_pushes_down(self):
        """The measure columns are all-integer, so pushdown never refuses
        any of the bundled constraints (the benchmark relies on this)."""
        from repro.storage import SqliteBackend

        workload = tpch_like_workload(scale_factor=0.3, violation_ratio=0.03, seed=8)
        with SqliteBackend.from_instance(workload.instance) as backend:
            loaded = backend.load_instance(workload.schema)
            pushed = find_all_violations(
                loaded, workload.constraints, engine="pushdown"
            )
        assert pushed == find_all_violations(
            workload.instance, workload.constraints, engine="interpreted"
        )
