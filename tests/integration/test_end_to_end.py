"""Integration tests: full library flows across modules and backends."""

import pytest

from repro import (
    cardinality_repair,
    database_delta,
    find_all_violations,
    inconsistency_profile,
    is_consistent,
    repair_database,
)
from repro.analysis import compare_algorithms
from repro.repair import build_repair_problem
from repro.storage import ExportMode, SqliteBackend
from repro.workloads import census_workload, client_buy_workload

ALGORITHMS = ("greedy", "modified-greedy", "layer", "modified-layer")


class TestWorkloadRepairs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clientbuy_all_algorithms_agree_on_consistency(self, seed):
        workload = client_buy_workload(60, inconsistency_ratio=0.4, seed=seed)
        for algorithm in ALGORITHMS:
            result = repair_database(
                workload.instance, workload.constraints, algorithm=algorithm
            )
            assert result.verified
            assert result.distance == pytest.approx(
                database_delta(workload.instance, result.repaired)
            )

    def test_greedy_not_worse_than_layer_across_seeds(self):
        """Figure 2's headline: greedy approximates better in practice."""
        greedy_total = layer_total = 0.0
        for seed in range(5):
            workload = client_buy_workload(80, inconsistency_ratio=0.4, seed=seed)
            problem = build_repair_problem(workload.instance, workload.constraints)
            comparison = compare_algorithms(problem)
            greedy_total += comparison.weight("greedy")
            layer_total += comparison.weight("layer")
        assert greedy_total <= layer_total + 1e-9

    def test_census_profile_then_repair_then_reprofile(self):
        workload = census_workload(60, household_size=3, dirty_ratio=0.4, seed=1)
        before = inconsistency_profile(workload.instance, workload.constraints)
        assert not before.is_consistent
        result = repair_database(workload.instance, workload.constraints)
        after = inconsistency_profile(result.repaired, workload.constraints)
        assert after.is_consistent
        assert after.total_tuples == before.total_tuples


class TestSqliteRoundTrips:
    def test_repair_export_reload_cycle(self, tmp_path):
        workload = client_buy_workload(40, inconsistency_ratio=0.5, seed=3)
        path = str(tmp_path / "cycle.db")
        SqliteBackend.from_instance(workload.instance, path).close()

        with SqliteBackend(path) as backend:
            instance = backend.load_instance(workload.schema)
            violations = find_all_violations(
                instance, workload.constraints, engine="pushdown"
            )
            result = repair_database(
                instance, workload.constraints, violations=violations
            )
            backend.export_repair(result, ExportMode.UPDATE)

        with SqliteBackend(path) as backend:
            reloaded = backend.load_instance(workload.schema)
            assert reloaded == result.repaired
            assert is_consistent(reloaded, workload.constraints)

    def test_insert_new_keeps_original_dirty(self, tmp_path):
        workload = client_buy_workload(20, inconsistency_ratio=0.6, seed=4)
        path = str(tmp_path / "audit.db")
        SqliteBackend.from_instance(workload.instance, path).close()
        with SqliteBackend(path) as backend:
            result = repair_database(
                backend.load_instance(workload.schema), workload.constraints
            )
            backend.export_repair(result, ExportMode.INSERT_NEW)
            original = backend.load_instance(workload.schema)
            assert original == workload.instance
            repaired_rows = backend.execute("SELECT id, a, c FROM Client_repaired")
            assert len(repaired_rows) == workload.instance.count("Client")


class TestCardinalityIntegration:
    def test_deletion_vs_update_tradeoff(self):
        workload = client_buy_workload(30, inconsistency_ratio=0.5, seed=5)
        update_result = repair_database(workload.instance, workload.constraints)
        delete_result = cardinality_repair(workload.instance, workload.constraints)
        assert is_consistent(update_result.repaired, workload.constraints)
        assert is_consistent(delete_result.repaired, workload.constraints)
        # deletions remove at most the inconsistent tuples.
        profile = inconsistency_profile(workload.instance, workload.constraints)
        assert delete_result.deletions <= profile.inconsistent_tuples

    def test_update_repair_preserves_all_tuples(self):
        workload = client_buy_workload(30, inconsistency_ratio=0.5, seed=6)
        result = repair_database(workload.instance, workload.constraints)
        assert len(result.repaired) == len(workload.instance)
