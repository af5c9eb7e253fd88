"""Unit tests for the Figure-1 pipeline (RepairProgram)."""

import pytest

from repro import find_all_violations, is_consistent
from repro.storage import SqliteBackend
from repro.system import RepairConfig, RepairProgram
from repro.workloads import client_buy_workload

CLIENT_BUY_SCHEMA = {
    "relations": [
        {
            "name": "Client",
            "key": ["id"],
            "attributes": [
                {"name": "id"},
                {"name": "a", "flexible": True},
                {"name": "c", "flexible": True},
            ],
        },
        {
            "name": "Buy",
            "key": ["id", "i"],
            "attributes": [
                {"name": "id"},
                {"name": "i"},
                {"name": "p", "flexible": True},
            ],
        },
    ]
}
CLIENT_BUY_ICS = [
    "ic1: NOT(Buy(id, i, p), Client(id, a, c), a < 18, p > 25)",
    "ic2: NOT(Client(id, a, c), a < 18, c > 50)",
]


def memory_config(rows, **overrides):
    data = {
        "schema": CLIENT_BUY_SCHEMA,
        "constraints": CLIENT_BUY_ICS,
        "source": {"backend": "memory", "rows": rows},
    }
    data.update(overrides)
    return RepairConfig.from_dict(data)


ROWS = {
    "Client": [[1, 15, 60], [2, 40, 10]],
    "Buy": [[1, 0, 30], [2, 0, 99]],
}


class TestMemoryPipeline:
    def test_run_repairs_and_updates(self):
        program = RepairProgram(memory_config(ROWS))
        report = program.run()
        assert report.result.verified
        assert report.result.violations_before == 2
        assert "updated" in report.export_note
        # UPDATE export: the backend now holds the repaired data.
        repaired = program.backend.load_instance(report.config.schema)
        assert is_consistent(repaired, report.config.constraints)

    def test_dry_run_leaves_backend_untouched(self):
        program = RepairProgram(memory_config(ROWS))
        report = program.run(export=False)
        assert report.export_note == "dry run (no export)"
        loaded = program.backend.load_instance(report.config.schema)
        assert loaded.get("Client", (1,))["c"] == 60      # still dirty

    def test_summary_contains_export_note(self):
        report = RepairProgram(memory_config(ROWS)).run(export=False)
        assert "export" in report.summary()

    def test_algorithm_override(self):
        config = memory_config(ROWS, algorithm="layer")
        report = RepairProgram(config).run(export=False)
        assert report.result.algorithm == "layer"


class TestSqlitePipeline:
    @pytest.fixture
    def sqlite_config(self, tmp_path):
        workload = client_buy_workload(25, inconsistency_ratio=0.5, seed=8)
        path = tmp_path / "pipeline.db"
        SqliteBackend.from_instance(workload.instance, str(path)).close()
        return RepairConfig.from_dict(
            {
                "schema": CLIENT_BUY_SCHEMA,
                "constraints": CLIENT_BUY_ICS,
                "runtime": {"engine": "pushdown"},
                "source": {"backend": "sqlite", "path": str(path)},
                "export": {"mode": "update"},
            }
        )

    def test_end_to_end_sql_detection(self, sqlite_config):
        program = RepairProgram(sqlite_config)
        report = program.run()
        assert report.result.verified
        assert report.result.solver_stats["detection_engine"] == "pushdown"
        with SqliteBackend(sqlite_config.source["path"]) as check:
            assert (
                find_all_violations(
                    check.load_instance(sqlite_config.schema),
                    sqlite_config.constraints,
                    engine="pushdown",
                )
                == ()
            )

    def test_sql_detection_loads_once(self, sqlite_config, monkeypatch):
        loads = []
        original = SqliteBackend.load_instance

        def load_instance(self, schema):
            loads.append(schema)
            return original(self, schema)

        monkeypatch.setattr(SqliteBackend, "load_instance", load_instance)
        report = RepairProgram(sqlite_config).run(export=False)
        assert report.result.verified and report.result.violations_before
        assert len(loads) == 1

    def test_sql_detection_on_loaded_instance_matches_fresh_load(
        self, sqlite_config
    ):
        program = RepairProgram(sqlite_config)
        instance = program.load()
        fresh = program.backend.load_instance(sqlite_config.schema)
        constraints = sqlite_config.constraints
        assert find_all_violations(
            instance, constraints, engine="pushdown"
        ) == find_all_violations(fresh, constraints, engine="pushdown")

    def test_sql_and_memory_detection_agree(self, sqlite_config):
        program = RepairProgram(sqlite_config)
        instance = program.load()
        sql_violations = find_all_violations(
            instance, sqlite_config.constraints, engine="pushdown"
        )
        memory_violations = find_all_violations(
            instance, sqlite_config.constraints, engine="interpreted"
        )
        assert sql_violations == memory_violations


class TestLintPreflight:
    def test_clean_constraints_pass_preflight(self):
        config = memory_config(ROWS, lint={"preflight": True})
        report = RepairProgram(config).run(export=False)
        assert is_consistent(report.result.repaired, config.constraints)

    def test_preflight_blocks_nonlocal_constraints(self):
        from repro import LintError

        config = memory_config(
            ROWS,
            constraints=["ic1: NOT(Client(id, a, c), a = 17)"],
            lint={"preflight": True},
        )
        with pytest.raises(LintError, match="preflight failed") as excinfo:
            RepairProgram(config).run(export=False)
        assert any(d.code == "LINT030" for d in excinfo.value.report)

    def test_warning_gate(self):
        from repro import LintError

        # A subsumed constraint is only a warning: the default error gate
        # lets it through, fail_on=warning blocks it.
        constraints = [
            "ic1: NOT(Client(id, a, c), a < 18, c > 50)",
            "ic2: NOT(Client(id, a, c), a < 10, c > 60)",
        ]
        passing = memory_config(
            ROWS, constraints=constraints, lint={"preflight": True}
        )
        RepairProgram(passing).run(export=False)
        gated = memory_config(
            ROWS,
            constraints=constraints,
            lint={"preflight": True, "fail_on": "warning"},
        )
        with pytest.raises(LintError):
            RepairProgram(gated).run(export=False)

    def test_preflight_off_by_default(self):
        # Non-local constraints without preflight still fail, but with
        # the locality error of the repair engine, not a LintError.
        from repro import LocalityError

        config = memory_config(
            ROWS, constraints=["ic1: NOT(Client(id, a, c), a = 17)"]
        )
        with pytest.raises(LocalityError):
            RepairProgram(config).run(export=False)


class TestEnginePreflight:
    def test_repair_database_preflight_flag(self):
        from repro import LintError, parse_denials
        from repro.repair.engine import repair_database

        workload = client_buy_workload(8, seed=3)
        bad = parse_denials("ic1: NOT(Client(id, a, c), a = 17)")
        with pytest.raises(LintError) as excinfo:
            repair_database(workload.instance, bad, preflight=True)
        assert excinfo.value.report.errors
        # A clean local set passes the preflight and repairs normally.
        result = repair_database(
            workload.instance, workload.constraints, preflight=True
        )
        assert is_consistent(result.repaired, workload.constraints)
