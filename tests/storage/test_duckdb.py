"""DuckDB backend tests.

The driver is the optional ``repro[duckdb]`` extra, so the suite splits
in two: type-inference and gating tests that must run *without* duckdb
installed, and the backend behavior tests that ``importorskip`` it.
"""

import pytest

from repro import BackendError, find_all_violations, parse_denial, repair_database
from repro.exceptions import PushdownError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Attribute, Relation, Schema
from repro.storage import ExportMode, duckdb_available
from repro.storage import duckdb as duckdb_module
from repro.storage.duckdb import DuckDBBackend, _infer_column_type, _type_class
from repro.violations import pushdown_ready
from repro.violations.detector import find_violations
from repro.workloads import client_buy_workload


class TestWithoutDriver:
    """These must pass in environments without the duckdb extra."""

    def test_constructor_raises_when_not_installed(self, monkeypatch):
        monkeypatch.setattr(duckdb_module, "duckdb", None)
        with pytest.raises(BackendError, match=r"repro\[duckdb\]"):
            DuckDBBackend()

    def test_available_flag_tracks_module(self, monkeypatch):
        monkeypatch.setattr(duckdb_module, "duckdb", None)
        assert not duckdb_module.duckdb_available()

    def test_type_classes(self):
        assert _type_class("BIGINT") == "int"
        assert _type_class("UINTEGER") == "int"
        assert _type_class("DOUBLE") == "float"
        assert _type_class("DECIMAL(18,3)") == "float"
        assert _type_class("VARCHAR") == "text"
        assert _type_class("varchar(30)") == "text"
        assert _type_class("BLOB") == "other"

    def test_column_type_inference(self):
        relation = Relation(
            name="R", attributes=(Attribute("a"),), key=("a",)
        )
        infer = lambda values: _infer_column_type(relation, 0, values)
        assert infer([1, 2, None]) == "BIGINT"
        assert infer([1, 2.5]) == "DOUBLE"
        assert infer(["x", "y"]) == "VARCHAR"
        assert infer([]) == "BIGINT"
        assert infer([None]) == "BIGINT"
        with pytest.raises(BackendError, match="mixes"):
            infer([1, "x"])
        with pytest.raises(BackendError, match="mixes"):
            infer([True, 2])


pytestmark_driver = pytest.mark.skipif(
    not duckdb_available(), reason="duckdb not installed (repro[duckdb] extra)"
)


@pytest.fixture
def workload():
    return client_buy_workload(50, inconsistency_ratio=0.4, seed=11)


@pytestmark_driver
class TestBackend:
    def test_round_trip(self, workload):
        with DuckDBBackend.from_instance(workload.instance) as backend:
            assert backend.load_instance(workload.schema) == workload.instance

    def test_find_violations_matches_in_memory(self, workload):
        in_memory = find_all_violations(
            workload.instance, workload.constraints, engine="interpreted"
        )
        with DuckDBBackend.from_instance(workload.instance) as backend:
            from_sql = find_all_violations(
                backend.load_instance(workload.schema),
                workload.constraints,
                engine="pushdown",
            )
        as_labels = lambda vs: {
            (v.constraint.name, frozenset(t.ref for t in v)) for v in vs
        }
        assert as_labels(from_sql) == as_labels(in_memory)

    def test_load_instance_is_pushdown_ready(self, workload):
        with DuckDBBackend.from_instance(workload.instance) as backend:
            loaded = backend.load_instance(workload.schema)
            assert pushdown_ready(loaded)
            pushed = find_all_violations(
                loaded, workload.constraints, engine="pushdown"
            )
            assert pushed == find_all_violations(
                workload.instance, workload.constraints, engine="interpreted"
            )

    def test_write_bumps_generation_and_severs(self, workload):
        with DuckDBBackend.from_instance(workload.instance) as backend:
            loaded = backend.load_instance(workload.schema)
            before = backend.generation
            backend.execute("DELETE FROM Buy WHERE 0 = 1")
            assert backend.generation == before + 1
            assert not pushdown_ready(loaded)
            backend.execute("SELECT COUNT(*) FROM Buy")  # readonly: no bump
            assert backend.generation == before + 1

    def test_repair_and_update_export(self, workload):
        with DuckDBBackend.from_instance(workload.instance) as backend:
            loaded = backend.load_instance(workload.schema)
            result = repair_database(loaded, workload.constraints, engine="pushdown")
            assert result.verified
            backend.export_repair(result, ExportMode.UPDATE)
            reloaded = backend.load_instance(workload.schema)
            assert reloaded == result.repaired

    def test_insert_new_export(self, workload):
        with DuckDBBackend.from_instance(workload.instance) as backend:
            loaded = backend.load_instance(workload.schema)
            result = repair_database(loaded, workload.constraints, engine="pushdown")
            backend.export_repair(result, ExportMode.INSERT_NEW)
            (count,) = backend.execute("SELECT COUNT(*) FROM Client_repaired")[0]
            assert count == workload.instance.count("Client")

    def test_text_column_order_comparison_refused(self):
        schema = Schema(
            [
                Relation(
                    name="Fruit",
                    attributes=(Attribute("id"), Attribute("grade")),
                    key=("id",),
                )
            ]
        )
        instance = DatabaseInstance(schema)
        instance.insert_row("Fruit", (1, "a"))
        instance.insert_row("Fruit", (2, "b"))
        constraint = parse_denial("NOT(Fruit(i, g), g > 5)")
        with DuckDBBackend.from_instance(instance) as backend:
            loaded = backend.load_instance(schema)
            with pytest.raises(PushdownError, match="integral"):
                find_violations(loaded, constraint, engine="pushdown")
            # auto still answers, via the in-memory fallback.
            assert (
                find_violations(loaded, constraint, engine="auto")
                == find_violations(instance, constraint, engine="interpreted")
            )

    def test_null_in_compared_column_refused(self):
        schema = Schema(
            [
                Relation(
                    name="Fruit",
                    attributes=(Attribute("id"), Attribute("w")),
                    key=("id",),
                )
            ]
        )
        instance = DatabaseInstance(schema)
        instance.insert_row("Fruit", (1, 10))
        instance.insert_row("Fruit", (2, None))
        constraint = parse_denial("NOT(Fruit(i, w), Fruit(j, w2), i < j, w = w2)")
        with DuckDBBackend.from_instance(instance) as backend:
            loaded = backend.load_instance(schema)
            with pytest.raises(PushdownError, match="NULL"):
                find_violations(loaded, constraint, engine="pushdown")

    def test_file_persistence(self, workload, tmp_path):
        path = str(tmp_path / "tpch.duckdb")
        DuckDBBackend.from_instance(workload.instance, path).close()
        with DuckDBBackend(path) as reopened:
            assert reopened.load_instance(workload.schema) == workload.instance
