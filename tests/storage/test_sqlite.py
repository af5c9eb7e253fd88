"""Unit tests for the sqlite backend (Algorithm 2's SQL views + exports).

In-database detection is the ``pushdown`` engine over an instance the
backend loaded: ``find_all_violations(loaded, ..., engine="pushdown")``.
"""

import pytest

from repro import BackendError, find_all_violations, repair_database
from repro.storage import ExportMode, SqliteBackend
from repro.workloads import client_buy_workload


@pytest.fixture
def backend(paper_pub):
    with SqliteBackend.from_instance(paper_pub.instance) as backend:
        yield backend


class TestRoundTrip:
    def test_load_matches_source(self, paper_pub, backend):
        loaded = backend.load_instance(paper_pub.schema)
        assert loaded == paper_pub.instance

    def test_file_persistence(self, paper, tmp_path):
        path = tmp_path / "papers.db"
        SqliteBackend.from_instance(paper.instance, str(path)).close()
        with SqliteBackend(str(path)) as reopened:
            assert reopened.load_instance(paper.schema) == paper.instance

    def test_create_tables_idempotent(self, paper):
        backend = SqliteBackend()
        backend.create_tables(paper.schema)
        backend.create_tables(paper.schema)          # IF NOT EXISTS
        backend.write_instance(paper.instance)
        assert backend.load_instance(paper.schema).count() == 3

    def test_primary_key_enforced(self, paper, backend):
        with pytest.raises(BackendError):
            backend.write_instance(paper.instance)   # duplicate keys

    def test_missing_table_raises(self, paper):
        backend = SqliteBackend()
        with pytest.raises(BackendError):
            backend.load_instance(paper.schema)


class TestSqlViolationDetection:
    def test_matches_in_memory_detector(self, paper_pub, backend):
        from_sql = find_all_violations(
            backend.load_instance(paper_pub.schema),
            paper_pub.constraints,
            engine="pushdown",
        )
        in_memory = find_all_violations(paper_pub.instance, paper_pub.constraints)
        assert len(from_sql) == len(in_memory) == 4
        as_labels = lambda vs: {
            (v.constraint.name, frozenset(t.ref for t in v)) for v in vs
        }
        assert as_labels(from_sql) == as_labels(in_memory)

    def test_matches_on_random_workload(self):
        workload = client_buy_workload(30, inconsistency_ratio=0.5, seed=4)
        with SqliteBackend.from_instance(workload.instance) as backend:
            from_sql = find_all_violations(
                backend.load_instance(workload.schema),
                workload.constraints,
                engine="pushdown",
            )
        in_memory = find_all_violations(workload.instance, workload.constraints)
        as_labels = lambda vs: {
            (v.constraint.name, frozenset(t.ref for t in v)) for v in vs
        }
        assert as_labels(from_sql) == as_labels(in_memory)

    def test_consistent_database_empty(self, paper):
        from repro import DatabaseInstance

        consistent = DatabaseInstance.from_rows(
            paper.schema, {"Paper": [("E3", 1, 70, 1)]}
        )
        with SqliteBackend.from_instance(consistent) as backend:
            loaded = backend.load_instance(paper.schema)
            assert (
                find_all_violations(loaded, paper.constraints, engine="pushdown")
                == ()
            )


class TestExports:
    def test_update_in_place(self, paper_pub, backend):
        result = repair_database(paper_pub.instance, paper_pub.constraints)
        note = backend.export_repair(result, ExportMode.UPDATE)
        assert "rows in place" in note
        loaded = backend.load_instance(paper_pub.schema)
        assert loaded == result.repaired
        assert (
            find_all_violations(loaded, paper_pub.constraints, engine="pushdown")
            == ()
        )

    def test_insert_new_tables(self, paper_pub, backend):
        result = repair_database(paper_pub.instance, paper_pub.constraints)
        backend.export_repair(result, ExportMode.INSERT_NEW)
        # source tables untouched, *_repaired tables hold the repair.
        assert backend.load_instance(paper_pub.schema) == paper_pub.instance
        rows = backend.execute("SELECT id, ef, prc, cf FROM Paper_repaired")
        repaired = {tuple(r) for r in rows}
        expected = {t.values for t in result.repaired.tuples("Paper")}
        assert repaired == expected

    def test_dump_text(self, paper_pub, backend, tmp_path):
        result = repair_database(paper_pub.instance, paper_pub.constraints)
        destination = tmp_path / "dump.txt"
        backend.export_repair(result, ExportMode.DUMP_TEXT, str(destination))
        content = destination.read_text()
        assert "Paper" in content and "Pub" in content

    def test_dump_needs_destination(self, paper_pub, backend):
        result = repair_database(paper_pub.instance, paper_pub.constraints)
        with pytest.raises(BackendError):
            backend.export_repair(result, ExportMode.DUMP_TEXT)

    def test_raw_execute_guard(self, backend):
        with pytest.raises(BackendError):
            backend.execute("SELECT * FROM missing_table")


@pytest.fixture
def client_buy_schema():
    from repro import Attribute, Relation, Schema

    return Schema(
        [
            Relation(
                "Client",
                [Attribute.hard("id"), Attribute.flexible("a")],
                key=["id"],
            ),
            Relation(
                "Buy",
                [Attribute.hard("id"), Attribute.hard("i"), Attribute.flexible("p")],
                key=["id", "i"],
            ),
        ]
    )


def _stored(schema, rows):
    """A sqlite backend whose tables hold ``rows`` exactly as given.

    The rows go in through raw SQL, so sqlite's dynamic typing keeps
    text in INTEGER columns and NULLs in non-INTEGER primary keys.
    """
    backend = SqliteBackend()
    backend.create_tables(schema)
    for name, relation_rows in rows.items():
        for row in relation_rows:
            placeholders = ", ".join("?" for _ in row)
            backend.execute(f"INSERT INTO {name} VALUES ({placeholders})", row)
    return backend


class TestHostileStoredData:
    """Loading bad stored data raises the same error, naming the same row."""

    @pytest.mark.parametrize(
        "value, shown",
        [("abc", "'abc' (str)"), (None, "None (NoneType)"), (1.5, "1.5 (float)")],
    )
    def test_non_integer_flexible_cell(self, client_buy_schema, value, shown):
        from repro import InstanceError

        backend = _stored(
            client_buy_schema,
            {"Client": [(1, 5)], "Buy": [(1, 0, 3), (1, 1, value), (1, 2, "zzz")]},
        )
        with pytest.raises(InstanceError) as caught:
            backend.load_instance(client_buy_schema)
        assert type(caught.value) is InstanceError
        assert str(caught.value) == (
            f"Buy.p is flexible and must be an integer, got {shown}"
        )

    def test_duplicate_null_keys(self, client_buy_schema):
        from repro import KeyViolationError

        backend = _stored(
            client_buy_schema, {"Client": [(1, 5), (None, 6), (None, 7)]}
        )
        with pytest.raises(KeyViolationError) as caught:
            backend.load_instance(client_buy_schema)
        assert str(caught.value) == "duplicate key (None,) in relation 'Client'"

    def test_bad_cell_after_null_key_is_reported_first(self, client_buy_schema):
        from repro import InstanceError

        backend = _stored(client_buy_schema, {"Client": [(None, 6), (None, "x")]})
        with pytest.raises(InstanceError) as caught:
            backend.load_instance(client_buy_schema)
        assert type(caught.value) is InstanceError
        assert "got 'x' (str)" in str(caught.value)

    def test_text_key_beside_integer_key_is_distinct(self, client_buy_schema):
        backend = _stored(client_buy_schema, {"Client": [(1, 5), ("1", 6)]})
        loaded = backend.load_instance(client_buy_schema)
        assert loaded.count("Client") == 2
        assert loaded.get("Client", (1,))["a"] == 5
        assert loaded.get("Client", ("1",))["a"] == 6
        assert [t.key for t in loaded.tuples("Client")] == [(1,), ("1",)]

    def test_relations_are_read_one_at_a_time(self, client_buy_schema):
        from repro import InstanceError

        backend = _stored(client_buy_schema, {"Client": [(1, "bad")]})
        backend.execute("DROP TABLE Buy")
        # Client is validated before the missing Buy table is read ...
        with pytest.raises(InstanceError, match="Client.a is flexible"):
            backend.load_instance(client_buy_schema)
        # ... and once Client is clean, the missing table surfaces.
        backend.execute("UPDATE Client SET a = 1")
        with pytest.raises(BackendError, match="cannot read table 'Buy'"):
            backend.load_instance(client_buy_schema)
