"""Unit tests for the in-memory backend."""

import pytest

from repro import BackendError, find_all_violations, repair_database
from repro.exceptions import PushdownError
from repro.storage import ExportMode, MemoryBackend


class TestMemoryBackend:
    def test_load_returns_copy(self, paper):
        backend = MemoryBackend(paper.instance)
        loaded = backend.load_instance(paper.schema)
        assert loaded == paper.instance
        loaded.delete("Paper", ("B1",))
        assert backend.instance.contains_key("Paper", ("B1",))

    def test_from_rows(self, paper):
        backend = MemoryBackend.from_rows(
            paper.schema, {"Paper": [("Z9", 0, 10, 0)]}
        )
        assert backend.load_instance(paper.schema).count() == 1

    def test_wrong_schema_rejected(self, paper, deletion_demo):
        backend = MemoryBackend(paper.instance)
        with pytest.raises(BackendError):
            backend.load_instance(deletion_demo.schema)

    def test_find_violations(self, paper):
        """Detection runs on the loaded copy; the memory backend runs no
        SQL, so the pushdown engine refuses its instances."""
        loaded = MemoryBackend(paper.instance).load_instance(paper.schema)
        assert len(find_all_violations(loaded, paper.constraints)) == 3
        with pytest.raises(PushdownError):
            find_all_violations(loaded, paper.constraints, engine="pushdown")

    def test_export_update_replaces_instance(self, paper):
        backend = MemoryBackend(paper.instance)
        result = repair_database(paper.instance, paper.constraints)
        note = backend.export_repair(result, ExportMode.UPDATE)
        assert "updated" in note
        assert backend.instance == result.repaired
        loaded = backend.load_instance(paper.schema)
        assert find_all_violations(loaded, paper.constraints) == ()

    def test_export_insert_records_copy(self, paper):
        backend = MemoryBackend(paper.instance)
        result = repair_database(paper.instance, paper.constraints)
        backend.export_repair(result, ExportMode.INSERT_NEW)
        assert backend.instance == paper.instance        # source untouched
        mode, recorded = backend.exported[-1]
        assert mode is ExportMode.INSERT_NEW
        assert recorded == result.repaired

    def test_export_dump_writes_file(self, paper, tmp_path):
        backend = MemoryBackend(paper.instance)
        result = repair_database(paper.instance, paper.constraints)
        destination = tmp_path / "repair.txt"
        note = backend.export_repair(result, ExportMode.DUMP_TEXT, str(destination))
        assert str(destination) in note
        assert "Paper" in destination.read_text()

    def test_export_dump_needs_destination(self, paper):
        backend = MemoryBackend(paper.instance)
        result = repair_database(paper.instance, paper.constraints)
        with pytest.raises(BackendError):
            backend.export_repair(result, ExportMode.DUMP_TEXT)

    def test_export_mode_from_name(self):
        assert ExportMode.from_name("update") is ExportMode.UPDATE
        assert ExportMode.from_name("insert") is ExportMode.INSERT_NEW
        assert ExportMode.from_name("dump") is ExportMode.DUMP_TEXT
        assert ExportMode.from_name("DUMP_TEXT") is ExportMode.DUMP_TEXT
        with pytest.raises(ValueError):
            ExportMode.from_name("teleport")
