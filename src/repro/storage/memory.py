"""In-memory backend: wraps a :class:`DatabaseInstance` directly."""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.exceptions import BackendError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Schema
from repro.repair.result import RepairResult
from repro.storage.base import ExportMode


class MemoryBackend:
    """Backend over in-process rows; the default for library use and tests.

    Construct it from an existing instance or from raw rows::

        backend = MemoryBackend.from_rows(schema, {"Client": [...]})
    """

    def __init__(self, instance: DatabaseInstance) -> None:
        self._instance = instance
        self.exported: list[tuple[ExportMode, DatabaseInstance]] = []

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Mapping[str, Iterable[Iterable[Any]]],
    ) -> "MemoryBackend":
        """Build a backend holding the given rows."""
        return cls(DatabaseInstance.from_rows(schema, rows))

    def load_instance(self, schema: Schema) -> DatabaseInstance:
        """Return a copy of the held instance (loads are isolated)."""
        if schema is not self._instance.schema and schema != self._instance.schema:
            raise BackendError(
                "memory backend holds an instance of a different schema"
            )
        return self._instance.copy()

    def export_repair(
        self,
        result: RepairResult,
        mode: ExportMode,
        destination: str | None = None,
    ) -> str:
        """UPDATE replaces the held instance; other modes record/dump."""
        if mode is ExportMode.UPDATE:
            self._instance = result.repaired.copy()
            self.exported.append((mode, self._instance))
            return "updated in-memory instance"
        if mode is ExportMode.INSERT_NEW:
            self.exported.append((mode, result.repaired.copy()))
            return "recorded repaired copy"
        if destination is None:
            raise BackendError("DUMP_TEXT export needs a destination path")
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(result.repaired.to_text() + "\n")
        self.exported.append((mode, result.repaired.copy()))
        return f"dumped to {destination}"

    def export_snapshot(
        self,
        instance: DatabaseInstance,
        mode: ExportMode,
        destination: str | None = None,
    ) -> str:
        """Persist a full instance snapshot (used by deletion repairs)."""
        if mode is ExportMode.UPDATE:
            self._instance = instance.copy()
            self.exported.append((mode, self._instance))
            return "replaced in-memory instance with repaired snapshot"
        if mode is ExportMode.INSERT_NEW:
            self.exported.append((mode, instance.copy()))
            return "recorded repaired snapshot"
        if destination is None:
            raise BackendError("DUMP_TEXT export needs a destination path")
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(instance.to_text() + "\n")
        self.exported.append((mode, instance.copy()))
        return f"dumped to {destination}"

    @property
    def instance(self) -> DatabaseInstance:
        """Direct access to the held instance (for assertions in tests)."""
        return self._instance
