"""Backend protocol shared by the in-memory and sqlite storage layers."""

from __future__ import annotations

import enum
from typing import Protocol, runtime_checkable

from repro.model.instance import DatabaseInstance
from repro.model.schema import Schema
from repro.repair.result import RepairResult


class ExportMode(enum.Enum):
    """How a computed repair leaves the system (Figure 1's export step)."""

    UPDATE = "update"          # update the source tables in place
    INSERT_NEW = "insert"      # write `<table>_repaired` tables
    DUMP_TEXT = "dump"         # write a human-readable text dump

    @classmethod
    def from_name(cls, name: str) -> "ExportMode":
        for member in cls:
            if member.value == name or member.name.lower() == name.lower():
                return member
        raise ValueError(f"unknown export mode {name!r}")


@runtime_checkable
class Backend(Protocol):
    """The database-connectivity seam of the repair program.

    Implementations must be able to load the instance into memory (the
    mapping component operates in main memory, as in the paper) and
    export a repair.  SQL backends also serve the ``pushdown`` detection
    engine (:mod:`repro.violations.pushdown`), which runs the violation
    SQL inside the database for the instances they load.
    """

    def load_instance(self, schema: Schema) -> DatabaseInstance:
        """Load all tuples into an in-memory instance."""
        ...

    def export_repair(
        self,
        result: RepairResult,
        mode: ExportMode,
        destination: str | None = None,
    ) -> str:
        """Persist a repair; returns a description of where it went."""
        ...

    def export_snapshot(
        self,
        instance: DatabaseInstance,
        mode: ExportMode,
        destination: str | None = None,
    ) -> str:
        """Persist a full instance snapshot (deletion-based repairs)."""
        ...
