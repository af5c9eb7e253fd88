"""CSV-directory backend: one ``<relation>.csv`` file per relation.

The lightest way to get real data into the repair program: a directory of
CSV files with header rows matching the schema's attribute names.  Values
of flexible attributes parse as integers (the paper's domain); hard
attributes parse as integers when they look like one, else stay strings.

Export modes mirror the other backends: ``UPDATE`` rewrites the source
files, ``INSERT_NEW`` writes ``<relation>_repaired.csv`` next to them,
``DUMP_TEXT`` writes the plain-text dump.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.exceptions import BackendError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Relation, Schema
from repro.repair.result import RepairResult
from repro.storage.base import ExportMode


def _parse_cell(relation: Relation, attribute_index: int, text: str):
    attribute = relation.attributes[attribute_index]
    if attribute.is_flexible:
        try:
            return int(text)
        except ValueError:
            raise BackendError(
                f"{relation.name}.{attribute.name}: flexible attribute "
                f"needs an integer, got {text!r}"
            )
    try:
        return int(text)
    except ValueError:
        return text


class CsvBackend:
    """Backend over a directory of ``<relation>.csv`` files."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise BackendError(f"{self.directory} is not a directory")

    def _path(self, relation_name: str) -> Path:
        return self.directory / f"{relation_name}.csv"

    # -- Backend protocol --------------------------------------------------------

    def load_instance(self, schema: Schema) -> DatabaseInstance:
        """Read every relation's CSV file; headers must match the schema."""
        return DatabaseInstance.from_rows(
            schema, ((r.name, self._read_rows(schema, r)) for r in schema)
        )

    def _read_rows(self, schema: Schema, relation: Relation) -> list[tuple]:
        """Parse one relation's file into rows of typed cells."""
        path = self._path(relation.name)
        if not path.exists():
            raise BackendError(f"missing CSV file {path}")
        rows: list[tuple] = []
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise BackendError(f"{path} is empty (expected a header)")
            if tuple(header) != relation.attribute_names:
                raise BackendError(
                    f"{path}: header {header} does not match schema "
                    f"attributes {list(relation.attribute_names)}"
                )
            try:
                for line_number, row in enumerate(reader, start=2):
                    if not row:
                        continue
                    if len(row) != relation.arity:
                        raise BackendError(
                            f"{path}:{line_number}: expected {relation.arity} "
                            f"cells, got {len(row)}"
                        )
                    rows.append(
                        tuple(
                            _parse_cell(relation, i, cell)
                            for i, cell in enumerate(row)
                        )
                    )
            except BackendError:
                # A duplicate key on an earlier line is reported first.
                DatabaseInstance.from_rows(schema, {relation.name: rows})
                raise
        return rows

    def export_repair(
        self,
        result: RepairResult,
        mode: ExportMode,
        destination: str | None = None,
    ) -> str:
        """All modes route through the snapshot writer (CSV is row-based)."""
        return self.export_snapshot(result.repaired, mode, destination)

    def export_snapshot(
        self,
        instance: DatabaseInstance,
        mode: ExportMode,
        destination: str | None = None,
    ) -> str:
        """Write the instance back as CSV per the export mode."""
        if mode is ExportMode.DUMP_TEXT:
            if destination is None:
                raise BackendError("DUMP_TEXT export needs a destination path")
            Path(destination).write_text(
                instance.to_text() + "\n", encoding="utf-8"
            )
            return f"dumped to {destination}"

        suffix = "" if mode is ExportMode.UPDATE else "_repaired"
        for relation in instance.schema:
            path = self.directory / f"{relation.name}{suffix}.csv"
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(relation.attribute_names)
                for tup in instance.tuples(relation.name):
                    writer.writerow(tup.values)
        if mode is ExportMode.UPDATE:
            return f"rewrote CSV files in {self.directory}"
        return f"wrote *_repaired.csv files in {self.directory}"

    # -- setup helper ---------------------------------------------------------------

    @classmethod
    def write_instance(
        cls, instance: DatabaseInstance, directory: str | Path
    ) -> "CsvBackend":
        """Materialize an instance as a CSV directory (tests, examples)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        backend = cls(directory)
        backend.export_snapshot(instance, ExportMode.UPDATE)
        return backend
