"""sqlite backend: SQL violation views (Algorithm 2) + repair export.

The paper stores data in Oracle 10g and retrieves violation sets by posing
one SQL view per constraint (Example 3.6).  sqlite evaluates the identical
SQL, making this backend a faithful stand-in for the paper's connectivity
component while staying in the standard library.

Identifiers (relation and attribute names) are validated by the schema
layer to be alphanumeric/underscore, so interpolating them into SQL text
is safe; all *values* travel through bound parameters.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Iterable, Sequence

from repro.constraints.denial import DenialConstraint
from repro.constraints.sql import ViolationQuery, violation_query
from repro.exceptions import BackendError, InstanceError, PushdownError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Relation, Schema
from repro.model.tuples import Tuple
from repro.repair.result import RepairResult
from repro.storage.base import ExportMode
from repro.storage.witnesses import stream_witness_sets
from repro.violations.pushdown import (
    BINDING_ATTR,
    bind_backend,
    prescan_columns,
    pushdown_requirements,
    referenced_columns,
    slot_columns,
)


def _column_ddl(relation: Relation) -> str:
    columns = []
    for attribute in relation.attributes:
        type_name = "INTEGER" if attribute.is_flexible else ""
        columns.append(f"{attribute.name} {type_name}".rstrip())
    key = ", ".join(relation.key)
    return ", ".join(columns) + f", PRIMARY KEY ({key})"


class SqliteBackend:
    """Backend over a sqlite database file (or ``:memory:``)."""

    #: First SQL keywords that never modify the database; ``execute`` with
    #: anything else bumps the write generation and severs pushdown bindings.
    _READONLY_KEYWORDS = frozenset({"SELECT", "PRAGMA", "EXPLAIN"})

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._generation = 0
        try:
            self._connection = sqlite3.connect(path)
        except sqlite3.Error as error:
            raise BackendError(f"cannot open sqlite database {path!r}: {error}")

    @property
    def generation(self) -> int:
        """Write counter; instances loaded at an older generation are stale.

        Every mutating operation (DDL, ingestion, repair export, raw
        non-``SELECT`` SQL) increments it, which invalidates the pushdown
        bindings of previously loaded instances
        (:mod:`repro.violations.pushdown`).
        """
        return self._generation

    def _cursor(self) -> sqlite3.Cursor:
        """A cursor, translating closed/broken connections to BackendError."""
        try:
            return self._connection.cursor()
        except sqlite3.Error as error:
            raise BackendError(f"sqlite connection unusable: {error}") from error

    # -- setup -----------------------------------------------------------------

    def create_tables(self, schema: Schema, drop_existing: bool = False) -> None:
        """Create one table per relation (optionally dropping old ones)."""
        cursor = self._cursor()
        for relation in schema:
            if drop_existing:
                cursor.execute(f"DROP TABLE IF EXISTS {relation.name}")
            cursor.execute(
                f"CREATE TABLE IF NOT EXISTS {relation.name} "
                f"({_column_ddl(relation)})"
            )
        self._connection.commit()
        self._generation += 1

    def create_violation_views(
        self,
        schema: Schema,
        constraints: Iterable[DenialConstraint],
        drop_existing: bool = False,
    ) -> tuple[str, ...]:
        """Materialize one ``<ic>_violations`` view per constraint.

        Algorithm 2's literal reading: the constraint is satisfied iff its
        view is empty, so the views double as standing inconsistency
        monitors inside the database.  Returns the view names.
        """
        from repro.constraints.sql import view_name, violation_view_ddl

        cursor = self._cursor()
        names = []
        try:
            for index, constraint in enumerate(constraints, start=1):
                name = view_name(constraint, index)
                if drop_existing:
                    cursor.execute(f"DROP VIEW IF EXISTS {name}")
                cursor.execute(violation_view_ddl(constraint, schema, index))
                names.append(name)
        except sqlite3.Error as error:
            self._connection.rollback()
            raise BackendError(f"creating violation views failed: {error}") from error
        self._connection.commit()
        self._generation += 1
        return tuple(names)

    def write_instance(self, instance: DatabaseInstance) -> None:
        """Insert every tuple of the instance (tables must exist)."""
        cursor = self._cursor()
        try:
            for relation in instance.schema:
                placeholders = ", ".join("?" for _ in relation.attributes)
                sql = f"INSERT INTO {relation.name} VALUES ({placeholders})"
                cursor.executemany(
                    sql, [t.values for t in instance.tuples(relation.name)]
                )
        except sqlite3.Error as error:
            self._connection.rollback()
            raise BackendError(f"insert failed: {error}") from error
        self._connection.commit()
        self._generation += 1

    @classmethod
    def from_instance(
        cls, instance: DatabaseInstance, path: str = ":memory:"
    ) -> "SqliteBackend":
        """Create a database holding ``instance`` (convenience for tests)."""
        backend = cls(path)
        backend.create_tables(instance.schema, drop_existing=True)
        backend.write_instance(instance)
        return backend

    # -- Backend protocol --------------------------------------------------------

    def load_instance(self, schema: Schema) -> DatabaseInstance:
        """Read every table into an in-memory instance.

        The returned instance is *backend-resident*: it carries a pushdown
        binding to this backend, so ``engine="auto"`` detection runs the
        violation SQL in-database until either side is mutated.
        """
        cursor = self._cursor()
        instance = DatabaseInstance.from_rows(
            schema,
            ((r.name, self._fetch_table(cursor, r)) for r in schema),
        )
        bind_backend(instance, self)
        # Seed the executability cache from the rows just read: detection
        # then needs no per-column typeof/NULL scans at all.
        getattr(instance, BINDING_ATTR).cache.update(prescan_columns(instance))
        return instance

    @staticmethod
    def _fetch_table(cursor: sqlite3.Cursor, relation: Relation) -> list[tuple]:
        """Every row of one relation's table, columns in schema order."""
        try:
            return cursor.execute(
                f"SELECT {', '.join(relation.attribute_names)} "
                f"FROM {relation.name}"
            ).fetchall()
        except sqlite3.Error as error:
            raise BackendError(
                f"cannot read table {relation.name!r}: {error}"
            ) from error

    def export_repair(
        self,
        result: RepairResult,
        mode: ExportMode,
        destination: str | None = None,
    ) -> str:
        """Persist the repair per the configured export mode."""
        if mode is ExportMode.UPDATE:
            return self._export_update(result)
        if mode is ExportMode.INSERT_NEW:
            return self._export_insert_new(result)
        if destination is None:
            raise BackendError("DUMP_TEXT export needs a destination path")
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(result.repaired.to_text() + "\n")
        return f"dumped to {destination}"

    # -- export modes ---------------------------------------------------------------

    def _export_update(self, result: RepairResult) -> str:
        cursor = self._cursor()
        updated = 0
        try:
            for change in result.changes:
                relation = result.repaired.schema.relation(change.ref.relation_name)
                key_clause = " AND ".join(f"{k} = ?" for k in relation.key)
                cursor.execute(
                    f"UPDATE {relation.name} SET {change.attribute} = ? "
                    f"WHERE {key_clause}",
                    (change.new_value, *change.ref.key_values),
                )
                updated += cursor.rowcount
        except sqlite3.Error as error:
            self._connection.rollback()
            raise BackendError(f"update export failed: {error}") from error
        self._connection.commit()
        self._generation += 1
        return f"updated {updated} rows in place"

    def _export_insert_new(self, result: RepairResult) -> str:
        cursor = self._cursor()
        schema = result.repaired.schema
        try:
            for relation in schema:
                table = f"{relation.name}_repaired"
                cursor.execute(f"DROP TABLE IF EXISTS {table}")
                cursor.execute(f"CREATE TABLE {table} ({_column_ddl(relation)})")
                placeholders = ", ".join("?" for _ in relation.attributes)
                cursor.executemany(
                    f"INSERT INTO {table} VALUES ({placeholders})",
                    [t.values for t in result.repaired.tuples(relation.name)],
                )
        except sqlite3.Error as error:
            self._connection.rollback()
            raise BackendError(f"insert export failed: {error}") from error
        self._connection.commit()
        self._generation += 1
        return "inserted repaired tables with suffix _repaired"

    def export_snapshot(
        self,
        instance: DatabaseInstance,
        mode: ExportMode,
        destination: str | None = None,
    ) -> str:
        """Persist a full instance snapshot (used by deletion repairs).

        Tuple-deletion repairs shrink relations, which the per-change
        ``UPDATE`` path cannot express; ``UPDATE`` mode therefore rewrites
        each table from the snapshot inside one transaction.
        """
        if mode is ExportMode.UPDATE:
            cursor = self._cursor()
            try:
                for relation in instance.schema:
                    cursor.execute(f"DELETE FROM {relation.name}")
                    placeholders = ", ".join("?" for _ in relation.attributes)
                    cursor.executemany(
                        f"INSERT INTO {relation.name} VALUES ({placeholders})",
                        [t.values for t in instance.tuples(relation.name)],
                    )
            except sqlite3.Error as error:
                self._connection.rollback()
                raise BackendError(f"snapshot export failed: {error}") from error
            self._connection.commit()
            self._generation += 1
            return "rewrote tables from repaired snapshot"
        if mode is ExportMode.INSERT_NEW:
            cursor = self._cursor()
            try:
                for relation in instance.schema:
                    table = f"{relation.name}_repaired"
                    cursor.execute(f"DROP TABLE IF EXISTS {table}")
                    cursor.execute(
                        f"CREATE TABLE {table} ({_column_ddl(relation)})"
                    )
                    placeholders = ", ".join("?" for _ in relation.attributes)
                    cursor.executemany(
                        f"INSERT INTO {table} VALUES ({placeholders})",
                        [t.values for t in instance.tuples(relation.name)],
                    )
            except sqlite3.Error as error:
                self._connection.rollback()
                raise BackendError(f"snapshot export failed: {error}") from error
            self._connection.commit()
            self._generation += 1
            return "inserted repaired tables with suffix _repaired"
        if destination is None:
            raise BackendError("DUMP_TEXT export needs a destination path")
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(instance.to_text() + "\n")
        return f"dumped to {destination}"

    # -- pushdown detection -----------------------------------------------------------

    def _column_is_clean(
        self,
        cursor: sqlite3.Cursor,
        schema: Schema,
        kind: str,
        relation_name: str,
        attribute_name: str,
        cache: dict[Any, bool],
    ) -> bool:
        """Cached per-column verdict: ``kind`` is ``"int"`` or ``"null"``.

        ``"int"`` asks whether every stored value has sqlite type class
        INTEGER (``typeof(NULL)`` is ``'null'``, so NULLs fail this too);
        ``"null"`` asks whether the column is NULL-free.  The first miss
        for a relation scans *all* of its columns for both kinds in one
        aggregate pass - one table scan per relation per binding instead
        of one per (constraint, column) - and fills the cache wholesale.
        """
        key = (kind, relation_name, attribute_name)
        if key in cache:
            return cache[key]
        relation = schema.relation(relation_name)
        parts = []
        for attribute in relation.attributes:
            parts.append(f"MAX(typeof({attribute.name}) <> 'integer')")
            parts.append(f"MAX({attribute.name} IS NULL)")
        row = cursor.execute(
            f"SELECT {', '.join(parts)} FROM {relation_name}"
        ).fetchone()
        for index, attribute in enumerate(relation.attributes):
            # MAX over an empty table yields NULL: vacuously clean.
            cache[("int", relation_name, attribute.name)] = not row[2 * index]
            cache[("null", relation_name, attribute.name)] = not row[2 * index + 1]
        return cache[key]

    def _check_pushdown_executable(
        self,
        cursor: sqlite3.Cursor,
        schema: Schema,
        constraint: DenialConstraint,
        cache: dict[Any, bool] | None,
    ) -> None:
        """Refuse data shapes where sqlite semantics diverge from Python.

        Order comparisons and offset arithmetic need all-integer columns
        (sqlite orders text above numbers and coerces text ``+`` operands
        to 0 where Python raises ``TypeError``); every compared column
        must be NULL-free (SQL NULLs never join, Python ``None == None``
        is true).  Raises :class:`PushdownError` naming the first
        offending column.
        """
        if cache is None:
            cache = {}
        required = slot_columns(
            constraint, schema, pushdown_requirements(constraint)
        )
        for relation_name, attribute_name in sorted(required):
            if not self._column_is_clean(
                cursor, schema, "int", relation_name, attribute_name, cache
            ):
                raise PushdownError(
                    f"{constraint.label}: column "
                    f"{relation_name}.{attribute_name} holds non-integer "
                    "data, where sqlite order/offset comparison semantics "
                    "diverge from Python's"
                )
        for relation_name, attribute_name in sorted(
            referenced_columns(constraint, schema)
        ):
            if not self._column_is_clean(
                cursor, schema, "null", relation_name, attribute_name, cache
            ):
                raise PushdownError(
                    f"{constraint.label}: column "
                    f"{relation_name}.{attribute_name} holds NULLs, which "
                    "never satisfy SQL comparisons but compare equal as "
                    "Python None"
                )

    def _pushdown_cursor(
        self,
        constraint: DenialConstraint,
        schema: Schema,
        cache: dict[Any, bool] | None,
    ) -> tuple[sqlite3.Cursor, ViolationQuery]:
        """Validate executability and compile the violation query."""
        compiled = violation_query(constraint, schema)
        cursor = self._cursor()
        try:
            self._check_pushdown_executable(cursor, schema, constraint, cache)
        except sqlite3.Error as error:
            raise PushdownError(
                f"{constraint.label}: pushdown pre-check failed: {error}"
            ) from error
        return cursor, compiled

    def pushdown_witnesses(
        self,
        instance: DatabaseInstance,
        constraint: DenialConstraint,
        max_violations: int | None = None,
        cache: dict[Any, bool] | None = None,
    ) -> set[frozenset[Tuple]]:
        """Witness tuple sets of one constraint, computed in-database.

        The pushdown-engine entry point (see
        :mod:`repro.violations.pushdown`): executes the compiled violation
        SQL and streams the key rows back, resolved against the bound
        in-memory image.  Raises :class:`PushdownError` when the resident
        data is not faithfully executable in sqlite;
        :class:`~repro.exceptions.ConstraintError` when ``max_violations``
        trips (identical contract and message as the in-memory engines).
        """
        cursor, compiled = self._pushdown_cursor(constraint, instance.schema, cache)
        try:
            cursor.execute(compiled.sql)
            return stream_witness_sets(
                cursor.fetchmany,
                compiled,
                instance,
                max_violations=max_violations,
            )
        except sqlite3.Error as error:
            raise PushdownError(
                f"{constraint.label}: violation query failed: "
                f"{compiled.sql!r}: {error}"
            ) from error
        except InstanceError as error:
            raise PushdownError(
                f"{constraint.label}: backend rows diverged from the bound "
                f"instance: {error}"
            ) from error

    def pushdown_has_witness(
        self,
        instance: DatabaseInstance,
        constraint: DenialConstraint,
        cache: dict[Any, bool] | None = None,
    ) -> bool:
        """``LIMIT 1`` probe: does the constraint have any witness?"""
        cursor, compiled = self._pushdown_cursor(constraint, instance.schema, cache)
        try:
            return bool(cursor.execute(compiled.sql + " LIMIT 1").fetchall())
        except sqlite3.Error as error:
            raise PushdownError(
                f"{constraint.label}: violation query failed: "
                f"{compiled.sql!r}: {error}"
            ) from error

    # -- misc -------------------------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> list[tuple]:
        """Run raw SQL (diagnostics, tests).

        Anything that is not a plain ``SELECT``/``PRAGMA``/``EXPLAIN``
        counts as a write and severs pushdown bindings of previously
        loaded instances.
        """
        try:
            rows = self._connection.execute(sql, parameters).fetchall()
        except sqlite3.Error as error:
            raise BackendError(f"query failed: {sql!r}: {error}") from error
        first_word = sql.lstrip().split(None, 1)[0].upper() if sql.strip() else ""
        if first_word not in self._READONLY_KEYWORDS:
            self._connection.commit()
            self._generation += 1
        return rows

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
