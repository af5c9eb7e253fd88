"""Database instances: key-indexed collections of tuples per relation.

A :class:`DatabaseInstance` is the paper's ``D``: a finite collection of
ground atoms over a :class:`~repro.model.schema.Schema`.  The instance
enforces the standing assumption ``D |= K`` (primary keys hold) at insert
time - key violations in the *input* are schema errors, not inconsistencies
handled by the repair algorithms.
"""

from __future__ import annotations

import weakref
from functools import partial
from itertools import compress, count
from operator import attrgetter, is_, is_not, itemgetter
from typing import Any, Iterable, Iterator, Mapping

from repro.exceptions import InstanceError, KeyViolationError
from repro.model.schema import Relation, Schema
from repro.model.tuples import Tuple, TupleRef, _trusted_tuple


#: ``Tuple.values`` read straight off the slot, for C-speed bulk passes.
_values_of = attrgetter("_values")


def _tagged_key(tup: Tuple) -> tuple[tuple[str, str], ...]:
    """A key that orders mixed-type key values: each tagged with its type."""
    return tuple((type(v).__name__, str(v)) for v in tup.key)


def _rows_valid(relation: Relation, rows: list[tuple[Any, ...]]) -> bool:
    """True when every row would pass ``Tuple(relation, row)``.

    One pass per check over the whole column: every row has the
    relation's arity, and every value of a flexible column has a type
    derived from ``int`` (what ``isinstance(value, int)`` accepts, bools
    included).
    """
    if not rows:
        return True
    if set(map(len, rows)) != {relation.arity}:
        return False
    for index, attribute in enumerate(relation.attributes):
        if attribute.is_flexible and not all(
            issubclass(kind, int)
            for kind in set(map(type, map(itemgetter(index), rows)))
        ):
            return False
    return True


class DatabaseInstance:
    """A finite database instance over a schema.

    Tuples are indexed by their primary key per relation, giving O(1)
    lookup of ``t̄(k̄, R, D)`` - the operation the repair construction of
    Definition 3.2 performs for every fix.
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._tables: dict[str, dict[tuple[Any, ...], Tuple]] = {
            r.name: {} for r in schema
        }
        # Per-relation mutation counters.  Derived read-optimized views
        # (the columnar snapshots of :mod:`repro.model.columnar`) key their
        # caches on these, so any insert/replace/delete invalidates exactly
        # the relation it touched.
        self._versions: dict[str, int] = {r.name: 0 for r in schema}
        # A copy's source (weakly) and the source's data versions at copy
        # time: derived views are patched from the source's instead of
        # rebuilt while the source lives unchanged (see :meth:`replaced_rows`).
        self._lineage: (
            tuple["weakref.ref[DatabaseInstance]", dict[str, int]] | None
        ) = None
        # Per-relation canonical key order: (data version, per-key-position
        # type or None for the type-tagged order, keys in order).
        self._orders: dict[
            str, tuple[int, tuple[type, ...] | None, list[tuple[Any, ...]]]
        ] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: (
            Mapping[str, Iterable[Iterable[Any]]]
            | Iterable[tuple[str, Iterable[Iterable[Any]]]]
        ),
    ) -> "DatabaseInstance":
        """Build an instance from ``{relation_name: [row, ...]}`` mappings.

        ``rows`` may also be an iterable of ``(relation_name, rows)``
        pairs.  It is consumed one relation at a time, and each relation
        is validated before the next pair is drawn, so a storage loader
        can pass a generator that reads a table only once every earlier
        table loaded cleanly.

        Each relation is bulk-loaded: one arity check and one type check
        per flexible column over the whole row list, then one
        ``dict(zip(keys, tuples))``.  The result equals a per-row
        :meth:`insert` of the same rows in every respect - table order,
        keys, tuples and their hashes, data versions.  When a check fails
        or keys collide, the relation is replayed row by row through
        ``Tuple(...)`` and :meth:`insert`, which raise the per-row error
        naming the first bad row.
        """
        instance = cls(schema)
        pairs = rows.items() if isinstance(rows, Mapping) else rows
        for relation_name, relation_rows in pairs:
            instance._bulk_insert(schema.relation(relation_name), relation_rows)
        return instance

    def _bulk_insert(
        self, relation: Relation, rows: Iterable[Iterable[Any]]
    ) -> None:
        """Insert many rows of one relation (see :meth:`from_rows`)."""
        name = relation.name
        table = self._table(name)
        # tuple() hands back the very object for rows that already are
        # tuples (sqlite and DuckDB rows): no copy.
        row_list = list(map(tuple, rows))
        if not table and _rows_valid(relation, row_list):
            positions = relation.key_positions
            if len(positions) == 1:
                keys = zip(map(itemgetter(positions[0]), row_list))
            else:
                keys = map(itemgetter(*positions), row_list)
            try:
                bulk = dict(
                    zip(keys, map(partial(_trusted_tuple, relation), row_list))
                )
            except TypeError:
                # An unhashable value: the replay raises it in row order.
                bulk = {}
            if len(bulk) == len(row_list):
                self._tables[name] = bulk
                self._versions[name] += len(row_list)
                return
        for row in row_list:
            self.insert(Tuple(relation, row))

    def insert(self, tup: Tuple) -> None:
        """Insert a tuple; raises :class:`KeyViolationError` on duplicate key."""
        table = self._table(tup.relation.name)
        key = tup.key
        if key in table:
            raise KeyViolationError(
                f"duplicate key {key!r} in relation {tup.relation.name!r}"
            )
        table[key] = tup
        self._versions[tup.relation.name] += 1

    def insert_row(self, relation_name: str, row: Iterable[Any]) -> Tuple:
        """Convenience: build and insert a tuple from raw values."""
        tup = Tuple(self._schema.relation(relation_name), tuple(row))
        self.insert(tup)
        return tup

    # -- lookups -------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema this instance conforms to."""
        return self._schema

    def _table(self, relation_name: str) -> dict[tuple[Any, ...], Tuple]:
        try:
            return self._tables[relation_name]
        except KeyError:
            raise InstanceError(
                f"instance has no relation {relation_name!r}"
            ) from None

    def tuples(self, relation_name: str) -> tuple[Tuple, ...]:
        """All tuples of one relation (insertion order)."""
        return tuple(self._table(relation_name).values())

    def canonical_tuples(self, relation_name: str) -> list[Tuple]:
        """All tuples of one relation in a content-determined key order.

        Keys are unique, so any total order on them works.  When every key
        position holds a single type, all ``int`` or all ``str``, raw key
        order is used: the table's own key tuples are sorted - they equal
        the tuples' keys and order like them - and no key is rebuilt.
        Otherwise each key value is tagged with its type name (the
        :attr:`~repro.model.tuples.TupleRef.sort_key` rendering) and the
        tuples are sorted on that, ties kept in insertion order.  The type
        test reads the tuples' own values, not the table keys: a
        replacement may carry a key equal to its table key but of another
        type (``True`` for ``1``).  No ``TupleRef`` is built.

        The order is cached per data version.  A copy whose relation only
        had rows replaced since (:meth:`replaced_rows`) has its source's
        key set, so it reuses the source's cached raw order after testing
        the key types of the replaced rows alone.
        """
        table = self._table(relation_name)
        version = self._versions[relation_name]
        cached = self._orders.get(relation_name)
        if cached is None or cached[0] != version:
            cached = (version, *self._canonical_order(relation_name))
            self._orders[relation_name] = cached
        return list(map(table.__getitem__, cached[2]))

    def _canonical_order(
        self, relation_name: str
    ) -> tuple[tuple[type, ...] | None, list[tuple[Any, ...]]]:
        """``(key types, keys)`` of :meth:`canonical_tuples`' order.

        ``key types`` holds each key position's one type when the raw key
        order applies, and is ``None`` for the type-tagged order.
        """
        inherited = self._inherited_order(relation_name)
        if inherited is not None:
            return inherited
        table = self._tables[relation_name]
        rows = list(map(_values_of, table.values()))
        types = []
        for position in self._schema.relation(relation_name).key_positions:
            kinds = set(map(type, map(itemgetter(position), rows)))
            if len(kinds) > 1 or not kinds <= {int, str}:
                ordered = sorted(table.items(), key=lambda item: _tagged_key(item[1]))
                return None, list(map(itemgetter(0), ordered))
            types.append(next(iter(kinds), None))
        return tuple(types), sorted(table)

    def _inherited_order(
        self, relation_name: str
    ) -> tuple[tuple[type, ...], list[tuple[Any, ...]]] | None:
        """The copy source's cached raw key order, if it holds here.

        It does when the relation only had rows replaced since the copy
        (so its key set is the source's) and every replaced row's key
        values have the key types the source's order was taken for.
        """
        lineage = self.copy_source(relation_name)
        if lineage is None:
            return None
        source, version = lineage
        cached = source._orders.get(relation_name)
        if cached is None or cached[0] != version or cached[1] is None:
            return None
        rows = self.replaced_rows(relation_name)
        if rows is None:
            return None
        tuples = list(self._tables[relation_name].values())
        positions = self._schema.relation(relation_name).key_positions
        for row in rows:
            values = _values_of(tuples[row])
            for position, kind in zip(positions, cached[1]):
                if type(values[position]) is not kind:
                    return None
        return cached[1], cached[2]

    def all_tuples(self) -> Iterator[Tuple]:
        """Iterate over every tuple of every relation."""
        for table in self._tables.values():
            yield from table.values()

    def get(self, relation_name: str, key: tuple[Any, ...]) -> Tuple:
        """``t̄(k̄, R, D)``: the unique tuple of ``R`` with key ``k̄``."""
        try:
            return self._table(relation_name)[tuple(key)]
        except KeyError:
            raise InstanceError(
                f"no tuple with key {key!r} in relation {relation_name!r}"
            ) from None

    def resolve(self, ref: TupleRef) -> Tuple:
        """Resolve a :class:`TupleRef` in this instance."""
        return self.get(ref.relation_name, ref.key_values)

    def __contains__(self, tup: Tuple) -> bool:
        table = self._tables.get(tup.relation.name)
        if table is None:
            return False
        stored = table.get(tup.key)
        return stored is tup or stored == tup

    def contains_key(self, relation_name: str, key: tuple[Any, ...]) -> bool:
        """True when the relation holds a tuple with the given key."""
        return tuple(key) in self._table(relation_name)

    def count(self, relation_name: str | None = None) -> int:
        """Number of tuples in one relation, or in the whole instance."""
        if relation_name is not None:
            return len(self._table(relation_name))
        return sum(len(t) for t in self._tables.values())

    def __len__(self) -> int:
        return self.count()

    def key_values(self, relation_name: str) -> set[tuple[Any, ...]]:
        """The set ``val(K_R)`` of key-value tuples of a relation."""
        return set(self._table(relation_name))

    def copy_source(
        self, relation_name: str
    ) -> "tuple[DatabaseInstance, int] | None":
        """The instance this one was copied from, while it is unchanged.

        Returns ``(source, version)`` when this instance is a
        :meth:`copy` whose source is alive and holds the relation at the
        data version ``version`` it had at copy time, else ``None``.
        """
        if self._lineage is None:
            return None
        ref, versions = self._lineage
        source = ref()
        version = versions.get(relation_name)
        if source is None or source._versions.get(relation_name) != version:
            return None
        return source, version

    def replaced_rows(self, relation_name: str) -> list[int] | None:
        """Rows of one relation replaced since the copy from its source.

        Returns the indices of the rows whose tuple objects differ from
        the :meth:`copy_source`'s, when the relation holds the source's
        rows in the same order otherwise.  Returns ``None`` when there is
        no copy source or rows were inserted or deleted.  The same key
        objects in the same order (a C-speed identity test) prove the row
        order: a replacement keeps its table key object, an insertion or
        deletion changes the length or a key.
        """
        lineage = self.copy_source(relation_name)
        if lineage is None:
            return None
        if self._versions[relation_name] == 0:
            return []
        mine = self._tables[relation_name]
        theirs = lineage[0]._tables[relation_name]
        if len(mine) != len(theirs) or not all(map(is_, mine, theirs)):
            return None
        return list(compress(count(), map(is_not, mine.values(), theirs.values())))

    def data_version(self, relation_name: str) -> int:
        """Mutation counter of one relation.

        Increments on every insert, replace, and delete touching the
        relation; never decreases.  Cached derived structures (columnar
        snapshots, future index layers) compare it against the version
        they were built at to decide whether a rebuild is due.
        """
        self._table(relation_name)          # validate the name
        return self._versions[relation_name]

    # -- mutation ------------------------------------------------------------

    def replace_tuple(self, new_tuple: Tuple) -> Tuple:
        """Replace the tuple sharing ``new_tuple``'s key; return the old one.

        This is the primitive a repair applies: same relation, same key,
        updated flexible attributes.
        """
        table = self._table(new_tuple.relation.name)
        key = new_tuple.key
        if key not in table:
            raise InstanceError(
                f"cannot replace: no tuple with key {key!r} in "
                f"{new_tuple.relation.name!r}"
            )
        old = table[key]
        table[key] = new_tuple
        self._versions[new_tuple.relation.name] += 1
        return old

    def replace_tuples(
        self, relation_name: str, new_tuples: Iterable[Tuple]
    ) -> list[Tuple]:
        """Bulk :meth:`replace_tuple` within one relation.

        Returns the replaced tuples, in the order of ``new_tuples``.  Every
        key is checked before anything is written, so a missing key raises
        :class:`InstanceError` and leaves the instance untouched.  The data
        version rises by the number of tuples replaced - the value a
        per-tuple :meth:`replace_tuple` loop would leave.
        """
        table = self._table(relation_name)
        new_tuples = list(new_tuples)
        refs = list(map(attrgetter("ref"), new_tuples))
        if set(map(attrgetter("relation_name"), refs)) - {relation_name}:
            raise InstanceError(
                f"cannot replace: a tuple does not belong to {relation_name!r}"
            )
        keys = list(map(attrgetter("key_values"), refs))
        try:
            old_tuples = list(map(table.__getitem__, keys))
        except KeyError as missing:
            raise InstanceError(
                f"cannot replace: no tuple with key {missing.args[0]!r} in "
                f"{relation_name!r}"
            ) from None
        table.update(zip(keys, new_tuples))
        self._versions[relation_name] += len(new_tuples)
        return old_tuples

    def delete(self, relation_name: str, key: tuple[Any, ...]) -> Tuple:
        """Remove and return the tuple with the given key."""
        table = self._table(relation_name)
        try:
            removed = table.pop(tuple(key))
        except KeyError:
            raise InstanceError(
                f"cannot delete: no tuple with key {key!r} in {relation_name!r}"
            ) from None
        self._versions[relation_name] += 1
        return removed

    def copy(self) -> "DatabaseInstance":
        """Shallow copy (tuples are immutable, so sharing them is safe).

        The copy is a fresh object: it does not inherit a pushdown
        backend binding (see :mod:`repro.violations.pushdown`) - copies
        are about to diverge from the backend-resident image.  It records
        its lineage instead: a weak reference to this instance and its
        current data versions, from which :meth:`replaced_rows` tells
        derived views what changed.  No journal is kept, and the copy
        never keeps this instance alive.
        """
        clone = DatabaseInstance(self._schema)
        for name, table in self._tables.items():
            clone._tables[name] = dict(table)
        clone._lineage = (weakref.ref(self), dict(self._versions))
        return clone

    def __getstate__(self) -> dict[str, Any]:
        """Pickle without the pushdown backend binding or derived state.

        The binding (:mod:`repro.violations.pushdown`) holds a weak
        reference to a live database connection, which cannot be pickled,
        so the unpickled instance is simply not backend-resident and
        detection falls back to the in-memory engines.  The lineage (a
        weak reference) and the cached canonical orders stay behind too,
        so the payload holds the content alone.
        """
        state = self.__dict__.copy()
        state.pop("_pushdown_binding", None)
        state.pop("_lineage", None)
        state.pop("_orders", None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lineage = None
        self._orders = {}

    # -- comparison ----------------------------------------------------------

    def same_key_sets(self, other: "DatabaseInstance") -> bool:
        """True when both instances have identical ``val(K_R)`` per relation.

        This is the precondition for the Δ-distance of Definition 2.1 to be
        defined between the two instances.
        """
        if set(self._tables) != set(other._tables):
            return False
        return all(
            set(self._tables[name]) == set(other._tables[name])
            for name in self._tables
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseInstance):
            return NotImplemented
        return self._schema == other._schema and self._tables == other._tables

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}:{len(t)}" for n, t in self._tables.items())
        return f"DatabaseInstance({sizes})"

    # -- display -------------------------------------------------------------

    def to_text(self) -> str:
        """Human-readable dump used by the text-export mode and examples."""
        lines: list[str] = []
        for relation in self._schema:
            table = self._tables[relation.name]
            lines.append(f"-- {relation.name}({', '.join(relation.attribute_names)})")
            for tup in table.values():
                lines.append("   " + ", ".join(str(v) for v in tup.values))
        return "\n".join(lines)
