"""Immutable database tuples and cross-instance tuple references.

A :class:`Tuple` is a ground atom ``R(c̄)`` (Section 2).  Tuples are
immutable: a repair never mutates a tuple in place, it *replaces* it with a
fixed version carrying the same key.  A :class:`TupleRef` names a tuple by
``(relation, key values)`` - the identity that is preserved across the
original instance and all of its repairs (the paper's ``t̄(k̄, R, D)``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterator, Mapping, Sequence

from repro.exceptions import InstanceError
from repro.model.schema import Relation

# Distinct "not computed yet" marker for TupleRef._flat_key, whose computed
# value may legitimately be None.
_UNSET: Any = object()


class Tuple:
    """An immutable tuple of a relation.

    Values are stored positionally (matching ``Relation.attributes``) and
    accessed by attribute name.  Flexible attributes must hold integers
    (the paper's domain for ``F`` is ℤ).
    """

    __slots__ = ("_relation", "_values", "_hash", "_ref", "_row")

    def __init__(self, relation: Relation, values: tuple[Any, ...] | list[Any]) -> None:
        values = tuple(values)
        if len(values) != relation.arity:
            raise InstanceError(
                f"tuple for {relation.name!r} has arity {len(values)}, "
                f"expected {relation.arity}"
            )
        for attribute, value in zip(relation.attributes, values):
            if attribute.is_flexible and not isinstance(value, int):
                raise InstanceError(
                    f"{relation.name}.{attribute.name} is flexible and must be "
                    f"an integer, got {value!r} ({type(value).__name__})"
                )
        self._relation = relation
        self._values = values
        self._hash = hash((relation.name, values))
        self._ref: TupleRef | None = None
        self._row: bytes | None = None

    # -- accessors ----------------------------------------------------------

    @property
    def relation(self) -> Relation:
        """The relation this tuple belongs to."""
        return self._relation

    @property
    def values(self) -> tuple[Any, ...]:
        """Raw values in attribute declaration order."""
        return self._values

    def __getitem__(self, attribute_name: str) -> Any:
        """Value of the attribute called ``attribute_name``."""
        return self._values[self._relation.position(attribute_name)]

    def get(self, attribute_name: str, default: Any = None) -> Any:
        """Like :meth:`__getitem__` but returns ``default`` when missing."""
        if self._relation.has_attribute(attribute_name):
            return self[attribute_name]
        return default

    @property
    def key(self) -> tuple[Any, ...]:
        """Values of the primary-key attributes, in key order."""
        return tuple(self._values[i] for i in self._relation.key_positions)

    @property
    def ref(self) -> "TupleRef":
        """The cross-instance identity of this tuple (cached: both are immutable)."""
        ref = self._ref
        if ref is None:
            ref = self._ref = TupleRef(self._relation.name, self.key)
        return ref

    @property
    def row_bytes(self) -> bytes:
        """The canonical bytes of the row, ``repr(values)`` in UTF-8.

        Content digests (:func:`repro.service.jobs.instance_digest`, the
        artifact cache's violations digest) hash these.  Encoded on first
        use and cached: instance copies share their tuples, so an edited
        copy re-encodes only the rows it replaced.
        """
        row = self._row
        if row is None:
            row = self._row = repr(self._values).encode("utf-8")
        return row

    def as_dict(self) -> dict[str, Any]:
        """Mapping of attribute name -> value."""
        return dict(zip(self._relation.attribute_names, self._values))

    # -- derivation ---------------------------------------------------------

    def replace(self, updates: Mapping[str, Any] | None = None, **kwargs: Any) -> "Tuple":
        """Return a new tuple with some attributes changed.

        Key attributes cannot be changed (the repair identity of a tuple is
        its key); attempting to do so raises :class:`InstanceError`.  Only
        the changed cells are validated - the others were checked when
        this tuple was built - and the key, hence the ref, carries over.
        """
        changes = dict(updates or {})
        changes.update(kwargs)
        if not changes:
            return self
        relation = self._relation
        new_values = list(self._values)
        for name, value in changes.items():
            if relation.is_key_attribute(name):
                raise InstanceError(
                    f"cannot update key attribute {relation.name}.{name}"
                )
            position = relation.position(name)
            if relation.attributes[position].is_flexible and not isinstance(
                value, int
            ):
                raise InstanceError(
                    f"{relation.name}.{name} is flexible and must be "
                    f"an integer, got {value!r} ({type(value).__name__})"
                )
            new_values[position] = value
        return _trusted_tuple(relation, tuple(new_values), self._ref)

    def changed_attributes(self, other: "Tuple") -> tuple[str, ...]:
        """Names of attributes on which ``self`` and ``other`` differ.

        Both tuples must belong to the same relation.
        """
        if other.relation.name != self._relation.name:
            raise InstanceError(
                f"cannot diff tuples of {self._relation.name!r} and "
                f"{other.relation.name!r}"
            )
        return tuple(
            name
            for name, a, b in zip(
                self._relation.attribute_names, self._values, other._values
            )
            if a != b
        )

    # -- protocol -----------------------------------------------------------

    def __getstate__(self) -> tuple:
        # The default slot state minus the row-bytes cache: a pickled tuple
        # is the same size whether or not its row was ever digested.
        return (
            None,
            {
                "_relation": self._relation,
                "_values": self._values,
                "_hash": self._hash,
                "_ref": self._ref,
            },
        )

    def __setstate__(self, state: tuple) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._row = None

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return (
            self._relation.name == other._relation.name
            and self._values == other._values
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self._values)
        return f"{self._relation.name}({inner})"


def _trusted_tuple(
    relation: Relation, values: tuple[Any, ...], ref: "TupleRef | None" = None
) -> Tuple:
    """Build a :class:`Tuple` from values already known to be valid.

    Skips the arity and flexible-type checks of ``Tuple.__init__``: the
    callers (:meth:`Tuple.replace`, the bulk loader of
    :meth:`~repro.model.instance.DatabaseInstance.from_rows`) have checked
    the values themselves.  ``values`` must be a tuple; it is stored as is.
    """
    new = Tuple.__new__(Tuple)
    new._relation = relation
    new._values = values
    new._hash = hash((relation.name, values))
    new._ref = ref
    new._row = None
    return new


_cached_row = attrgetter("_row")


def joined_row_bytes(tuples: Sequence[Tuple]) -> bytes:
    """The :attr:`Tuple.row_bytes` of ``tuples``, concatenated in order.

    Encoded rows are read straight off their slots; only when some row
    is not encoded yet does a second pass encode the missing ones (row
    bytes are never empty, so a falsy slot is an unset one).
    """
    rows = list(map(_cached_row, tuples))
    try:
        return b"".join(rows)
    except TypeError:  # some slots still hold None
        return b"".join(
            [row or tup.row_bytes for row, tup in zip(rows, tuples)]
        )


class TupleRef:
    """Identity of a tuple across database instances: ``(relation, key)``.

    Repairs preserve the set of key values of every relation (Definition
    2.1), so a ``TupleRef`` valid in ``D`` resolves in every repair of ``D``.
    """

    __slots__ = ("relation_name", "key_values", "_hash", "_sort_key", "_flat_key")

    def __init__(self, relation_name: str, key_values: tuple[Any, ...]) -> None:
        self.relation_name = relation_name
        self.key_values = tuple(key_values)
        self._hash = hash((relation_name, self.key_values))
        self._sort_key: tuple | None = None
        self._flat_key: str | None = _UNSET

    def __reduce__(self) -> tuple:
        # Rebuild from the public fields: the cache slots hold a process-local
        # sentinel that must not travel through pickle.
        return (TupleRef, (self.relation_name, self.key_values))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleRef):
            return NotImplemented
        return (
            self.relation_name == other.relation_name
            and self.key_values == other.key_values
        )

    def __lt__(self, other: "TupleRef") -> bool:
        return self.sort_key < other.sort_key

    @property
    def sort_key(self) -> tuple:
        """A total order robust to mixed-type key values.

        Values are tagged with their type name so keys like ``("B1",)`` and
        ``(235,)`` compare deterministically instead of raising TypeError.
        Computed once per ref: ordering passes over large violation sets hit
        this on every comparison.
        """
        key = self._sort_key
        if key is None:
            key = self._sort_key = (
                self.relation_name,
                tuple((type(v).__name__, str(v)) for v in self.key_values),
            )
        return key

    @property
    def flat_sort_key(self) -> str | None:
        """A single string whose ``<`` order equals :attr:`sort_key` order.

        :attr:`sort_key` is a nested tuple of strings; comparing two of them
        walks the structure element by element.  Joining the same components
        with NUL - strictly smaller than every character the components can
        contain - yields a flat string with the identical order (the usual
        separator argument: a component that is a strict prefix of another
        loses at the separator position).  The flattening is also injective,
        because refs with equal relation names render the same shape.  Hot
        ordering passes sort these at C speed instead of walking tuples.

        Returns ``None`` when some component does contain NUL (then no flat
        encoding is safe and callers must compare :attr:`sort_key` itself).
        """
        key = self._flat_key
        if key is _UNSET:
            parts = [self.relation_name]
            for value in self.key_values:
                parts.append(type(value).__name__)
                parts.append(str(value))
            key = None if any("\x00" in p for p in parts) else "\x00".join(parts)
            self._flat_key = key
        return key

    def __repr__(self) -> str:
        keys = ", ".join(repr(v) for v in self.key_values)
        return f"TupleRef({self.relation_name}[{keys}])"
