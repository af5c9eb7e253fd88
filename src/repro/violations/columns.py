"""Violation sets, and the columnar view the kernel engine hands them over in.

A :class:`ViolationSet` is one element of ``I(D, IC)``.  The kernel
engine finds thousands of them per constraint as NumPy row arrays, and
the reduction (:mod:`repro.repair.builder`) wants them as tuple slots -
building a ``frozenset`` and a ``ViolationSet`` per witness in between
only feeds the garbage collector.  :class:`ViolationColumns` is the
handoff instead: the distinct member tuples in canonical ref order, and
one row of member slots per violation set.  It is a
``Sequence[ViolationSet]`` that builds (and caches) a set only when it is
indexed or iterated, and compares, hashes, prints and pickles like
``tuple(view)``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence, overload

from repro.constraints.denial import DenialConstraint
from repro.model.columnar import require_numpy
from repro.model.tuples import Tuple

if TYPE_CHECKING:  # pragma: no cover
    import numpy

    from repro.model.columnar import ColumnarRelation

#: Per relation in name order: its snapshot and the snapshot rows, ranked.
Origin = tuple[tuple["ColumnarRelation", "numpy.ndarray"], ...]


@dataclass(frozen=True)
class ViolationSet:
    """One element of ``I(D, IC)``: a minimal violating tuple set + its ic.

    Violation sets are the universe elements of the set-cover reduction
    (Definition 3.1(a)), which pairs each tuple set with the constraint it
    violates - ``({t₁}, ic₁)`` and ``({t₁}, ic₂)`` are *distinct* elements.
    """

    tuples: frozenset[Tuple]
    constraint: DenialConstraint

    def __contains__(self, tup: Tuple) -> bool:
        return tup in self.tuples

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.tuples)

    def sorted_tuples(self) -> tuple[Tuple, ...]:
        """Tuples in a deterministic order (for stable output).

        The order is computed once and cached on the instance - repair
        tracing and greedy scoring call this repeatedly on the same
        (frozen, hence immutable) violation set; a :class:`ViolationColumns`
        view fills the cache from its slot row when it builds the set.
        The cache is not a dataclass field, so equality, hashing, and
        pickling are unaffected.
        """
        cached = self.__dict__.get("_sorted_cache")
        if cached is None:
            cached = tuple(
                sorted(self.tuples, key=lambda t: t.ref.sort_key)
            )
            object.__setattr__(self, "_sorted_cache", cached)
        return cached

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.sorted_tuples())
        return f"ViolationSet({{{inner}}}, {self.constraint.label})"


class ViolationColumns(Sequence[ViolationSet]):
    """``I(D, IC)`` as a slot matrix: a lazy ``Sequence[ViolationSet]``.

    * ``tuples`` - the distinct member tuples, in canonical ref order
      (:attr:`~repro.model.tuples.TupleRef.sort_key` order), so a slot is
      also a rank;
    * ``slots`` - an int64 matrix with one row per violation set: its
      member slots ascending, padded with ``-1`` on the right;
    * ``constraints`` / ``bounds`` - rows ``bounds[b]:bounds[b + 1]``
      violate ``constraints[b]`` (one block per constraint, in order).

    Element ``i`` is built on first access and cached, with its
    ``sorted_tuples`` order read off the slot row.  ``==``, ``hash``,
    ``repr`` and pickling agree with ``tuple(view)`` (a pickle ships the
    columns, not the built sets).
    """

    __slots__ = ("tuples", "slots", "constraints", "bounds", "origin", "_sets")

    def __init__(
        self,
        tuples: Sequence[Tuple],
        slots: "numpy.ndarray",
        constraints: Sequence[DenialConstraint],
        bounds: Sequence[int],
        origin: "Origin | None" = None,
    ) -> None:
        self.tuples = tuple(tuples)
        self.slots = slots
        self.constraints = tuple(constraints)
        self.bounds = tuple(bounds)
        #: Where ``tuples`` came from, when the kernel built the view: per
        #: relation in name order, its snapshot and the ranked rows.  Not
        #: pickled; :func:`concat_violations` merges views sharing
        #: snapshots through it without touching a tuple.
        self.origin = origin
        self._sets: list[ViolationSet | None] | None = None

    @classmethod
    def from_sets(cls, violations: Sequence[ViolationSet]) -> "ViolationColumns":
        """The view of plain violation sets, which it keeps as its cache."""
        np = require_numpy()
        tuples, rows, constraints, bounds = slot_form(violations)
        width = max(map(len, rows), default=0)
        slots = np.full((len(rows), width), -1, dtype=np.int64)
        for index, row in enumerate(rows):
            slots[index, : len(row)] = sorted(row)
        view = cls(tuples, slots, constraints, bounds)
        view._sets = list(violations)
        return view

    def __len__(self) -> int:
        return len(self.slots)

    @overload
    def __getitem__(self, index: int) -> ViolationSet: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[ViolationSet, ...]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self))[index])
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("violation index out of range")
        sets = self._sets
        if sets is None:
            sets = self._sets = [None] * len(self)
        built = sets[index]
        if built is None:
            tuples = self.tuples
            members = tuple(tuples[slot] for slot in self.slots[index].tolist() if slot >= 0)
            built = ViolationSet(frozenset(members), self.constraint_of(index))
            object.__setattr__(built, "_sorted_cache", members)
            sets[index] = built
        return built

    def __iter__(self) -> Iterator[ViolationSet]:
        for index in range(len(self)):
            yield self[index]

    def constraint_of(self, index: int) -> DenialConstraint:
        """The constraint violation set ``index`` violates."""
        return self.constraints[bisect_right(self.bounds, index) - 1]

    def blocks(self) -> Iterator[tuple[DenialConstraint, int, int]]:
        """``(constraint, start, stop)`` row ranges, in row order."""
        for block, constraint in enumerate(self.constraints):
            yield constraint, self.bounds[block], self.bounds[block + 1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ViolationColumns):
            return self is other or tuple(self) == tuple(other)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self) -> tuple:
        return (
            ViolationColumns,
            (self.tuples, self.slots, self.constraints, self.bounds),
        )


def _ref_order(tuples: Sequence[Tuple]) -> list[int]:
    """Indices of ``tuples`` in ref order, through their cached ``TupleRef``\\ s.

    Plain violation sets come from engines and callers that already keyed
    their tuples by ref (the frozenset funnel orders by
    :attr:`~repro.model.tuples.TupleRef.flat_sort_key`), and streaming
    rounds see the same tuples' refs again and again; ordering by the
    cached keys is the cheap way here.  Ties keep input order.
    """
    keys: list = [tup.ref.flat_sort_key for tup in tuples]
    if None in keys:
        keys = [tup.ref.sort_key for tup in tuples]
    return sorted(range(len(tuples)), key=keys.__getitem__)


def slot_form(
    violations: Sequence[ViolationSet],
) -> tuple[tuple[Tuple, ...], list[list[int]], list[DenialConstraint], list[int]]:
    """The slot columns of plain violation sets, without NumPy.

    Returns ``(tuples, rows, constraints, bounds)`` as
    :class:`ViolationColumns` lays them out, except that rows are neither
    padded nor sorted: the distinct members in ref order, each set's
    member slots, and one block per run of sets sharing a constraint
    object.
    """
    slot_of: dict[Tuple, int] = {}
    members: list[list[int]] = []
    constraints: list[DenialConstraint] = []
    bounds: list[int] = []
    for index, violation in enumerate(violations):
        if not constraints or violation.constraint is not constraints[-1]:
            constraints.append(violation.constraint)
            bounds.append(index)
        members.append(
            [slot_of.setdefault(tup, len(slot_of)) for tup in violation.tuples]
        )
    bounds.append(len(members))
    distinct = list(slot_of)
    order = _ref_order(distinct)
    rank = [0] * len(order)
    for position, index in enumerate(order):
        rank[index] = position
    tuples = tuple(distinct[index] for index in order)
    rows = [list(map(rank.__getitem__, row)) for row in members]
    return tuples, rows, constraints, bounds


def rank_rows(
    segments: "dict[str, tuple[ColumnarRelation, list[numpy.ndarray]]]",
) -> "tuple[list[Tuple], Origin, dict[str, numpy.ndarray]]":
    """Rank the involved rows of each relation once, in canonical ref order.

    ``segments`` maps a relation name to its snapshot and the row arrays
    that touch it.  Relations take ranks in name order and rows within a
    relation in :meth:`~repro.model.columnar.ColumnarRelation.ref_order`,
    so ranks follow :attr:`~repro.model.tuples.TupleRef.sort_key` order.
    Returns the ranked tuples, their origin and, per relation, a
    row-to-rank array over the whole snapshot.
    """
    np = require_numpy()
    tuples: list[Tuple] = []
    origin = []
    rank_of_row: dict[str, "numpy.ndarray"] = {}
    for name in sorted(segments):
        snapshot, arrays = segments[name]
        ordered = snapshot.ref_order(np.unique(np.concatenate(arrays)))
        ranks = np.empty(len(snapshot), dtype=np.int64)
        ranks[ordered] = np.arange(len(tuples), len(tuples) + len(ordered))
        rank_of_row[name] = ranks
        origin.append((snapshot, ordered))
        snapshot_tuples = snapshot.tuples
        tuples.extend([snapshot_tuples[row] for row in ordered.tolist()])
    return tuples, tuple(origin), rank_of_row


def _shared_segments(views: "list[ViolationColumns]"):
    """The union of the views' origins, or ``None`` when any view lacks
    one or two views rank a relation over different snapshots."""
    segments: dict[str, tuple[ColumnarRelation, list]] = {}
    for view in views:
        if view.origin is None:
            return None
        for snapshot, rows in view.origin:
            entry = segments.setdefault(snapshot.relation_name, (snapshot, []))
            if entry[0] is not snapshot:
                return None
            entry[1].append(rows)
    return segments


def concat_violations(
    parts: Sequence[Sequence[ViolationSet]],
) -> "tuple[ViolationSet, ...] | ViolationColumns":
    """Concatenate per-constraint results, in order.

    Plain tuples concatenate to a tuple.  When any part is a
    :class:`ViolationColumns`, the result is one view: the parts' member
    tuples are merged and ranked once more, and each part's slot matrix
    is remapped onto the merged ranks - a monotone map, so every row
    stays ascending.  Views built by the kernel over the same snapshots
    merge by snapshot row (:func:`rank_rows`), building no ``TupleRef``;
    anything else (a pickled view, converted plain sets) merges by tuple
    ref.
    """
    if not any(isinstance(part, ViolationColumns) for part in parts):
        result: list[ViolationSet] = []
        for part in parts:
            result.extend(part)
        return tuple(result)
    views = [
        part if isinstance(part, ViolationColumns) else ViolationColumns.from_sets(part)
        for part in parts
    ]
    filled = [view for view in views if len(view)]
    if len(filled) <= 1:
        return filled[0] if filled else views[0]
    np = require_numpy()
    segments = _shared_segments(filled)
    origin: Origin | None = None
    # Each remap ends in -1: the image padding (slot -1) reads.
    if segments is not None:
        tuples, origin, rank_of_row = rank_rows(segments)
        remaps = [
            np.concatenate(
                [rank_of_row[snapshot.relation_name][rows] for snapshot, rows in view.origin]
                + [np.array([-1], dtype=np.int64)]
            )
            for view in filled
        ]
    else:
        union: dict[Tuple, int] = {}
        local = [
            [union.setdefault(tup, len(union)) for tup in view.tuples]
            for view in filled
        ]
        distinct = list(union)
        order = _ref_order(distinct)
        rank = np.empty(len(order), dtype=np.int64)
        rank[np.array(order, dtype=np.int64)] = np.arange(len(order))
        tuples = [distinct[index] for index in order]
        remaps = [
            np.append(rank[np.array(positions, dtype=np.int64)], -1)
            for positions in local
        ]
    width = max(view.slots.shape[1] for view in filled)
    matrix = np.full((sum(map(len, filled)), width), -1, dtype=np.int64)
    constraints: list[DenialConstraint] = []
    bounds = [0]
    for view, remap in zip(filled, remaps):
        start = bounds[-1]
        matrix[start : start + len(view), : view.slots.shape[1]] = remap[view.slots]
        for constraint, first, stop in view.blocks():
            constraints.append(constraint)
            bounds.append(bounds[-1] + stop - first)
    return ViolationColumns(tuples, matrix, constraints, bounds, origin)
