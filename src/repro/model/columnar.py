"""Columnar snapshots of database relations for vectorized detection.

The violation-detection kernels (:mod:`repro.violations.kernels`) evaluate
denial constraints over *columns* instead of tuple-by-tuple: per-attribute
NumPy arrays support vectorized built-in masks, array-based equality
joins, and sorted interval lookups for cross-atom inequalities.  This
module owns the column store those kernels read:

* :class:`ColumnarRelation` - one relation's tuples frozen into arrays,
  with an int64 fast path for all-integer columns and an object-array
  fallback that preserves exact Python equality semantics;
* :class:`ColumnarStore` - a per-instance cache of snapshots keyed by the
  instance's :meth:`~repro.model.instance.DatabaseInstance.data_version`
  counters, so a snapshot is replaced exactly when its relation mutated
  (the columnar analogue of
  :class:`repro.violations.indexes.JoinIndexCache` maintenance).  A copy
  derives its snapshot from its source's
  (:meth:`~repro.model.instance.DatabaseInstance.replaced_rows`): shared
  when untouched, patched in the replaced rows otherwise, and built from
  the tuples only when rows were inserted or deleted or there is no
  source snapshot.

NumPy is an *optional* dependency (the ``repro[kernel]`` extra): importing
this module works without it, but building a snapshot raises
:class:`~repro.exceptions.KernelError`, which the detector's ``auto``
engine treats as "stay on the interpreted path".
"""

from __future__ import annotations

import weakref
from operator import attrgetter, is_, itemgetter
from typing import TYPE_CHECKING, Any

from repro.exceptions import KernelError
from repro.model.instance import DatabaseInstance
from repro.model.tuples import Tuple
from repro.obs import current_tracer

if TYPE_CHECKING:  # pragma: no cover
    import numpy

try:  # NumPy is optional; see module docstring.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via kernel_available()
    _np = None


#: ``Tuple.values`` read straight off the slot, for C-speed column scans.
_values_of = attrgetter("_values")


def kernel_available() -> bool:
    """True when NumPy is importable, i.e. the kernel engine can run."""
    return _np is not None


def require_numpy() -> "numpy":
    """Return the numpy module or raise :class:`KernelError`."""
    if _np is None:
        raise KernelError(
            "the kernel detection engine needs NumPy; install the "
            "'repro[kernel]' extra or use engine='interpreted'"
        )
    return _np


def _decimal_order(columns: "list[numpy.ndarray]") -> "numpy.ndarray":
    """Stable permutation sorting rows by the decimal strings of int64 keys.

    ``columns[0]`` is the most significant key.  The strings are never
    built: ``str(v) < str(w)`` puts every negative (``-`` sorts below the
    digits) first, then compares the digit strings of the magnitudes -
    which is comparing the magnitudes right-padded with zeros to 19
    digits, the shorter string first on a tie.
    """
    powers = _np.array([10**k for k in range(20)], dtype=_np.uint64)
    keys = []
    for column in reversed(columns):
        negative = column < 0
        magnitude = column.astype(_np.uint64)
        # |v| of a negative int64, int64 min included, in uint64.
        magnitude[negative] = (-(column[negative] + 1)).astype(_np.uint64) + 1
        digits = _np.maximum(_np.searchsorted(powers, magnitude, side="right"), 1)
        keys += [digits, magnitude * powers[19 - digits], ~negative]
    return _np.lexsort(keys)


class ColumnarRelation:
    """One relation's tuples as per-attribute arrays (immutable snapshot).

    ``tuples[i]`` is row ``i``; :meth:`column` returns the object-dtype
    value array of one attribute position and :meth:`numeric` the int64
    fast-path array (``None`` when any value is not a Python int or the
    column overflows int64).  Arrays are built lazily per position and
    cached for the snapshot's lifetime; no array is written after it is
    cached, so :meth:`patched` snapshots may share them.
    """

    __slots__ = (
        "relation_name", "tuples", "_columns", "_numeric", "_exact", "_rows"
    )

    def __init__(self, relation_name: str, tuples: tuple[Tuple, ...]) -> None:
        require_numpy()
        self.relation_name = relation_name
        self.tuples = tuples
        self._columns: dict[int, Any] = {}
        self._numeric: dict[int, Any] = {}
        self._exact: dict[int, bool] = {}
        self._rows: dict[Tuple, int] | None = None

    def __len__(self) -> int:
        return len(self.tuples)

    def column(self, position: int) -> "numpy.ndarray":
        """Object-dtype array of one attribute position (always available)."""
        array = self._columns.get(position)
        if array is None:
            array = _np.empty(len(self.tuples), dtype=object)
            for row, tup in enumerate(self.tuples):
                array[row] = tup.values[position]
            self._columns[position] = array
        return array

    def numeric(self, position: int) -> "numpy.ndarray | None":
        """Int64 array of one position, or ``None`` off the fast path.

        Booleans count as ints (Python semantics: ``True == 1``); any
        other type, or a value outside the int64 range, disables the
        numeric fast path for the whole column.
        """
        if position not in self._numeric:
            self._scan(position)
        return self._numeric[position]

    def exact_ints(self, position: int) -> "numpy.ndarray | None":
        """:meth:`numeric`, but only when every value is an exact ``int``.

        Booleans print as ``True``/``False`` and carry another type name,
        so the canonical ref order (:meth:`ref_order`) cannot rank them
        by decimal string; such columns return ``None``.
        """
        if position not in self._numeric:
            self._scan(position)
        return self._numeric[position] if self._exact[position] else None

    def _scan(self, position: int) -> None:
        values = list(map(itemgetter(position), map(_values_of, self.tuples)))
        types = set(map(type, values))
        array = None
        if all(issubclass(kind, int) for kind in types):
            try:
                array = _np.fromiter(values, _np.int64, count=len(values))
            except (OverflowError, ValueError):
                array = None
        # ``_exact`` first: a reader that finds the position in
        # ``_numeric`` (another thread, or :meth:`patched`) reads both.
        self._exact[position] = array is not None and types <= {int}
        self._numeric[position] = array

    def patched(
        self, tuples: tuple[Tuple, ...], rows: list[int]
    ) -> "ColumnarRelation":
        """The snapshot of ``tuples``: this one with ``rows`` replaced.

        ``tuples`` has this snapshot's length and holds this snapshot's
        tuple objects except at the indices in ``rows``.  A cached array
        is shared when no replaced row changes its position, and copied
        and patched otherwise.  A patched int64 array is kept only when
        the column was exact and every new value is an exact ``int``
        within int64; otherwise the position is dropped and rescanned on
        demand, so a ``True`` replacing ``1`` leaves the exact path as a
        cold build would.  Row lookup (:meth:`row_of`) is rebuilt lazily.
        The caches are read through copies of their items: other threads
        may fill this snapshot's positions meanwhile.
        """
        derived = ColumnarRelation(self.relation_name, tuples)
        old = list(map(_values_of, map(self.tuples.__getitem__, rows)))
        new = list(map(_values_of, map(tuples.__getitem__, rows)))
        index = _np.array(rows, dtype=_np.intp)

        def replaced(position: int) -> "list[Any] | None":
            values = list(map(itemgetter(position), new))
            if all(map(is_, values, map(itemgetter(position), old))):
                return None
            return values

        for position, array in tuple(self._columns.items()):
            values = replaced(position)
            if values is not None:
                array = array.copy()
                for row, value in zip(rows, values):
                    array[row] = value
            derived._columns[position] = array
        exact = dict(tuple(self._exact.items()))
        for position, array in tuple(self._numeric.items()):
            values = replaced(position)
            if values is not None:
                if not exact.get(position) or set(map(type, values)) != {int}:
                    continue
                try:
                    patch = _np.fromiter(values, _np.int64, count=len(values))
                except OverflowError:
                    continue
                array = array.copy()
                array[index] = patch
            elif position not in exact:
                continue
            derived._exact[position] = exact[position]
            derived._numeric[position] = array
        return derived

    def ref_order(self, rows: "numpy.ndarray") -> "numpy.ndarray":
        """``rows`` (distinct row indices) permuted into canonical ref order.

        Canonical ref order is :attr:`TupleRef.sort_key` order: per key
        position the value's type name, then its ``str``.  No ``TupleRef``
        is built: key columns with :meth:`exact_ints` arrays are ranked in
        NumPy (:func:`_decimal_order`), any other key by a Python sort on
        that type-tagged key.
        """
        if len(rows) == 0:
            return rows
        positions = self.tuples[0].relation.key_positions
        arrays = [self.exact_ints(position) for position in positions]
        if all(array is not None for array in arrays):
            return rows[_decimal_order([array[rows] for array in arrays])]
        keys = [
            tuple((type(v).__name__, str(v)) for v in self.tuples[row].key)
            for row in rows.tolist()
        ]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return rows[_np.array(order, dtype=_np.int64)]

    def row_of(self, tup: Tuple) -> int | None:
        """Row index of a tuple (anchored detection), ``None`` if absent."""
        if self._rows is None:
            self._rows = {t: row for row, t in enumerate(self.tuples)}
        return self._rows.get(tup)


class ColumnarStore:
    """Version-keyed cache of :class:`ColumnarRelation` snapshots.

    The store does *not* hold the instance (see :func:`store_for`'s
    lifetime note); callers pass it to :meth:`relation`, which compares
    the instance's per-relation ``data_version`` against the version the
    cached snapshot was taken at and replaces it on mismatch - derived
    from the instance's copy source when it can be, built otherwise.
    """

    def __init__(self) -> None:
        self._snapshots: dict[str, tuple[int, ColumnarRelation]] = {}

    def relation(
        self, instance: DatabaseInstance, relation_name: str
    ) -> ColumnarRelation:
        """Current snapshot of one relation (replaced iff it mutated).

        Hit/miss rates land in the ``columnar_cache_hits`` /
        ``columnar_cache_misses{kind=derived|built}`` counters of an
        active tracer - the signal for "are kernel runs amortizing their
        snapshot builds".
        """
        version = instance.data_version(relation_name)
        snapshot = self.snapshot_at(relation_name, version)
        if snapshot is not None:
            current_tracer().metrics.counter(
                "columnar_cache_hits", relation=relation_name
            ).inc()
            return snapshot
        snapshot = self.derive(instance, relation_name)
        if snapshot is None:
            snapshot = ColumnarRelation(relation_name, instance.tuples(relation_name))
            self._put(instance, relation_name, snapshot, "built")
        return snapshot

    def derive(
        self, instance: DatabaseInstance, relation_name: str
    ) -> ColumnarRelation | None:
        """Derive and cache one relation's snapshot from its copy source's.

        The source must be alive, unchanged since the copy, and hold a
        snapshot at that version
        (:meth:`~repro.model.instance.DatabaseInstance.copy_source`); the
        relation must hold the source's rows in the same order, some
        replaced
        (:meth:`~repro.model.instance.DatabaseInstance.replaced_rows`).
        With no row replaced the source's snapshot itself is shared.
        Returns ``None``, caching nothing, when it cannot be derived.
        """
        lineage = instance.copy_source(relation_name)
        if lineage is None:
            return None
        source, version = lineage
        entry = _STORES.get(id(source))
        if entry is None or entry[0]() is not source:
            return None
        snapshot = entry[1].snapshot_at(relation_name, version)
        if snapshot is None:
            return None
        rows = instance.replaced_rows(relation_name)
        if rows is None:
            return None
        if rows:
            snapshot = snapshot.patched(instance.tuples(relation_name), rows)
        self._put(instance, relation_name, snapshot, "derived")
        return snapshot

    def _put(
        self,
        instance: DatabaseInstance,
        relation_name: str,
        snapshot: ColumnarRelation,
        kind: str,
    ) -> None:
        current_tracer().metrics.counter(
            "columnar_cache_misses", relation=relation_name, kind=kind
        ).inc()
        self._snapshots[relation_name] = (
            instance.data_version(relation_name), snapshot
        )

    def snapshot_at(
        self, relation_name: str, version: int
    ) -> ColumnarRelation | None:
        """The cached snapshot of one relation if taken at ``version``."""
        cached = self._snapshots.get(relation_name)
        if cached is None or cached[0] != version:
            return None
        return cached[1]

    @property
    def cached_relations(self) -> tuple[str, ...]:
        """Which snapshots currently exist (diagnostics/tests)."""
        return tuple(self._snapshots)


#: id(instance) -> (weakref to the instance, its store).  The weakref both
#: guards against id reuse and evicts the entry when the instance dies;
#: the store itself never references the instance, so no cycle keeps
#: either alive.
_STORES: dict[int, tuple["weakref.ref[DatabaseInstance]", ColumnarStore]] = {}


def store_for(instance: DatabaseInstance) -> ColumnarStore:
    """The process-wide :class:`ColumnarStore` of one instance object.

    Snapshots survive across detection calls on the same instance (the
    hot path of repeated ``find_violations`` / benchmark loops) and die
    with the instance.
    """
    key = id(instance)
    entry = _STORES.get(key)
    if entry is not None and entry[0]() is instance:
        return entry[1]
    store = ColumnarStore()
    try:
        ref = weakref.ref(instance, lambda _ref, _key=key: _STORES.pop(_key, None))
    except TypeError:  # pragma: no cover - DatabaseInstance is weakref-able
        return store
    _STORES[key] = (ref, store)
    return store


def derive_snapshots(instance: DatabaseInstance) -> None:
    """Take now every snapshot ``instance`` can derive from its source.

    A copy derives lazily on first use, but only while its source lives;
    a caller about to drop the source (the incremental repairer swapping
    in a repaired copy) derives the warm snapshots eagerly instead.
    """
    store = store_for(instance)
    for relation in instance.schema:
        name = relation.name
        if store.snapshot_at(name, instance.data_version(name)) is None:
            store.derive(instance, name)
