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
  counters, so a snapshot is rebuilt exactly when its relation mutated
  (the columnar analogue of
  :class:`repro.violations.indexes.JoinIndexCache` maintenance).

NumPy is an *optional* dependency (the ``repro[kernel]`` extra): importing
this module works without it, but building a snapshot raises
:class:`~repro.exceptions.KernelError`, which the detector's ``auto``
engine treats as "stay on the interpreted path".
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Iterable

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
    cached for the snapshot's lifetime.
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
        values = [tup.values[position] for tup in self.tuples]
        types = set(map(type, values))
        array = None
        if all(issubclass(kind, int) for kind in types):
            try:
                array = _np.array(values, dtype=_np.int64)
            except (OverflowError, ValueError):
                array = None
        self._numeric[position] = array
        self._exact[position] = array is not None and types <= {int}

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
    cached snapshot was built at and rebuilds on mismatch.  The
    ``notify_*`` methods mirror ``JoinIndexCache``'s maintenance hooks
    for callers that mutate tables behind the instance's back: they drop
    the affected snapshot so the next access rebuilds.
    """

    def __init__(self) -> None:
        self._snapshots: dict[str, tuple[int, ColumnarRelation]] = {}

    def relation(
        self, instance: DatabaseInstance, relation_name: str
    ) -> ColumnarRelation:
        """Current snapshot of one relation (rebuilt iff it mutated).

        Hit/miss rates land in the ``columnar_cache_hits`` /
        ``columnar_cache_misses`` counters of an active tracer - the
        signal for "are kernel runs amortizing their snapshot builds".
        """
        version = instance.data_version(relation_name)
        cached = self._snapshots.get(relation_name)
        metrics = current_tracer().metrics
        if cached is not None and cached[0] == version:
            metrics.counter("columnar_cache_hits", relation=relation_name).inc()
            return cached[1]
        metrics.counter("columnar_cache_misses", relation=relation_name).inc()
        snapshot = ColumnarRelation(relation_name, instance.tuples(relation_name))
        self._snapshots[relation_name] = (version, snapshot)
        return snapshot

    # -- explicit invalidation hooks (JoinIndexCache parity) -----------------

    def invalidate(self, relation_name: str | None = None) -> None:
        """Drop one relation's snapshot, or all of them."""
        if relation_name is None:
            self._snapshots.clear()
        else:
            self._snapshots.pop(relation_name, None)

    def notify_insert(self, tup: Tuple) -> None:
        """Invalidate after an out-of-band insertion."""
        self.invalidate(tup.relation.name)

    def notify_remove(self, tup: Tuple) -> None:
        """Invalidate after an out-of-band deletion."""
        self.invalidate(tup.relation.name)

    def notify_replace(self, old: Tuple, new: Tuple) -> None:
        """Invalidate after an out-of-band in-place update."""
        self.invalidate(old.relation.name)
        self.invalidate(new.relation.name)

    def rekey(
        self, instance: DatabaseInstance, drop: Iterable[str] = ()
    ) -> None:
        """Re-stamp cached snapshots with ``instance``'s version counters.

        Used when warm snapshots are carried over to a *content-identical*
        successor instance whose version counters restarted (instance
        copies reset them): relations named in ``drop`` lose their
        snapshot, every other cached snapshot is re-keyed to the new
        instance's current version so the next access is a hit.  Callers
        own the content-identity precondition.
        """
        for relation_name in drop:
            self._snapshots.pop(relation_name, None)
        for relation_name, (_version, snapshot) in list(self._snapshots.items()):
            self._snapshots[relation_name] = (
                instance.data_version(relation_name), snapshot
            )

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


def transfer_store(
    old_instance: DatabaseInstance,
    new_instance: DatabaseInstance,
    changed_relations: Iterable[str] = (),
) -> ColumnarStore:
    """Carry one instance's warm snapshots over to its successor.

    The incremental repairer historically swapped instance objects when
    applying a repair, which made every kernel snapshot die with the old
    object even though only the repaired relations actually changed.
    This re-homes the old instance's store under the new object, drops
    the snapshots of ``changed_relations``, and re-keys the surviving
    ones to the new instance's version counters (an instance copy resets
    them, so raw version comparison across the swap would be
    meaningless).  Precondition: the two instances agree on every
    relation *not* named in ``changed_relations``.

    Returns the (possibly empty) store now serving ``new_instance``.
    """
    if old_instance is new_instance:
        store = store_for(new_instance)
        store.rekey(new_instance, drop=changed_relations)
        return store
    key = id(old_instance)
    entry = _STORES.pop(key, None)
    if entry is None or entry[0]() is not old_instance:
        return store_for(new_instance)
    store = entry[1]
    store.rekey(new_instance, drop=changed_relations)
    new_key = id(new_instance)
    try:
        ref = weakref.ref(
            new_instance, lambda _ref, _key=new_key: _STORES.pop(_key, None)
        )
    except TypeError:  # pragma: no cover - DatabaseInstance is weakref-able
        return store
    _STORES[new_key] = (ref, store)
    return store
