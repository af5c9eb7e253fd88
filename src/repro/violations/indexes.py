"""Persistent join indexes for incremental violation detection.

Anchored detection (:func:`repro.violations.detector.find_violations_involving`)
reaches the unanchored atoms of a denial through hash joins.  Building
those hash indexes from scratch costs a relation scan per commit - which
defeats incrementality - so :class:`JoinIndexCache` keeps them alive
across commits: indexes are built lazily on first use and maintained
under inserts, deletes, and tuple replacements in O(1)-ish per change.

The cache exposes the mapping interface the detector expects:
``cache.get((relation_name, positions))`` returns ``{join key: [tuples]}``
over the *current* instance (unfiltered; the detector applies per-atom
built-in predicates on the matches).
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.model.instance import DatabaseInstance
from repro.model.tuples import Tuple


class JoinIndexCache:
    """Lazily-built, incrementally-maintained hash indexes per join signature.

    Lazy builds are guarded by a lock so concurrent readers can share
    one warm cache: the first thread to miss a
    signature builds it, later threads reuse the finished index, and a
    half-built index is never observable.  Maintenance (``notify_*``)
    stays single-threaded by contract - it runs between commit rounds,
    never concurrently with detection.
    """

    def __init__(self, instance: DatabaseInstance) -> None:
        self._instance = instance
        self._indexes: dict[
            tuple[str, tuple[int, ...]], dict[tuple, list[Tuple]]
        ] = {}
        self._build_lock = threading.Lock()

    # -- mapping interface used by the detector ---------------------------------

    def get(
        self, key: tuple[str, tuple[int, ...]], default=None
    ) -> dict[tuple, list[Tuple]]:
        """Index for ``(relation name, positions)``; built on first use."""
        index = self._indexes.get(key)
        if index is None:
            with self._build_lock:
                index = self._indexes.get(key)
                if index is not None:
                    return index
                relation_name, positions = key
                if relation_name not in self._instance.schema:
                    return default
                index = {}
                for tup in self._instance.tuples(relation_name):
                    values = tuple(tup.values[p] for p in positions)
                    index.setdefault(values, []).append(tup)
                self._indexes[key] = index
        return index

    def __getitem__(self, key: tuple[str, tuple[int, ...]]):
        result = self.get(key)
        if result is None:
            raise KeyError(key)
        return result

    # -- maintenance ---------------------------------------------------------------

    def rebind(self, instance: DatabaseInstance) -> None:
        """Point the cache at a new instance object *with identical content*.

        The incremental repairer swaps instance objects when applying a
        repair; it notifies the per-tuple changes separately, so the
        built indexes stay valid.
        """
        self._instance = instance

    def notify_insert(self, tup: Tuple) -> None:
        """Maintain built indexes after a tuple insertion."""
        for (relation_name, positions), index in self._indexes.items():
            if relation_name != tup.relation.name:
                continue
            key = tuple(tup.values[p] for p in positions)
            index.setdefault(key, []).append(tup)

    def notify_remove(self, tup: Tuple) -> None:
        """Maintain built indexes after a tuple deletion."""
        for (relation_name, positions), index in self._indexes.items():
            if relation_name != tup.relation.name:
                continue
            key = tuple(tup.values[p] for p in positions)
            bucket = index.get(key)
            if bucket is None:
                continue
            try:
                bucket.remove(tup)
            except ValueError:
                pass
            if not bucket:
                del index[key]

    def notify_replace(self, old: Tuple, new: Tuple) -> None:
        """Maintain built indexes after an in-place tuple update."""
        self.notify_remove(old)
        self.notify_insert(new)

    def notify_replacements(
        self, pairs: Iterable[tuple[Tuple, Tuple]]
    ) -> None:
        """Batch form of :meth:`notify_replace`."""
        for old, new in pairs:
            self.notify_replace(old, new)

    @property
    def built_signatures(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Which indexes exist (diagnostics/tests)."""
        return tuple(self._indexes)

    def check_consistent(self) -> None:
        """Assert every built index matches the bound instance (tests)."""
        for (relation_name, positions), index in self._indexes.items():
            expected: dict[tuple, list[Tuple]] = {}
            for tup in self._instance.tuples(relation_name):
                key = tuple(tup.values[p] for p in positions)
                expected.setdefault(key, []).append(tup)
            actual = {k: sorted(v, key=lambda t: t.ref.sort_key) for k, v in index.items()}
            wanted = {k: sorted(v, key=lambda t: t.ref.sort_key) for k, v in expected.items()}
            if actual != wanted:
                raise AssertionError(
                    f"index {(relation_name, positions)} diverged from instance"
                )
