"""Cross-job artifact cache keyed by (program fingerprint, data-version).

Every job recomputes the same expensive derived artifacts: the compiled
:class:`~repro.plan.program.CompiledProgram` and its lint report depend
only on ``(schema, constraints)`` - exactly what the plan-cache
fingerprint (:func:`repro.plan.program.program_fingerprint`) covers -
and the detected violation list, join indexes and columnar snapshots
additionally depend on the *data*, identified here by a content token
(:func:`repro.service.jobs.instance_digest`, or a caller-provided
data-version string).  The cache key is therefore

    (artifact kind, program fingerprint, data token)

with ``data token = ""`` for data-independent kinds (plans, lint
reports), so those are shared across every instance of a configuration.

Integrity: each entry stores a SHA-256 digest of its value's canonical
form at insertion time and re-derives it on every hit.  A mismatch - a
*poisoned* artifact, injected by the fault harness or caused by real
corruption - raises :class:`~repro.exceptions.PoisonedArtifactError`
(and evicts the entry) instead of ever serving the bad value.  Plans
and lint reports digest their canonical JSON.  Violations digest by
form: a :class:`~repro.violations.columns.ViolationColumns` view from
its slot form (constraint names and texts, block bounds, member
relation names and cached row bytes, the slot matrix's dtype, shape
and bytes), so neither the put nor the check on a hit builds a single
``ViolationSet``; a plain sequence from ``repr(tuple(value))``.  Kinds
whose values have no canonical form (live join indexes, columnar
stores) carry no digest and skip the check, but still honour explicit
:meth:`ArtifactCache.poison` marks.

Hits, misses and evictions surface as ``artifact_cache_hits`` /
``artifact_cache_misses`` / ``artifact_cache_evictions`` counters
(labelled by kind) on the registry passed in - the
:class:`~repro.service.runtime.RepairService` hands over its own
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import PoisonedArtifactError
from repro.model.tuples import joined_row_bytes
from repro.obs.metrics import NULL_METRICS
from repro.violations.columns import ViolationColumns

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.obs.metrics import MetricsRegistry

#: Artifact kinds with a canonical (re-derivable) digest form.
PLAN = "plan"
LINT = "lint"
VIOLATIONS = "violations"

#: Artifact kinds cached by reference, without content digests.
COLUMNAR = "columnar"
JOIN_INDEX = "join-index"

KINDS = (PLAN, LINT, VIOLATIONS, COLUMNAR, JOIN_INDEX)

#: Kinds whose values do not depend on the data token.
DATA_INDEPENDENT = (PLAN, LINT)


def default_digest(kind: str, value: Any) -> str | None:
    """The canonical content digest for ``value``, or ``None`` for
    reference-cached kinds."""
    if kind == PLAN:
        payload = value.to_json()
    elif kind == LINT:
        payload = json.dumps(value.to_dict(), sort_keys=True)
    elif kind == VIOLATIONS:
        if isinstance(value, ViolationColumns):
            return _columns_digest(value)
        payload = repr(tuple(value))
    else:
        return None
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _columns_digest(view: ViolationColumns) -> str:
    """The digest of a violations view, read off its slot form.

    It covers what the view's sets are built from - each constraint's
    name and canonical text, the block bounds, each member's relation
    name and row bytes, the slot matrix's dtype, shape and bytes - and
    builds none of those sets.
    """
    slots = view.slots
    header = (
        [(constraint.name, str(constraint)) for constraint in view.constraints],
        view.bounds,
        [tup.relation.name for tup in view.tuples],
        slots.dtype.str,
        slots.shape,
    )
    hasher = hashlib.sha256(repr(header).encode("utf-8"))
    hasher.update(joined_row_bytes(view.tuples))
    hasher.update(slots.tobytes())
    return hasher.hexdigest()


class _Entry:
    __slots__ = ("value", "digest", "poisoned")

    def __init__(self, value: Any, digest: str | None) -> None:
        self.value = value
        self.digest = digest
        self.poisoned = False


class ArtifactCache:
    """Bounded, thread-safe LRU store of derived repair artifacts."""

    def __init__(
        self,
        max_entries: int = 256,
        metrics: "MetricsRegistry | None" = None,
        digest: Callable[[str, Any], "str | None"] = default_digest,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._digest = digest
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, str, str], _Entry]" = OrderedDict()

    @staticmethod
    def key_for(kind: str, fingerprint: str, data_token: str = "") -> tuple[str, str, str]:
        """The normalized cache key (data token dropped for shared kinds)."""
        if kind in DATA_INDEPENDENT:
            data_token = ""
        return (kind, fingerprint, data_token)

    # -- core operations ----------------------------------------------------

    def get(self, kind: str, fingerprint: str, data_token: str = "") -> Any:
        """The cached value, or ``None`` on a miss.

        A hit whose stored digest no longer matches the value's
        re-derived digest (or that was explicitly poisoned) raises
        :class:`~repro.exceptions.PoisonedArtifactError` and evicts the
        entry - a poisoned artifact is refused, never served.
        """
        key = self.key_for(kind, fingerprint, data_token)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self.metrics.counter("artifact_cache_misses", kind=kind).inc()
            return None
        actual = self._digest(kind, entry.value) if entry.digest is not None else None
        if entry.poisoned or (entry.digest is not None and actual != entry.digest):
            with self._lock:
                self._entries.pop(key, None)
            self.metrics.counter("artifact_cache_poisoned", kind=kind).inc()
            raise PoisonedArtifactError(
                f"cached {kind} artifact for fingerprint "
                f"{fingerprint[:12]}… failed its integrity check and was "
                "evicted - recompute the artifact",
                kind=kind,
                key=key,
                expected=entry.digest or "",
                actual=actual or "poisoned",
            )
        self.metrics.counter("artifact_cache_hits", kind=kind).inc()
        return entry.value

    def put(self, kind: str, fingerprint: str, value: Any, data_token: str = "") -> None:
        """Insert (or refresh) one artifact, evicting LRU past the bound."""
        key = self.key_for(kind, fingerprint, data_token)
        entry = _Entry(value, self._digest(kind, value))
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self.metrics.counter("artifact_cache_evictions").inc(evicted)

    def invalidate(self, kind: str, fingerprint: str, data_token: str = "") -> bool:
        """Drop one entry; True when something was removed."""
        key = self.key_for(kind, fingerprint, data_token)
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (does not count as eviction)."""
        with self._lock:
            self._entries.clear()

    # -- fault-injection surface --------------------------------------------

    def poison(self, kind: str, fingerprint: str, data_token: str = "") -> bool:
        """Mark one entry as corrupted (the fault harness's hook).

        The next :meth:`get` of the entry raises
        :class:`~repro.exceptions.PoisonedArtifactError` instead of
        returning the value.  True when the entry existed.
        """
        key = self.key_for(kind, fingerprint, data_token)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            entry.poisoned = True
            return True

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, str, str]) -> bool:
        return key in self._entries

    def keys(self) -> tuple[tuple[str, str, str], ...]:
        """Current keys, LRU order (oldest first)."""
        with self._lock:
            return tuple(self._entries)

    def stats(self) -> dict[str, float]:
        """Hit/miss/eviction totals read back off the metrics registry."""
        totals = {"hits": 0.0, "misses": 0.0, "evictions": 0.0, "poisoned": 0.0}
        for counter in self.metrics.counters():
            slot = counter.name.removeprefix("artifact_cache_")
            if slot in totals:
                totals[slot] += counter.value
        return totals
