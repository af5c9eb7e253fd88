"""Sustained streaming repair: a bounded, coalescing commit pipeline.

:class:`~repro.repair.incremental.IncrementalRepairer` turns the paper's
batch algorithms into *load → repair → keep loading*; this module turns
that into a continuous ingestion pipeline.  A :class:`StreamingRepairer`
accepts an unbounded stream of inserts/updates/deletes and

* **coalesces** pending operations per ``(relation, key)`` - two updates
  of the same tuple merge (the later write wins per attribute), an
  update folds into the pending insert that created its tuple, an
  insert+delete pair cancels - so a commit round repairs each touched
  tuple once, never changing the committed result (the folded operation
  sequence is equivalent tuple-by-tuple);
* bounds the pending queue at ``max_pending`` keys with explicit
  **backpressure**: the ``"block"`` policy synchronously drains a commit
  round before admitting the operation, the ``"error"`` policy raises
  :class:`~repro.exceptions.BackpressureError` and leaves the queue
  intact.  Operations are never silently dropped;
* **auto-commits** a round every ``commit_interval`` submitted
  operations, keeping Δ-anchored detection's delta small and commit
  latency steady;
* commits **snapshot-free** (``commit(snapshot=False)``) so a round
  costs O(|Δ| + join neighbourhood) instead of the O(|D|) copy the batch
  API pays, and keeps the warm join indexes and columnar snapshots alive
  across rounds.

Commit rounds run under the shared tracer's ``commit`` spans (wrapped in
a ``stream-round`` span carrying queue statistics), which is what
:func:`repro.obs.latency_summary` reads to report p50/p99 commit
latency.

Usage::

    streamer = StreamingRepairer(instance, constraints, commit_interval=64)
    for op in feed:
        streamer.update("lineitem", key=op.key, quantity=op.quantity)
    result = streamer.flush()          # drain the tail of the stream
    repaired = streamer.instance
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.constraints.denial import DenialConstraint
from repro.exceptions import BackpressureError, RepairError, RuntimeConfigError
from repro.model.instance import DatabaseInstance
from repro.obs import Tracer, as_tracer
from repro.repair.incremental import IncrementalRepairer
from repro.repair.result import RepairResult

#: Recognized ``backpressure`` policies.
BACKPRESSURE_POLICIES = ("block", "error")

_INSERT = "insert"
_UPDATE = "update"
_DELETE = "delete"
_REPLACE = "replace"            # delete-then-insert of the same key


@dataclass
class StreamStats:
    """Counters of one :class:`StreamingRepairer`'s lifetime.

    ``submitted`` counts accepted operations by kind; ``coalesced`` how
    many of them merged into an already-pending operation (the queue
    grew by ``submitted - coalesced`` entries overall);
    ``backpressure_blocks`` / ``backpressure_errors`` how often the
    bounded queue intervened.  ``rounds`` counts commit rounds actually
    run (including empty flushes is pointless, so those don't count),
    and ``cells_changed`` / ``violations_repaired`` aggregate the
    per-round :class:`~repro.repair.result.RepairResult` outcomes.
    """

    submitted: dict[str, int] = field(
        default_factory=lambda: {_INSERT: 0, _UPDATE: 0, _DELETE: 0}
    )
    coalesced: int = 0
    rounds: int = 0
    cells_changed: int = 0
    violations_repaired: int = 0
    backpressure_blocks: int = 0
    backpressure_errors: int = 0

    @property
    def total_submitted(self) -> int:
        """All accepted operations across kinds."""
        return sum(self.submitted.values())


class _Pending:
    """One coalesced pending operation for a ``(relation, key)`` slot."""

    __slots__ = ("kind", "row", "changes")

    def __init__(
        self,
        kind: str,
        row: tuple | None = None,
        changes: dict[str, Any] | None = None,
    ) -> None:
        self.kind = kind
        self.row = row
        self.changes = changes


class StreamingRepairer:
    """Continuous-ingestion facade over :class:`IncrementalRepairer`.

    Parameters mirror the ``runtime.streaming`` config block:
    ``max_pending`` bounds the coalesced queue (``None`` = unbounded),
    ``commit_interval`` auto-commits a round every that many accepted
    operations (``None`` = only explicit :meth:`flush` / backpressure
    commits), ``backpressure`` picks the full-queue policy.  Remaining
    keyword arguments (``algorithm``, ``metric``, ``parallel``,
    ``engine``, ``plan``, ...) pass through to the inner :class:`IncrementalRepairer` - in particular a
    precompiled :class:`~repro.plan.program.CompiledProgram` is
    validated once and its static analysis reused by *every* commit
    round of the stream (a stale plan raises
    :class:`~repro.exceptions.StalePlanError` at construction, before
    any operation is accepted).

    ``snapshot_results=False`` (the default) makes per-round
    :class:`RepairResult`\\ s snapshot-free (``repaired is None``); read
    the live state via :attr:`instance` when needed.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        constraints: Iterable[DenialConstraint],
        max_pending: int | None = 1024,
        commit_interval: int | None = 256,
        backpressure: str = "block",
        snapshot_results: bool = False,
        trace: "bool | Tracer" = False,
        **repairer_kwargs: Any,
    ) -> None:
        for name, value in (
            ("max_pending", max_pending),
            ("commit_interval", commit_interval),
        ):
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                raise RuntimeConfigError(
                    f"{name} must be a positive integer or None, got {value!r}"
                )
        if backpressure not in BACKPRESSURE_POLICIES:
            raise RuntimeConfigError(
                f"unknown backpressure policy {backpressure!r}; "
                f"choose from {', '.join(BACKPRESSURE_POLICIES)}"
            )
        self._max_pending = max_pending
        self._commit_interval = commit_interval
        self._backpressure = backpressure
        self._snapshot_results = snapshot_results
        # One tracer spans the whole stream; the inner repairer shares it
        # so its ``commit`` spans nest under our ``stream-round`` spans
        # (``Tracer.activate`` is reentrant).
        self._tracer = as_tracer(trace)
        self._repairer = IncrementalRepairer(
            instance, constraints, trace=self._tracer, **repairer_kwargs
        )
        self._pending: dict[tuple[str, tuple], _Pending] = {}
        self._ops_since_commit = 0
        self.stats = StreamStats()
        self._last_result: RepairResult | None = None
        self._all_changes: list = []
        self._total_cover_weight = 0.0
        self._total_distance = 0.0

    # -- submitting operations ------------------------------------------------

    def insert(self, relation_name: str, row: Iterable[Any]) -> None:
        """Stream an insertion of a new tuple."""
        relation = self._schema_relation(relation_name)
        values = tuple(row)
        key = tuple(values[p] for p in relation.key_positions)
        slot = (relation_name, key)
        existing = self._pending.get(slot)
        if existing is not None and existing.kind in (_INSERT, _UPDATE, _REPLACE):
            raise RepairError(
                f"streamed insert into {relation_name!r} duplicates the key "
                f"{key!r} of a pending {existing.kind}"
            )
        self._admit(slot)
        existing = self._pending.get(slot)     # "block" may have drained it
        if existing is not None and existing.kind == _DELETE:
            # delete + insert of the same key = replace the original tuple.
            self._pending[slot] = _Pending(_REPLACE, row=values)
            self.stats.coalesced += 1
        else:
            self._pending[slot] = _Pending(_INSERT, row=values)
        self._accepted(_INSERT)

    def update(
        self,
        relation_name: str,
        key: tuple[Any, ...],
        changes: Mapping[str, Any] | None = None,
        **kwargs: Any,
    ) -> None:
        """Stream an attribute update of an existing (or pending) tuple."""
        relation = self._schema_relation(relation_name)
        updates = dict(changes or {})
        updates.update(kwargs)
        if not updates:
            raise RepairError("streamed update carries no attribute changes")
        for attribute in updates:
            relation.position(attribute)       # validate eagerly
        slot = (relation_name, tuple(key))
        existing = self._pending.get(slot)
        if existing is not None and existing.kind == _DELETE:
            raise RepairError(
                f"streamed update of {relation_name!r} key {tuple(key)!r} "
                "targets a tuple with a pending delete"
            )
        self._admit(slot)
        existing = self._pending.get(slot)
        if existing is None:
            self._pending[slot] = _Pending(_UPDATE, changes=updates)
        elif existing.kind == _UPDATE:
            existing.changes.update(updates)   # later write wins per attribute
            self.stats.coalesced += 1
        else:                                  # insert or replace: fold in
            row = list(existing.row)
            for attribute, value in updates.items():
                row[relation.position(attribute)] = value
            existing.row = tuple(row)
            self.stats.coalesced += 1
        self._accepted(_UPDATE)

    def delete(self, relation_name: str, key: tuple[Any, ...]) -> None:
        """Stream a deletion (cancels a pending insert of the same key)."""
        self._schema_relation(relation_name)
        slot = (relation_name, tuple(key))
        existing = self._pending.get(slot)
        if existing is not None:
            if existing.kind == _DELETE:
                raise RepairError(
                    f"streamed delete of {relation_name!r} key {tuple(key)!r} "
                    "duplicates a pending delete"
                )
            if existing.kind == _INSERT:
                # The tuple only ever existed in the queue: cancel both.
                del self._pending[slot]
                self.stats.coalesced += 1
                self._accepted(_DELETE)
                return
            # update/replace of an existing tuple + delete = plain delete.
            self._pending[slot] = _Pending(_DELETE)
            self.stats.coalesced += 1
            self._accepted(_DELETE)
            return
        self._admit(slot)
        self._pending[slot] = _Pending(_DELETE)
        self._accepted(_DELETE)

    # -- committing -----------------------------------------------------------

    def flush(self, verify: bool = False) -> RepairResult | None:
        """Drain the pending queue through one commit round.

        Returns the round's :class:`RepairResult`, or ``None`` when
        nothing was pending (no round runs).
        """
        if not self._pending:
            self._ops_since_commit = 0
            return None
        return self._commit_round(verify=verify)

    @property
    def pending_operations(self) -> int:
        """Coalesced operations currently queued."""
        return len(self._pending)

    @property
    def last_result(self) -> RepairResult | None:
        """The most recent round's result (``None`` before the first)."""
        return self._last_result

    def aggregate_result(self) -> RepairResult:
        """The whole stream's outcome as one :class:`RepairResult`.

        ``changes`` concatenates every round's cell updates in commit
        order (a cell repaired in several rounds appears once per round;
        applying them in order reproduces the final value), ``distance``
        and ``cover_weight`` are summed over rounds, and ``repaired`` is
        a snapshot of the current working instance.  Pending operations
        are not included - :meth:`flush` first.
        """
        return RepairResult(
            repaired=self.instance,
            algorithm=str(self._repairer._algorithm),
            cover_weight=self._total_cover_weight,
            distance=self._total_distance,
            changes=tuple(self._all_changes),
            violations_before=self.stats.violations_repaired,
            verified=False,
            metric=self._repairer._metric.name,
        )

    @property
    def instance(self) -> DatabaseInstance:
        """A copy of the repairer's working instance.

        Pending (un-flushed) operations are *not* reflected; call
        :meth:`flush` first for read-your-writes.
        """
        return self._repairer.instance

    @property
    def tracer(self) -> Tracer:
        """The tracer observing the stream (the null tracer when off)."""
        return self._tracer

    def finish_trace(self):
        """Snapshot the lifetime trace (see :meth:`Tracer.finish`)."""
        return self._tracer.finish()

    def __enter__(self) -> "StreamingRepairer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.flush()
        return False

    # -- internals ------------------------------------------------------------

    def _schema_relation(self, relation_name: str):
        return self._repairer._instance.schema.relation(relation_name)

    def _admit(self, slot: tuple[str, tuple]) -> None:
        """Enforce the queue bound before ``slot`` would join the queue."""
        if (
            self._max_pending is None
            or slot in self._pending                 # coalesces, doesn't grow
            or len(self._pending) < self._max_pending
        ):
            return
        if self._backpressure == "error":
            self.stats.backpressure_errors += 1
            raise BackpressureError(
                f"streaming queue is full ({len(self._pending)} pending, "
                f"max_pending={self._max_pending}); the operation was not "
                "enqueued - flush() or raise max_pending",
                pending=len(self._pending),
                max_pending=self._max_pending,
            )
        self.stats.backpressure_blocks += 1
        self._commit_round()

    def _accepted(self, kind: str) -> None:
        self.stats.submitted[kind] += 1
        self._ops_since_commit += 1
        if (
            self._commit_interval is not None
            and self._ops_since_commit >= self._commit_interval
        ):
            self._commit_round()

    def _commit_round(self, verify: bool = False) -> RepairResult:
        with self._tracer.activate():
            with self._tracer.span(
                "stream-round",
                category="pipeline",
                ops=self._ops_since_commit,
                pending=len(self._pending),
            ):
                for (relation_name, key), op in self._pending.items():
                    if op.kind == _INSERT:
                        self._repairer.insert(relation_name, op.row)
                    elif op.kind == _UPDATE:
                        self._repairer.update(relation_name, key, op.changes)
                    elif op.kind == _DELETE:
                        self._repairer.delete(relation_name, key)
                    else:                      # _REPLACE
                        self._repairer.delete(relation_name, key)
                        self._repairer.insert(relation_name, op.row)
                self._pending.clear()
                self._ops_since_commit = 0
                result = self._repairer.commit(
                    verify=verify, snapshot=self._snapshot_results
                )
        self.stats.rounds += 1
        self.stats.cells_changed += len(result.changes)
        self.stats.violations_repaired += result.violations_before
        self._all_changes.extend(result.changes)
        self._total_cover_weight += result.cover_weight
        self._total_distance += result.distance
        self._last_result = result
        return result
