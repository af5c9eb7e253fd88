"""Job model of the repair-as-a-service runtime.

A *job* is one ``repair_database`` request travelling through the
:class:`~repro.service.runtime.RepairService`: submitted, admitted into
the bounded :class:`~repro.service.queue.JobQueue`, executed on a bridge
thread, and finished in exactly
one terminal state.  The full lifecycle::

    pending -> running -> succeeded
                        | failed       (structured JobError attached)
                        | cancelled    (cooperative, queue stays consistent)
                        | timed-out    (per-job budget exceeded)

Job ids are **deterministic**: ``job-<seq>-<digest>`` where ``seq`` is
the submission sequence number and ``digest`` prefixes a SHA-256 over
the (schema, constraints) program fingerprint, the data token and the
solver parameters - resubmitting the same workload in the same order
yields the same ids, which is what lets the concurrency test harness
compare service runs byte for byte.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.model.instance import DatabaseInstance
from repro.model.tuples import joined_row_bytes

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.constraints.denial import DenialConstraint
    from repro.obs.spans import Trace
    from repro.repair.result import RepairResult

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"
TIMED_OUT = "timed-out"

#: Every state a job can be in.
JOB_STATES = (PENDING, RUNNING, SUCCEEDED, FAILED, CANCELLED, TIMED_OUT)

#: States a job never leaves.
TERMINAL_STATES = (SUCCEEDED, FAILED, CANCELLED, TIMED_OUT)


#: Attribute carrying an instance's memoized (data versions, digest) pair.
#: Stored on the instance itself (it is unhashable by design - content
#: equality - so it cannot key an external weak mapping).
_DIGEST_MEMO_ATTR = "_service_digest_memo"


def instance_digest(instance: DatabaseInstance) -> str:
    """A content digest of an instance - the cache's *data-version* token.

    SHA-256 over every relation's name and the
    :attr:`~repro.model.tuples.Tuple.row_bytes` of its rows in a
    content-determined key order
    (:meth:`~repro.model.instance.DatabaseInstance.canonical_tuples`;
    no ``TupleRef`` is built).  Two instances with
    equal content - regardless of insertion order or object identity -
    share the digest, so repeat jobs over the same data hit the same
    :class:`~repro.service.cache.ArtifactCache` slots.

    Each tuple encodes its row once and keeps the bytes, and instance
    copies share their tuples: a copy with a few edited rows re-encodes
    just those, and the rest of the pass is a C-speed sort of the key
    tuples and a join.  The digest is also memoized per instance object
    against its per-relation :meth:`~DatabaseInstance.data_version`
    counters and recomputed only after a mutation.
    """
    versions = tuple(
        instance.data_version(relation.name) for relation in instance.schema
    )
    memo = getattr(instance, _DIGEST_MEMO_ATTR, None)
    if memo is not None and memo[0] == versions:
        return memo[1]
    hasher = hashlib.sha256()
    for relation in instance.schema:
        hasher.update(relation.name.encode("utf-8"))
        hasher.update(joined_row_bytes(instance.canonical_tuples(relation.name)))
        hasher.update(b"\x00")
    digest = hasher.hexdigest()
    setattr(instance, _DIGEST_MEMO_ATTR, (versions, digest))
    return digest


def job_id_for(
    sequence: int,
    fingerprint: str,
    data_token: str,
    params: Mapping[str, Any],
) -> str:
    """The deterministic id of the ``sequence``-th submitted job."""
    hasher = hashlib.sha256()
    hasher.update(fingerprint.encode("utf-8"))
    hasher.update(data_token.encode("utf-8"))
    hasher.update(repr(sorted(params.items())).encode("utf-8"))
    hasher.update(str(sequence).encode("utf-8"))
    return f"job-{sequence:05d}-{hasher.hexdigest()[:10]}"


@dataclass(frozen=True)
class JobError:
    """Structured failure record attached to a non-succeeded job.

    ``code`` is a stable machine-readable slug (``worker-crash``,
    ``timeout``, ``cancelled``, ``poisoned-artifact``, ``repair-error``,
    ``internal``); ``message`` the human text; ``details`` any
    error-specific payload (attempt counts, digests, timeout budgets).
    """

    code: str
    message: str
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "details": dict(self.details),
        }


class Job:
    """One repair request and its mutable lifecycle state.

    The service mutates status/result fields only under its own
    bookkeeping; readers get immutable :class:`JobView` snapshots.
    ``cancel_event`` is the cooperative cancellation token: bridge-thread
    execution checks it between pipeline stages and unwinds without
    touching the artifact cache when it fires.
    """

    __slots__ = (
        "id",
        "sequence",
        "instance",
        "constraints",
        "params",
        "fingerprint",
        "data_token",
        "timeout",
        "max_retries",
        "label",
        "status",
        "attempts",
        "error",
        "result",
        "trace",
        "cancel_event",
        "done",
        "submitted_at",
        "started_at",
        "finished_at",
    )

    def __init__(
        self,
        *,
        sequence: int,
        instance: DatabaseInstance,
        constraints: "tuple[DenialConstraint, ...]",
        params: Mapping[str, Any],
        fingerprint: str,
        data_token: str,
        timeout: float | None,
        max_retries: int,
        label: str = "",
    ) -> None:
        self.sequence = sequence
        self.instance = instance
        self.constraints = constraints
        self.params = dict(params)
        self.fingerprint = fingerprint
        self.data_token = data_token
        self.timeout = timeout
        self.max_retries = max_retries
        self.label = label
        self.id = job_id_for(sequence, fingerprint, data_token, self.params)
        self.status = PENDING
        self.attempts = 0
        self.error: JobError | None = None
        self.result: "RepairResult | None" = None
        self.trace: "Trace | None" = None
        self.cancel_event = threading.Event()
        self.done: "Any" = None  # asyncio.Event, bound by the service loop
        self.submitted_at: float | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None

    @property
    def terminal(self) -> bool:
        """True once the job reached a state it never leaves."""
        return self.status in TERMINAL_STATES

    def view(self) -> "JobView":
        """An immutable snapshot for status queries."""
        return JobView(
            id=self.id,
            sequence=self.sequence,
            status=self.status,
            attempts=self.attempts,
            label=self.label,
            fingerprint=self.fingerprint,
            data_token=self.data_token,
            error=self.error,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
        )

    def __repr__(self) -> str:
        return f"Job({self.id!r}, {self.status})"


@dataclass(frozen=True)
class JobView:
    """Immutable status snapshot of one job (the ``status`` API's answer)."""

    id: str
    sequence: int
    status: str
    attempts: int
    label: str
    fingerprint: str
    data_token: str
    error: JobError | None
    submitted_at: float | None
    started_at: float | None
    finished_at: float | None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def wall_seconds(self) -> float | None:
        """Submit-to-finish wall clock, once terminal."""
        if self.submitted_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "sequence": self.sequence,
            "status": self.status,
            "attempts": self.attempts,
            "label": self.label,
            "error": self.error.to_dict() if self.error else None,
            "wall_seconds": self.wall_seconds,
        }
