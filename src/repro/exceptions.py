"""Exception hierarchy for the :mod:`repro` database-repair library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The subclasses partition failures by
the subsystem that detected them: schema definition, constraint definition,
repair computation, configuration parsing, and storage backends.
"""

from __future__ import annotations

from typing import Any, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """Invalid schema definition (bad attribute, key, or weight)."""


class InstanceError(ReproError):
    """Invalid database instance (arity mismatch, key violation, ...)."""


class KeyViolationError(InstanceError):
    """A primary-key constraint of the input instance is violated.

    The paper assumes ``D |= K`` for the initial instance; loading data that
    breaks a key is a hard error, not an inconsistency to be repaired.
    """


class ConstraintError(ReproError):
    """Invalid denial constraint (unknown relation/attribute, bad atom)."""


class ConstraintParseError(ConstraintError):
    """The textual denial-constraint DSL could not be parsed."""


class LocalityError(ConstraintError):
    """A constraint set is not *local* (Section 2 conditions (a)-(c)).

    Local fixes are only guaranteed to exist - and to not cascade into new
    violations - for local constraint sets, so the repair engine refuses to
    run the attribute-update algorithms on non-local input.

    ``diagnostics`` carries *all* failing conditions as structured
    :class:`~repro.lint.diagnostics.Diagnostic` records (the message is
    the first one's, preserving the historical fail-first text).
    """

    def __init__(self, message: str = "", diagnostics: "Sequence[Any]" = ()) -> None:
        super().__init__(message)
        self.diagnostics: tuple[Any, ...] = tuple(diagnostics)


class RepairError(ReproError):
    """The repair computation itself failed."""


class BackpressureError(RepairError):
    """A streaming-repair submission exceeded ``max_pending_updates``.

    Raised by :class:`~repro.repair.streaming.StreamingRepairer` under the
    ``"error"`` backpressure policy when accepting one more update would
    push the pending (coalesced) queue past its bound.  The rejected
    update is *not* enqueued - callers own the retry - and nothing
    already queued is dropped.  ``pending`` / ``max_pending`` carry the
    queue state at rejection time.
    """

    def __init__(self, message: str, pending: int = 0, max_pending: int = 0) -> None:
        super().__init__(message)
        self.pending = pending
        self.max_pending = max_pending


class UnrepairableError(RepairError):
    """No repair candidate exists for the given instance and constraints."""


class SetCoverError(ReproError):
    """Malformed set-cover instance or solver failure."""


class UncoverableError(SetCoverError):
    """Some universe element belongs to no set, so no cover exists."""


class KernelError(ReproError):
    """The columnar detection-kernel engine is unavailable or unsupported.

    Raised when ``engine="kernel"`` is requested without NumPy installed,
    or when a constraint/data shape has no vectorized plan (e.g. an order
    comparison over a non-integer column).  The ``auto`` engine catches
    this internally and falls back to the interpreted detector.
    """


class PushdownError(ReproError):
    """The SQL pushdown detection engine is unavailable or unsupported.

    Raised when ``engine="pushdown"`` is requested for an instance that is
    not *backend-resident* (loaded via a SQL backend's ``load_instance``
    and unmodified since), or when a constraint's violation SQL cannot be
    executed faithfully inside the backend (non-integer or NULL data in a
    compared column, where SQL comparison semantics diverge from Python).
    The ``auto`` engine catches this internally and falls back to the
    kernel/interpreted detectors.
    """


class PlanError(ReproError):
    """Static plan compilation or execution failed.

    Raised by :mod:`repro.plan` when a :class:`~repro.plan.CompiledProgram`
    cannot be built (strict compilation over statically non-compilable
    constraints), deserialized, or applied.  ``diagnostics`` carries the
    structured :class:`~repro.lint.diagnostics.Diagnostic` records that
    explain the failure (codes ``LINT060``-``LINT062``).
    """

    def __init__(self, message: str, diagnostics: "Sequence[Any]" = ()) -> None:
        super().__init__(message)
        self.diagnostics: tuple[Any, ...] = tuple(diagnostics)


class StalePlanError(PlanError):
    """A compiled plan no longer matches the live (schema, constraints).

    Raised - never silently ignored - when a
    :class:`~repro.plan.CompiledProgram` is handed to the runtime
    (``repair_database(plan=...)``, :class:`IncrementalRepairer`,
    :class:`StreamingRepairer`) whose content fingerprint disagrees with
    the fingerprint of the live schema and constraint set.  ``expected``
    and ``actual`` carry the two SHA-256 hex digests; the attached
    diagnostic uses code ``LINT062``.
    """

    def __init__(
        self,
        message: str,
        *,
        expected: str = "",
        actual: str = "",
        diagnostics: "Sequence[Any]" = (),
    ) -> None:
        super().__init__(message, diagnostics=diagnostics)
        self.expected = expected
        self.actual = actual


class LintError(ReproError):
    """The static constraint analyzer found gating diagnostics.

    Raised by the preflight hook (``lint.preflight`` in the configuration,
    or ``repair_database(..., preflight=True)``) when the
    :class:`~repro.lint.diagnostics.LintReport` - attached as ``report`` -
    contains diagnostics at or above the configured ``fail_on`` severity.
    """

    def __init__(self, message: str, report: Any = None) -> None:
        super().__init__(message)
        self.report = report


class ServiceError(ReproError):
    """The repair-as-a-service job runtime failed (:mod:`repro.service`)."""


class JobNotFoundError(ServiceError):
    """No job with the requested id exists in this service."""


class JobCancelledError(ServiceError):
    """The awaited job was cancelled before it produced a result.

    Raised by ``RepairService.result`` when the job reached the
    ``cancelled`` terminal state; ``job_id`` names the job.
    """

    def __init__(self, message: str, job_id: str = "") -> None:
        super().__init__(message)
        self.job_id = job_id


class JobTimeoutError(ServiceError):
    """The awaited job exceeded its per-job timeout.

    The job was cooperatively cancelled and left the queue and artifact
    cache in a consistent state; ``job_id`` / ``timeout`` carry the
    job and its budget in seconds.
    """

    def __init__(self, message: str, job_id: str = "", timeout: float = 0.0) -> None:
        super().__init__(message)
        self.job_id = job_id
        self.timeout = timeout


class WorkerCrashError(ServiceError):
    """A service worker died mid-job (transient - the runtime retries).

    Raised by the fault-injection layer and by genuinely broken worker
    pools.  Classified *transient*: the job runtime retries the job with
    backoff up to its ``max_retries`` budget before failing the job with
    this error as the structured cause.
    """


class PoisonedArtifactError(ServiceError):
    """A cached artifact failed its integrity check and was refused.

    Raised - never silently served - by
    :class:`~repro.service.cache.ArtifactCache` when a stored entry's
    content digest no longer matches the one recorded at insertion time
    (a poisoned or corrupted artifact).  The entry is evicted as a side
    effect; ``kind`` / ``key`` identify it, ``expected`` / ``actual``
    carry the two digests.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "",
        key: "tuple[Any, ...] | str" = "",
        expected: str = "",
        actual: str = "",
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.key = key
        self.expected = expected
        self.actual = actual


class ConfigError(ReproError):
    """Invalid repair-program configuration (Figure 1 configuration file)."""


class RuntimeConfigError(ConfigError):
    """Invalid runtime option (unknown backend, bad worker or queue bound)."""


class BackendError(ReproError):
    """Storage backend failure (connection, SQL, export)."""
