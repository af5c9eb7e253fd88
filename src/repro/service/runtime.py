"""Repair-as-a-service: the async job runtime over the repair pipeline.

:class:`RepairService` is a long-running asyncio runtime that accepts
repair jobs, admits them through a bounded
:class:`~repro.service.queue.JobQueue`, and executes each on a *bridge*
thread pool calling straight into :func:`repro.repair.engine.repair_database`.
The service adds what one-shot calls lack:

* **admission control** - ``max_pending`` + the streaming layer's
  ``block``/``error`` backpressure policies;
* **per-job timeouts** with cooperative cancellation (jobs check their
  ``cancel_event`` between pipeline stages and unwind without hanging a
  worker slot);
* **retry with exponential backoff** for transient
  :class:`~repro.exceptions.WorkerCrashError` failures;
* an :class:`~repro.service.cache.ArtifactCache` shared across jobs:
  compiled plans and lint reports keyed by the PR-8 program fingerprint,
  detected violation lists additionally keyed by a content digest of the
  data - so N tenants repairing the same workload compile and detect
  once;
* per-job **trace spans** (``trace_jobs=True``): each job runs under its
  own :class:`~repro.obs.trace.Tracer`, and thread-local tracer
  activation guarantees two live jobs never interleave spans.

Determinism contract (the concurrency harness's invariant): a job's
result is byte-identical to a serial ``repair_database(instance,
constraints, **params)`` call - cached plans and violations feed the
exact code path the engine itself would take, and PR 8's planned ≡
unplanned parity carries the rest.

The synchronous entry points :func:`run_jobs` / ``repro serve`` wrap the
async API for scripts, tests and the CI stress leg.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.constraints.denial import DenialConstraint
from repro.exceptions import (
    JobCancelledError,
    JobNotFoundError,
    JobTimeoutError,
    PoisonedArtifactError,
    ReproError,
    RuntimeConfigError,
    ServiceError,
    WorkerCrashError,
)
from repro.model.instance import DatabaseInstance
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.plan.compiler import compile_program
from repro.plan.program import program_fingerprint
from repro.repair.engine import repair_database
from repro.repair.result import RepairResult
from repro.service.cache import LINT, PLAN, VIOLATIONS, ArtifactCache
from repro.service.faults import NO_FAULTS, FaultPolicy
from repro.service.jobs import (
    CANCELLED,
    FAILED,
    PENDING,
    RUNNING,
    SUCCEEDED,
    TIMED_OUT,
    Job,
    JobError,
    JobView,
    instance_digest,
)
from repro.service.queue import JobQueue

#: ``repair_database`` keyword arguments a job may carry.  ``violations``,
#: ``plan`` and ``trace`` are owned by the service; ``preflight`` is
#: subsumed by the cached lint report.
ALLOWED_PARAMS = frozenset(
    {
        "algorithm",
        "metric",
        "verify",
        "check_locality",
        "simplify",
        "parallel",
        "engine",
    }
)


class _Cancelled(Exception):
    """Internal: the bridge thread observed the job's cancel event."""


@dataclass(frozen=True)
class JobRequest:
    """One repair submission for the batch entry points.

    ``params`` are forwarded to ``repair_database`` (validated against
    :data:`ALLOWED_PARAMS`); ``timeout`` overrides the service default
    when set (``None`` keeps the service's ``job_timeout``).
    """

    instance: DatabaseInstance
    constraints: "tuple[DenialConstraint, ...]"
    params: Mapping[str, Any] = field(default_factory=dict)
    timeout: float | None = None
    label: str = ""


class RepairService:
    """Asyncio job runtime bridging onto the repair pipeline.

    Use as an async context manager::

        async with RepairService(workers=4) as service:
            view = await service.submit(instance, constraints)
            result = await service.result(view.id)

    All coroutine methods must run on the loop that entered the service.
    """

    def __init__(
        self,
        workers: int = 2,
        max_pending: int | None = None,
        backpressure: str = "block",
        job_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        cache: "ArtifactCache | None" = None,
        cache_entries: int = 256,
        faults: FaultPolicy = NO_FAULTS,
        trace_jobs: bool = False,
    ) -> None:
        if workers < 1:
            raise RuntimeConfigError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise RuntimeConfigError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise RuntimeConfigError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        if job_timeout is not None and job_timeout <= 0:
            raise RuntimeConfigError(
                f"job_timeout must be positive or None, got {job_timeout}"
            )
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.metrics = MetricsRegistry()
        self.cache = (
            cache
            if cache is not None
            else ArtifactCache(max_entries=cache_entries, metrics=self.metrics)
        )
        self.faults = faults
        self.trace_jobs = trace_jobs
        self.queue = JobQueue(max_pending=max_pending, backpressure=backpressure)
        self._jobs: "dict[str, Job]" = {}
        self._sequence = itertools.count()
        self._worker_tasks: "list[asyncio.Task]" = []
        self._bridge: "ThreadPoolExecutor | None" = None
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    async def __aenter__(self) -> "RepairService":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.shutdown(wait=exc_type is None)
        return False

    async def start(self) -> None:
        """Spin up the bridge pool and the worker tasks."""
        if self._started:
            return
        self._started = True
        self._bridge = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"repro-service-worker-{i}")
            for i in range(self.workers)
        ]

    async def shutdown(self, wait: bool = True) -> None:
        """Stop the service.

        ``wait=True`` drains every admitted job first; ``wait=False``
        cancels pending jobs and cooperatively cancels running ones.
        Idempotent; afterwards the service accepts no submissions.
        """
        if not self._started:
            return
        await self.queue.close()
        if not wait:
            for job in list(self._jobs.values()):
                if not job.terminal:
                    await self.cancel(job.id)
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
            self._worker_tasks = []
        if self._bridge is not None:
            self._bridge.shutdown(wait=True)
            self._bridge = None
        self._started = False

    # -- public API ---------------------------------------------------------

    async def submit(
        self,
        instance: DatabaseInstance,
        constraints: "Sequence[DenialConstraint]",
        *,
        timeout: "float | None | object" = ...,
        label: str = "",
        **params: Any,
    ) -> JobView:
        """Admit one repair job; returns its (pending) view.

        Blocks (or raises :class:`~repro.exceptions.BackpressureError`,
        per the queue policy) when the queue is at its bound.  ``params``
        forward to ``repair_database``; unknown names are rejected here,
        before the job ever occupies a slot.
        """
        if not self._started:
            raise ServiceError("service is not running; use 'async with' or start()")
        unknown = set(params) - ALLOWED_PARAMS
        if unknown:
            raise ServiceError(
                f"unknown job parameter(s) {sorted(unknown)}; "
                f"allowed: {sorted(ALLOWED_PARAMS)}"
            )
        constraints = tuple(constraints)
        fingerprint = program_fingerprint(instance.schema, constraints)
        job = Job(
            sequence=next(self._sequence),
            instance=instance,
            constraints=constraints,
            params=params,
            fingerprint=fingerprint,
            data_token=instance_digest(instance),
            timeout=self.job_timeout if timeout is ... else timeout,
            max_retries=self.max_retries,
            label=label,
        )
        job.done = asyncio.Event()
        job.submitted_at = time.monotonic()
        self._jobs[job.id] = job
        try:
            await self.queue.put(job)
        except Exception:
            del self._jobs[job.id]
            raise
        self.metrics.counter("service_jobs_submitted").inc()
        return job.view()

    def status(self, job_id: str) -> JobView:
        """The current snapshot of one job."""
        return self._job(job_id).view()

    def jobs(self) -> "tuple[JobView, ...]":
        """Snapshots of every known job, in submission order."""
        ordered = sorted(self._jobs.values(), key=lambda j: j.sequence)
        return tuple(job.view() for job in ordered)

    async def result(self, job_id: str) -> RepairResult:
        """Await a job's terminal state and return its repair result.

        Raises :class:`~repro.exceptions.JobCancelledError` /
        :class:`~repro.exceptions.JobTimeoutError` for those terminal
        states, and :class:`~repro.exceptions.ServiceError` (carrying the
        structured :class:`~repro.service.jobs.JobError`) for failures.
        """
        job = self._job(job_id)
        await job.done.wait()
        if job.status == SUCCEEDED:
            assert job.result is not None
            return job.result
        if job.status == CANCELLED:
            raise JobCancelledError(f"job {job.id} was cancelled", job_id=job.id)
        if job.status == TIMED_OUT:
            raise JobTimeoutError(
                f"job {job.id} exceeded its {job.timeout}s budget",
                job_id=job.id,
                timeout=job.timeout or 0.0,
            )
        error = job.error or JobError("internal", "job failed without error record")
        exc = ServiceError(f"job {job.id} failed [{error.code}]: {error.message}")
        exc.job_error = error  # type: ignore[attr-defined]
        raise exc

    async def cancel(self, job_id: str) -> JobView:
        """Cancel one job: withdraw if pending, cooperatively if running."""
        job = self._job(job_id)
        if job.terminal:
            return job.view()
        if job.status == PENDING and await self.queue.withdraw(job):
            self._finish(job, CANCELLED, error=JobError("cancelled", "cancelled while pending"))
            return job.view()
        # Running (or being picked up): flag it; the bridge thread unwinds
        # at its next stage boundary and the worker records the state.
        job.cancel_event.set()
        return job.view()

    def trace_of(self, job_id: str):
        """The finished per-job trace (``trace_jobs=True`` runs only)."""
        return self._job(job_id).trace

    # -- internals ----------------------------------------------------------

    def _job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no job {job_id!r} in this service")
        return job

    def _finish(self, job: Job, status: str, error: "JobError | None" = None) -> None:
        job.status = status
        job.error = error
        job.finished_at = time.monotonic()
        self.metrics.counter(
            "service_jobs_finished", status=status
        ).inc()
        if job.done is not None:
            job.done.set()

    async def _worker(self) -> None:
        while True:
            job = await self.queue.get()
            if job is None:
                return
            if job.terminal:  # withdrawn between get() races — nothing to do
                continue
            if job.cancel_event.is_set():
                self._finish(
                    job, CANCELLED, error=JobError("cancelled", "cancelled before start")
                )
                continue
            job.status = RUNNING
            job.started_at = time.monotonic()
            await self._execute(job)

    async def _execute(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        assert self._bridge is not None
        attempt = 0
        while True:
            attempt += 1
            job.attempts = attempt
            timed_out = False
            future = loop.run_in_executor(self._bridge, self._run_job_sync, job)
            if job.timeout is not None:
                done, _ = await asyncio.wait({future}, timeout=job.timeout)
                if not done:
                    timed_out = True
                    job.cancel_event.set()
            try:
                result = await future
            except _Cancelled:
                if timed_out:
                    self._finish(
                        job,
                        TIMED_OUT,
                        error=JobError(
                            "timeout",
                            f"exceeded the {job.timeout}s job budget",
                            details={"timeout": job.timeout, "attempts": attempt},
                        ),
                    )
                else:
                    self._finish(
                        job,
                        CANCELLED,
                        error=JobError("cancelled", "cancelled while running"),
                    )
                return
            except WorkerCrashError as error:
                if job.cancel_event.is_set():
                    status = TIMED_OUT if timed_out else CANCELLED
                    self._finish(
                        job,
                        status,
                        error=JobError(
                            "timeout" if timed_out else "cancelled", str(error)
                        ),
                    )
                    return
                if attempt <= job.max_retries:
                    self.metrics.counter("service_job_retries").inc()
                    await asyncio.sleep(
                        self.retry_backoff * (2 ** (attempt - 1))
                    )
                    continue
                self._finish(
                    job,
                    FAILED,
                    error=JobError(
                        "worker-crash",
                        f"worker crashed on all {attempt} attempt(s): {error}",
                        details={"attempts": attempt},
                    ),
                )
                return
            except PoisonedArtifactError as error:
                self._finish(
                    job,
                    FAILED,
                    error=JobError(
                        "poisoned-artifact",
                        str(error),
                        details={
                            "kind": error.kind,
                            "expected": error.expected,
                            "actual": error.actual,
                        },
                    ),
                )
                return
            except ReproError as error:
                self._finish(
                    job,
                    FAILED,
                    error=JobError("repair-error", str(error)),
                )
                return
            except Exception as error:  # noqa: BLE001 - job boundary
                self._finish(
                    job,
                    FAILED,
                    error=JobError(
                        "internal", f"{type(error).__name__}: {error}"
                    ),
                )
                return
            else:
                if timed_out:
                    # The budget elapsed even though the attempt raced to
                    # completion — the timeout contract wins.
                    self._finish(
                        job,
                        TIMED_OUT,
                        error=JobError(
                            "timeout",
                            f"exceeded the {job.timeout}s job budget",
                            details={"timeout": job.timeout, "attempts": attempt},
                        ),
                    )
                    return
                job.result = result
                self._finish(job, SUCCEEDED)
                return

    # -- bridge-thread execution (synchronous) ------------------------------

    def _check_cancel(self, job: Job) -> None:
        if job.cancel_event.is_set():
            raise _Cancelled(job.id)

    def _run_job_sync(self, job: Job) -> RepairResult:
        """Execute one attempt of ``job`` on the bridge thread.

        Stage order (fault hooks fire at each): start → plan → detect →
        repair → finish.  Artifacts flow through the shared cache; a
        poisoned entry propagates as a structured failure, it is never
        recomputed silently.
        """
        faults = self.faults
        cache = self.cache
        faults.on_stage(job, "start")
        self._check_cancel(job)

        tracer = Tracer(job.id) if self.trace_jobs else NULL_TRACER
        with tracer.activate():
            # simplify rewrites the constraint set before detection, so the
            # cached plan/violations (keyed on the unsimplified fingerprint)
            # cannot be reused - those jobs take the plain engine path.
            simplify = bool(job.params.get("simplify"))
            engine = job.params.get("engine", "auto")
            plan = None
            if not simplify:
                plan = cache.get(PLAN, job.fingerprint)
                if plan is None:
                    plan = compile_program(job.instance.schema, job.constraints)
                    cache.put(PLAN, job.fingerprint, plan)
                    faults.on_artifact_put(job, cache, PLAN, "")
                    cache.put(LINT, job.fingerprint, plan.lint)
                    faults.on_artifact_put(job, cache, LINT, "")
            faults.on_stage(job, "plan")
            self._check_cancel(job)

            faults.on_stage(job, "detect")
            violations = None
            if not simplify:
                violations = cache.get(VIOLATIONS, job.fingerprint, job.data_token)
                if violations is not None and not _violations_valid(
                    job.instance, violations
                ):
                    cache.invalidate(VIOLATIONS, job.fingerprint, job.data_token)
                    violations = None
                if violations is None:
                    # The engine's own detection (its ``engine`` chain over
                    # the plan's surviving constraints), so cached
                    # violations are byte-identical to uncached ones.
                    from repro.plan import runtime as plan_runtime

                    violations = plan_runtime.planned_find_all_violations(
                        job.instance, job.constraints, plan, engine=engine
                    )
                    cache.put(
                        VIOLATIONS, job.fingerprint, violations, job.data_token
                    )
                    faults.on_artifact_put(job, cache, VIOLATIONS, job.data_token)
            self._check_cancel(job)

            faults.on_stage(job, "repair")
            self._check_cancel(job)
            result = repair_database(
                job.instance,
                job.constraints,
                violations=violations,
                plan=plan,
                trace=tracer if tracer.enabled else False,
                **job.params,
            )
            faults.on_stage(job, "finish")
        if tracer.enabled:
            job.trace = tracer.finish()
        return result


def _violations_valid(instance: DatabaseInstance, violations) -> bool:
    """Defensive reuse check: every cached violation tuple must still
    exist (content-equal) in this instance; otherwise treat as a miss.

    Each member is looked up by key in its relation's table, so the
    check costs O(members), not O(|D|).  A
    :class:`~repro.violations.columns.ViolationColumns` lists its
    distinct members, so the check builds no violation set."""
    from repro.violations.columns import ViolationColumns

    members = (
        violations.tuples
        if isinstance(violations, ViolationColumns)
        else (tup for violation in violations for tup in violation)
    )
    return all(tup in instance for tup in members)


# ---------------------------------------------------------------------------
# synchronous batch entry point (tests, CLI, stress harness)


async def _run_jobs_async(
    requests: "Sequence[JobRequest]", **service_options: Any
) -> "tuple[tuple[JobView, ...], RepairService]":
    async with RepairService(**service_options) as service:
        views = []
        for request in requests:
            extra: "dict[str, Any]" = {}
            if request.timeout is not None:
                extra["timeout"] = request.timeout
            views.append(
                await service.submit(
                    request.instance,
                    request.constraints,
                    label=request.label,
                    **extra,
                    **dict(request.params),
                )
            )
        for view in views:
            await service._job(view.id).done.wait()
        final = tuple(service.status(view.id) for view in views)
    return final, service


def run_jobs(
    requests: "Sequence[JobRequest]", **service_options: Any
) -> "tuple[tuple[JobView, ...], RepairService]":
    """Run a batch of jobs to completion on a private event loop.

    Returns the terminal views (submission order) and the shut-down
    service - whose ``cache``, ``metrics`` and per-job results/traces
    remain readable.  This is the synchronous facade used by ``repro
    serve`` and the stress harness.
    """
    return asyncio.run(_run_jobs_async(requests, **service_options))
