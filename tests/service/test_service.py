"""RepairService lifecycle: submit/status/result/cancel, timeouts, retries."""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import (
    BackpressureError,
    JobCancelledError,
    JobNotFoundError,
    JobTimeoutError,
    ServiceError,
)
from repro.repair.engine import repair_database
from repro.service import (
    CANCELLED,
    FAILED,
    JobRequest,
    RepairService,
    ScriptedFaults,
    SUCCEEDED,
    TIMED_OUT,
    instance_digest,
    job_id_for,
    run_jobs,
)


@pytest.fixture
def workload(make_clientbuy):
    return make_clientbuy(30, inconsistency_ratio=0.3, seed=7)


def request_for(workload, **kwargs):
    return JobRequest(workload.instance, tuple(workload.constraints), **kwargs)


class TestJobIdentity:
    def test_instance_digest_ignores_object_identity(self, make_clientbuy):
        a = make_clientbuy(20, seed=3)
        b = make_clientbuy(20, seed=3)
        assert a.instance is not b.instance
        assert instance_digest(a.instance) == instance_digest(b.instance)

    def test_instance_digest_sees_content(self, make_clientbuy):
        a = make_clientbuy(20, seed=3)
        b = make_clientbuy(20, seed=4)
        assert instance_digest(a.instance) != instance_digest(b.instance)

    def test_instance_digest_memo_tracks_mutations(self, make_clientbuy):
        """The memoized digest must never survive a mutation."""
        workload = make_clientbuy(20, seed=3)
        instance = workload.instance
        before = instance_digest(instance)
        assert instance_digest(instance) == before  # memo hit
        victim = instance.tuples("Client")[0]
        instance.replace_tuple(victim)  # same content, bumped version
        assert instance_digest(instance) == before
        relation = victim.relation
        values = list(victim.values)
        values[1] = values[1] + 1
        from repro.model.tuples import Tuple

        instance.replace_tuple(Tuple(relation, tuple(values)))
        assert instance_digest(instance) != before

    def test_instance_digest_builds_no_refs(self, make_clientbuy):
        workload = make_clientbuy(40, seed=5)
        instance = workload.instance
        assert all(t._ref is None for t in instance.all_tuples())
        instance_digest(instance)
        assert all(t._ref is None for t in instance.all_tuples())

    def test_instance_digest_ignores_insertion_order(self):
        from repro.model.instance import DatabaseInstance
        from repro.model.schema import Attribute, Relation, Schema

        schema = Schema(
            [Relation("R", [Attribute.hard("k"), Attribute.flexible("v")], key=["k"])]
        )
        # Mixed key types take the type-tagged order; ints alone the raw one.
        for keys in ([3, 10, -2, 7], [3, "10", True, "a\x00b", 10**30]):
            rows = [(key, index) for index, key in enumerate(keys)]
            forward, backward = DatabaseInstance(schema), DatabaseInstance(schema)
            for row in rows:
                forward.insert_row("R", row)
            for row in reversed(rows):
                backward.insert_row("R", row)
            assert instance_digest(forward) == instance_digest(backward)

    def test_job_ids_are_deterministic(self):
        first = job_id_for(3, "fp", "dt", {"algorithm": "greedy"})
        second = job_id_for(3, "fp", "dt", {"algorithm": "greedy"})
        assert first == second
        assert first.startswith("job-00003-")
        assert job_id_for(4, "fp", "dt", {"algorithm": "greedy"}) != first

    def test_resubmitted_batch_yields_same_ids(self, workload):
        views_a, _ = run_jobs([request_for(workload)] * 2, workers=1)
        views_b, _ = run_jobs([request_for(workload)] * 2, workers=1)
        assert [v.id for v in views_a] == [v.id for v in views_b]


class TestLifecycle:
    def test_submit_and_result(self, workload):
        async def scenario():
            async with RepairService(workers=2) as service:
                view = await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                result = await service.result(view.id)
                return service.status(view.id), result

        view, result = asyncio.run(scenario())
        assert view.status == SUCCEEDED
        serial = repair_database(workload.instance, workload.constraints)
        assert result.changes == serial.changes

    def test_unknown_param_rejected_at_submit(self, workload):
        async def scenario():
            async with RepairService(workers=1) as service:
                with pytest.raises(ServiceError, match="unknown job parameter"):
                    await service.submit(
                        workload.instance,
                        tuple(workload.constraints),
                        plan="nope",
                    )

        asyncio.run(scenario())

    def test_unknown_job_id(self, workload):
        async def scenario():
            async with RepairService(workers=1) as service:
                with pytest.raises(JobNotFoundError):
                    service.status("job-99999-deadbeef00")

        asyncio.run(scenario())

    def test_submit_requires_running_service(self, workload):
        service = RepairService(workers=1)

        async def scenario():
            with pytest.raises(ServiceError, match="not running"):
                await service.submit(
                    workload.instance, tuple(workload.constraints)
                )

        asyncio.run(scenario())

    def test_jobs_listing_in_submission_order(self, workload):
        views, service = run_jobs([request_for(workload)] * 3, workers=2)
        listed = service.jobs()
        assert [v.id for v in listed] == [v.id for v in views]
        assert all(v.terminal for v in listed)

    def test_wall_seconds_populated(self, workload):
        views, _ = run_jobs([request_for(workload)], workers=1)
        assert views[0].wall_seconds is not None
        assert views[0].wall_seconds >= 0


class TestBackpressure:
    def test_error_policy_surfaces_backpressure(self, workload):
        async def scenario():
            faults = ScriptedFaults(stall={(0, "repair"): 2.0})
            async with RepairService(
                workers=1, max_pending=1, backpressure="error", faults=faults
            ) as service:
                first = await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                await asyncio.sleep(0.1)  # worker picks up job 0, stalls
                await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                with pytest.raises(BackpressureError):
                    await service.submit(
                        workload.instance, tuple(workload.constraints)
                    )
                await service.cancel(first.id)

        asyncio.run(scenario())


class TestCancellation:
    def test_cancel_pending_job(self, workload):
        async def scenario():
            faults = ScriptedFaults(stall={(0, "repair"): 2.0})
            async with RepairService(workers=1, faults=faults) as service:
                running = await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                pending = await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                cancelled = await service.cancel(pending.id)
                assert cancelled.status == CANCELLED
                await service.cancel(running.id)
                with pytest.raises(JobCancelledError):
                    await service.result(pending.id)
                return service.status(running.id)

        running_view = asyncio.run(scenario())
        assert running_view.status == CANCELLED

    def test_cancel_running_job_unwinds_cooperatively(self, workload):
        async def scenario():
            faults = ScriptedFaults(stall={(0, "repair"): 30.0})
            async with RepairService(workers=1, faults=faults) as service:
                view = await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                await asyncio.sleep(0.1)
                await service.cancel(view.id)
                with pytest.raises(JobCancelledError):
                    await asyncio.wait_for(service.result(view.id), timeout=5.0)
                return service.status(view.id)

        view = asyncio.run(scenario())
        assert view.status == CANCELLED
        assert view.error is not None and view.error.code == "cancelled"

    def test_cancel_terminal_job_is_noop(self, workload):
        async def scenario():
            async with RepairService(workers=1) as service:
                view = await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                await service.result(view.id)
                again = await service.cancel(view.id)
                return again.status

        assert asyncio.run(scenario()) == SUCCEEDED


class TestTimeout:
    def test_stalled_job_times_out(self, workload):
        faults = ScriptedFaults(stall={(0, "repair"): 30.0})
        views, _ = run_jobs(
            [request_for(workload, timeout=0.3)], workers=1, faults=faults
        )
        assert views[0].status == TIMED_OUT
        assert views[0].error.code == "timeout"

    def test_result_raises_job_timeout(self, workload):
        async def scenario():
            faults = ScriptedFaults(stall={(0, "repair"): 30.0})
            async with RepairService(
                workers=1, job_timeout=0.3, faults=faults
            ) as service:
                view = await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                with pytest.raises(JobTimeoutError) as excinfo:
                    await asyncio.wait_for(service.result(view.id), timeout=10.0)
                assert excinfo.value.job_id == view.id

        asyncio.run(scenario())

    def test_fast_job_beats_budget(self, workload):
        views, _ = run_jobs(
            [request_for(workload, timeout=60.0)], workers=1
        )
        assert views[0].status == SUCCEEDED


class TestRetry:
    def test_transient_crash_retried_to_success(self, workload):
        faults = ScriptedFaults(kill={(0, "detect"): 2})
        views, service = run_jobs(
            [request_for(workload)],
            workers=1,
            faults=faults,
            max_retries=2,
            retry_backoff=0.01,
        )
        assert views[0].status == SUCCEEDED
        assert views[0].attempts == 3
        retries = [
            c.value
            for c in service.metrics.counters()
            if c.name == "service_job_retries"
        ]
        assert retries == [2]

    def test_exhausted_retries_fail_with_worker_crash(self, workload):
        faults = ScriptedFaults(kill={(0, "start"): 99})
        views, _ = run_jobs(
            [request_for(workload)],
            workers=1,
            faults=faults,
            max_retries=1,
            retry_backoff=0.01,
        )
        assert views[0].status == FAILED
        assert views[0].error.code == "worker-crash"
        assert views[0].attempts == 2

    def test_result_carries_structured_error(self, workload):
        async def scenario():
            faults = ScriptedFaults(kill={(0, "start"): 99})
            async with RepairService(
                workers=1, faults=faults, max_retries=0, retry_backoff=0.0
            ) as service:
                view = await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                with pytest.raises(ServiceError) as excinfo:
                    await service.result(view.id)
                return excinfo.value

        error = asyncio.run(scenario())
        assert error.job_error.code == "worker-crash"


class TestBadParams:
    @pytest.mark.parametrize("algorithm", ["no-such-solver", None])
    @pytest.mark.parametrize("consistent", [False, True])
    def test_bad_algorithm_is_a_repair_error(self, workload, algorithm, consistent):
        instance = workload.instance
        if consistent:
            instance = repair_database(instance, workload.constraints).repaired
        views, _ = run_jobs(
            [
                JobRequest(
                    instance,
                    tuple(workload.constraints),
                    params={"algorithm": algorithm},
                )
            ],
            workers=1,
        )
        assert views[0].status == FAILED
        assert views[0].error.code == "repair-error"
        assert "unknown set-cover algorithm" in views[0].error.message


class TestArtifactSharing:
    def test_repeat_jobs_hit_the_cache(self, workload):
        views, service = run_jobs([request_for(workload)] * 4, workers=1)
        assert all(v.status == SUCCEEDED for v in views)
        stats = service.cache.stats()
        # Job 0 misses plan+violations; jobs 1-3 hit both.
        assert stats["misses"] == 2
        assert stats["hits"] >= 6

    def test_poisoned_artifact_refused_with_structured_error(self, workload):
        faults = ScriptedFaults(poison={0: "violations"})
        views, service = run_jobs(
            [request_for(workload)] * 2, workers=1, faults=faults
        )
        assert views[0].status == SUCCEEDED
        assert views[1].status == FAILED
        assert views[1].error.code == "poisoned-artifact"
        assert views[1].error.details["kind"] == "violations"
        # The poisoned entry was evicted, not served.
        assert service.cache.stats()["poisoned"] == 1

    def test_distinct_data_gets_distinct_violation_entries(self, make_clientbuy):
        a = make_clientbuy(25, inconsistency_ratio=0.3, seed=1)
        b = make_clientbuy(25, inconsistency_ratio=0.3, seed=2)
        requests = [
            JobRequest(a.instance, tuple(a.constraints)),
            JobRequest(b.instance, tuple(b.constraints)),
        ]
        views, service = run_jobs(requests, workers=1)
        assert all(v.status == SUCCEEDED for v in views)
        violation_keys = [
            key for key in service.cache.keys() if key[0] == "violations"
        ]
        assert len(violation_keys) == 2  # same fingerprint, two data tokens


class TestTracing:
    def test_trace_jobs_records_span_tree_per_job(self, workload):
        views, service = run_jobs(
            [request_for(workload)] * 2, workers=2, trace_jobs=True
        )
        for view in views:
            trace = service.trace_of(view.id)
            assert trace is not None
            names = {span.name for root in trace.roots for span in root.walk()}
            assert "repair" in names
