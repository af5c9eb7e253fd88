"""The concurrency harness: N concurrent jobs == N serial repairs.

The service's determinism contract, proven property-style: whatever mix
of workloads, parameters, worker counts and (recoverable) injected
faults, every job's result is byte-identical to a plain serial
``repair_database`` call - and cancelled / timed-out / poisoned jobs
leave the queue and the artifact cache consistent for their successors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import RuntimeConfigError
from repro.repair.engine import repair_database
from repro.setcover.decompose import decomposes
from repro.service import (
    CANCELLED,
    FAILED,
    JobRequest,
    ScriptedFaults,
    SUCCEEDED,
    TIMED_OUT,
    run_jobs,
)
from repro.workloads.clientbuy import client_buy_workload


def _assert_same(service_result, serial):
    assert service_result.changes == serial.changes
    assert service_result.repaired == serial.repaired
    assert service_result.cover_weight == serial.cover_weight
    assert service_result.violations_before == serial.violations_before
    assert service_result.verified and serial.verified


def _serial(workload, params):
    return repair_database(workload.instance, workload.constraints, **params)


#: Small parameter space: every value must keep a job fast enough for
#: hypothesis to explore dozens of schedules.
param_sets = st.fixed_dictionaries(
    {},
    optional={
        "algorithm": st.sampled_from(["greedy", "layer"]),
        "engine": st.sampled_from(["auto", "interpreted"]),
        "simplify": st.just(True),
    },
)

workload_specs = st.tuples(
    st.integers(min_value=5, max_value=30),  # n_clients
    st.integers(min_value=0, max_value=6),  # seed
)


class TestConcurrentParity:
    @settings(max_examples=20, deadline=None)
    @given(
        specs=st.lists(workload_specs, min_size=1, max_size=4),
        params=param_sets,
        workers=st.integers(min_value=1, max_value=4),
    )
    def test_jobs_match_serial_repairs(self, specs, params, workers):
        workloads = [
            client_buy_workload(n, inconsistency_ratio=0.4, seed=seed)
            for n, seed in specs
        ]
        requests = [
            JobRequest(w.instance, tuple(w.constraints), params=params)
            for w in workloads
        ]
        views, service = run_jobs(requests, workers=workers)
        assert [v.status for v in views] == [SUCCEEDED] * len(views)
        for view, workload in zip(views, workloads):
            result = service._job(view.id).result
            _assert_same(result, _serial(workload, params))

    @settings(max_examples=10, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=3),
        kills=st.integers(min_value=0, max_value=2),
    )
    def test_parity_survives_recoverable_crashes(self, workers, kills):
        """Kills within the retry budget are invisible in the results."""
        workload = client_buy_workload(25, inconsistency_ratio=0.4, seed=5)
        faults = ScriptedFaults(
            kill={(i, "detect"): kills for i in range(3)}
        )
        requests = [JobRequest(workload.instance, tuple(workload.constraints))] * 3
        views, service = run_jobs(
            requests,
            workers=workers,
            faults=faults,
            max_retries=2,
            retry_backoff=0.0,
        )
        serial = _serial(workload, {})
        for view in views:
            assert view.status == SUCCEEDED
            assert view.attempts == kills + 1
            _assert_same(service._job(view.id).result, serial)

    def test_auto_parallel_jobs_match_serial(self):
        """Jobs that decompose in-process under ``parallel="auto"``."""
        workload = client_buy_workload(40, inconsistency_ratio=0.4, seed=11)
        params = {"parallel": "auto"}
        requests = [
            JobRequest(workload.instance, tuple(workload.constraints), params=params)
        ] * 3
        views, service = run_jobs(requests, workers=3)
        serial = _serial(workload, {})
        for view in views:
            assert view.status == SUCCEEDED
            _assert_same(service._job(view.id).result, serial)

    def test_mixed_parameter_jobs_stay_independent(self):
        """Different params over the same data share plan/violations
        without contaminating each other's results."""
        workload = client_buy_workload(30, inconsistency_ratio=0.4, seed=2)
        param_mix = [
            {"algorithm": "greedy"},
            {"algorithm": "layer"},
            {"algorithm": "modified-layer"},
            {"simplify": True},
        ]
        requests = [
            JobRequest(workload.instance, tuple(workload.constraints), params=p)
            for p in param_mix
        ]
        views, service = run_jobs(requests, workers=4)
        for view, params in zip(views, param_mix):
            assert view.status == SUCCEEDED
            _assert_same(service._job(view.id).result, _serial(workload, params))


class TestFaultedNeighbours:
    """Failed, timed-out and cancelled jobs must not disturb survivors."""

    def test_exhausted_crash_leaves_neighbours_intact(self):
        workload = client_buy_workload(25, inconsistency_ratio=0.4, seed=9)
        faults = ScriptedFaults(kill={(1, "start"): 99})
        requests = [JobRequest(workload.instance, tuple(workload.constraints))] * 3
        views, service = run_jobs(
            requests, workers=2, faults=faults, max_retries=1, retry_backoff=0.0
        )
        serial = _serial(workload, {})
        assert views[1].status == FAILED
        assert views[1].error.code == "worker-crash"
        for view in (views[0], views[2]):
            assert view.status == SUCCEEDED
            _assert_same(service._job(view.id).result, serial)

    def test_timed_out_job_leaves_cache_consistent(self):
        workload = client_buy_workload(25, inconsistency_ratio=0.4, seed=9)
        faults = ScriptedFaults(stall={(0, "repair"): 30.0})
        requests = [
            JobRequest(workload.instance, tuple(workload.constraints), timeout=0.3),
            JobRequest(workload.instance, tuple(workload.constraints)),
        ]
        views, service = run_jobs(requests, workers=1, faults=faults)
        assert views[0].status == TIMED_OUT
        assert views[1].status == SUCCEEDED
        # The timed-out attempt populated plan+violations before stalling;
        # the survivor reuses them and still matches a serial repair.
        _assert_same(service._job(views[1].id).result, _serial(workload, {}))
        assert len(service.queue) == 0

    def test_poisoned_artifact_fails_exactly_the_reader(self):
        """Job 1 reads the poisoned violations entry and fails with a
        structured error; the eviction means job 2 recomputes cleanly."""
        workload = client_buy_workload(25, inconsistency_ratio=0.4, seed=9)
        faults = ScriptedFaults(poison={0: "violations"})
        requests = [JobRequest(workload.instance, tuple(workload.constraints))] * 3
        views, service = run_jobs(requests, workers=1, faults=faults)
        assert [v.status for v in views] == [SUCCEEDED, FAILED, SUCCEEDED]
        assert views[1].error.code == "poisoned-artifact"
        serial = _serial(workload, {})
        _assert_same(service._job(views[0].id).result, serial)
        _assert_same(service._job(views[2].id).result, serial)

    def test_thread_backend_job_fails_alone(self):
        """A job asking for the retired thread backend fails with the
        structured ``RuntimeConfigError``; its neighbours still succeed."""
        workload = client_buy_workload(25, inconsistency_ratio=0.4, seed=9)
        requests = [
            JobRequest(workload.instance, tuple(workload.constraints), params=params)
            for params in ({}, {"parallel": "thread"}, {})
        ]
        views, service = run_jobs(requests, workers=2)
        assert [v.status for v in views] == [SUCCEEDED, FAILED, SUCCEEDED]
        with pytest.raises(RuntimeConfigError) as expected:
            decomposes("thread")
        assert views[1].error.code == "repair-error"
        assert views[1].error.message == str(expected.value)
        serial = _serial(workload, {})
        _assert_same(service._job(views[0].id).result, serial)
        _assert_same(service._job(views[2].id).result, serial)

    def test_cancelled_pending_jobs_leave_queue_consistent(self):
        import asyncio

        from repro.service import RepairService

        workload = client_buy_workload(25, inconsistency_ratio=0.4, seed=9)

        async def scenario():
            faults = ScriptedFaults(stall={(0, "repair"): 1.0})
            async with RepairService(workers=1, faults=faults) as service:
                running = await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                doomed = await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                survivor = await service.submit(
                    workload.instance, tuple(workload.constraints)
                )
                await service.cancel(doomed.id)
                result = await service.result(survivor.id)
                await service.result(running.id)
                return service.status(doomed.id), result, service

        doomed_view, survivor_result, service = asyncio.run(scenario())
        assert doomed_view.status == CANCELLED
        _assert_same(survivor_result, _serial(workload, {}))
        assert len(service.queue) == 0


class TestStress:
    def test_many_concurrent_jobs_with_faults(self):
        """A scaled-down sibling of the CI service-stress leg."""
        workload = client_buy_workload(20, inconsistency_ratio=0.3, seed=3)
        faults = ScriptedFaults(
            kill={(3, "detect"): 1, (7, "plan"): 1},
            stall={(5, "repair"): 0.05},
        )
        requests = [JobRequest(workload.instance, tuple(workload.constraints))] * 16
        views, service = run_jobs(
            requests, workers=4, faults=faults, max_retries=2, retry_backoff=0.0
        )
        serial = _serial(workload, {})
        assert all(v.status == SUCCEEDED for v in views)
        for view in views:
            _assert_same(service._job(view.id).result, serial)
