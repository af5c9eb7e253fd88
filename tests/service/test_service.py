"""RepairService lifecycle: submit/status/result/cancel, timeouts, retries."""

from __future__ import annotations

import asyncio
import os
from functools import partial

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
from repro.workloads import (
    census_workload,
    client_buy_workload,
    finance_workload,
    random_detection_workload,
    tpch_like_workload,
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


def _reference_digest(instance) -> str:
    """The token as first defined: every relation's tuples sorted by their
    rebuilt keys and each row passed through ``repr`` again - the oracle the cached-row
    digest must match byte for byte."""
    import hashlib

    hasher = hashlib.sha256()
    for relation in instance.schema:
        hasher.update(relation.name.encode("utf-8"))
        table = instance.tuples(relation.name)
        ordered = None
        for position in relation.key_positions:
            types = {type(tup.values[position]) for tup in table}
            if len(types) > 1 or not types <= {int, str}:
                ordered = sorted(
                    table,
                    key=lambda t: tuple((type(v).__name__, str(v)) for v in t.key),
                )
                break
        if ordered is None:
            ordered = sorted(table, key=lambda t: t.key)
        for tup in ordered:
            hasher.update(repr(tup.values).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _keyed_schema():
    from repro.model.schema import Attribute, Relation, Schema

    return Schema(
        [
            Relation("R", [Attribute.hard("k"), Attribute.flexible("v")], key=["k"]),
            Relation(
                "S",
                [Attribute.hard("a"), Attribute.hard("b"), Attribute.flexible("v")],
                key=["a", "b"],
            ),
            Relation("Empty", [Attribute.hard("k"), Attribute.flexible("v")], key=["k"]),
        ]
    )


#: Key values of every kind the token must order exactly as before.
_KEY_VALUES = (
    0, 1, 2, -7, 10**30, -(2**70), True, False, 0.5, 1.0, -0.0, float("inf"),
    "", "a", "b\x00c", "\x00", "10", "ü",
)


def _equal_key_of_another_type(value):
    """``value`` as an equal key of another type, cycling int -> bool ->
    float -> int where that keeps it equal; other values unchanged."""
    if type(value) is int and value in (0, 1):
        return bool(value)
    if type(value) is bool:
        return float(value)
    if type(value) is float and value.is_integer():
        return int(value)
    return value


class TestDigestOracle:
    """The cached-row token equals the rebuilt-key token, byte for byte."""

    @pytest.mark.parametrize(
        "build",
        [
            partial(client_buy_workload, 60, seed=2),
            partial(census_workload, 30, seed=2),
            partial(tpch_like_workload, 0.05, seed=2),
            partial(finance_workload, 40, seed=2),
            partial(random_detection_workload, 2),
        ],
        ids=["clientbuy", "census", "tpch", "finance", "random"],
    )
    def test_generators(self, build):
        instance = build().instance
        assert instance_digest(instance) == _reference_digest(instance)
        copy = instance.copy()
        victim = copy.tuples(next(iter(copy.schema)).name)[0]
        flexible = next(a.name for a in victim.relation.attributes if a.is_flexible)
        copy.replace_tuple(victim.replace({flexible: victim[flexible] + 1}))
        assert instance_digest(copy) == _reference_digest(copy)
        assert instance_digest(copy) != instance_digest(instance)

    @pytest.mark.parametrize(
        "keys",
        [
            [3, 10, -2, 7],
            [10**30, -(2**70), 5],
            ["b", "a\x00", "a", "\x00"],
            [3, "10", True, "a\x00b", 10**30],
            [0.5, 2.0, -1.5],
            [1, 2.5],
        ],
        ids=["int", "bigint", "nul-str", "mixed", "float", "int-float"],
    )
    def test_key_kinds(self, keys):
        from repro.model.instance import DatabaseInstance

        rows = [(key, index) for index, key in enumerate(keys)]
        instance = DatabaseInstance.from_rows(_keyed_schema(), {"R": rows})
        assert instance_digest(instance) == _reference_digest(instance)

    def test_replacement_key_of_another_type(self):
        """A replacement keyed ``True`` under table key ``1`` orders by the
        tuple's own key types, as the rebuilt-key token did."""
        from repro.model.instance import DatabaseInstance
        from repro.model.tuples import Tuple

        schema = _keyed_schema()
        instance = DatabaseInstance.from_rows(schema, {"R": [(1, 0), (2, 1), (0, 2)]})
        before = instance_digest(instance)
        instance.replace_tuple(Tuple(schema.relation("R"), (True, 0)))
        assert instance_digest(instance) == _reference_digest(instance)
        assert instance_digest(instance) != before

    def test_mutation_sequences(self):
        from hypothesis import given, settings, strategies as st

        from repro.exceptions import KeyViolationError
        from repro.model.instance import DatabaseInstance
        from repro.model.tuples import Tuple

        schema = _keyed_schema()
        key = st.sampled_from(_KEY_VALUES)
        ops = st.lists(
            st.one_of(
                st.tuples(st.just("insert-r"), key, key, st.integers(-9, 9)),
                st.tuples(st.just("insert-s"), key, key, st.integers(-9, 9)),
                st.tuples(st.just("replace"), st.integers(0, 30), key, st.integers(-9, 9)),
                st.tuples(st.just("swap-key"), st.integers(0, 30), key, st.integers(-9, 9)),
                st.tuples(st.just("delete"), st.integers(0, 30), key, st.just(0)),
                st.tuples(st.just("copy"), key, key, st.just(0)),
            ),
            max_size=25,
        )

        @settings(max_examples=150, deadline=None)
        @given(ops)
        def run(ops):
            instance = DatabaseInstance(schema)
            for op, first, second, value in ops:
                tuples = list(instance.all_tuples())
                try:
                    if op == "insert-r":
                        instance.insert_row("R", (first, value))
                    elif op == "insert-s":
                        instance.insert_row("S", (first, second, value))
                    elif op == "copy":
                        instance = instance.copy()
                    elif tuples:
                        old = tuples[first % len(tuples)]
                        if op == "replace":
                            instance.replace_tuple(old.replace(v=value))
                        elif op == "swap-key":
                            # An equal key of another type, when there is one.
                            values = list(old.values)
                            values[0] = _equal_key_of_another_type(values[0])
                            instance.replace_tuple(Tuple(old.relation, values))
                        else:
                            instance.delete(old.relation.name, old.key)
                except KeyViolationError:
                    pass
                assert instance_digest(instance) == _reference_digest(instance)

        run()

    def test_token_independent_of_hash_seed(self):
        import subprocess
        import sys

        script = (
            "from repro.service import instance_digest\n"
            "from repro.workloads import client_buy_workload, tpch_like_workload\n"
            "print(instance_digest(client_buy_workload(80, seed=1).instance))\n"
            "print(instance_digest(tpch_like_workload(0.05, seed=1).instance))\n"
        )
        outputs = set()
        for seed in ("0", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1
        local = instance_digest(client_buy_workload(80, seed=1).instance)
        assert outputs.pop().splitlines()[0] == local


class TestDigestCost:
    def test_warm_edited_copy_encodes_only_edited_rows(self, make_tpch, monkeypatch):
        from repro.model.tuples import Tuple

        base = make_tpch().instance
        copy = base.copy()  # made before the base is first digested
        instance_digest(base)
        edited = [copy.tuples("Lineitem")[index] for index in (0, 5, 9)]
        for tup in edited:
            copy.replace_tuple(tup.replace(quantity=tup["quantity"] + 1))
        encoded = []
        original = Tuple.row_bytes

        def spy(tup):
            encoded.append(tup)
            return original.fget(tup)

        monkeypatch.setattr(Tuple, "row_bytes", property(spy))
        assert instance_digest(copy) == _reference_digest(copy)
        assert sorted(t.key for t in encoded) == sorted(t.key for t in edited)

    def test_cached_row_bytes_stay_out_of_pickles(self, make_tpch):
        import pickle

        instance = make_tpch().instance
        tuples = list(instance.all_tuples())
        before = pickle.dumps(tuples)
        token = instance_digest(instance)
        assert all(t._row is not None for t in tuples)
        assert pickle.dumps(tuples) == before
        clone = pickle.loads(pickle.dumps(instance))
        assert all(t._row is None for t in clone.all_tuples())
        setattr(clone, "_service_digest_memo", None)
        assert instance_digest(clone) == token


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
