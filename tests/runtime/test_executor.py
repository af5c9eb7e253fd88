"""Unit tests for the execution backends and the balanced chunker."""

from __future__ import annotations

import pytest

from repro import IncrementalRepairer, StreamingRepairer, repair_database
from repro.exceptions import ConstraintError, RuntimeConfigError
from repro.runtime import (
    BACKENDS,
    ExecutionPolicy,
    Executor,
    as_executor,
    balanced_chunks,
)
from repro.workloads import census_workload


def _square(x):
    return x * x


def _boom(x):
    raise ConstraintError(f"boom {x}")


class TestExecutionPolicy:
    def test_defaults_are_serial(self):
        policy = ExecutionPolicy()
        assert policy.backend == "serial"
        assert not policy.is_parallel

    def test_unknown_backend_rejected(self):
        with pytest.raises(RuntimeConfigError):
            ExecutionPolicy(backend="gpu")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(RuntimeConfigError):
            ExecutionPolicy(max_workers=0)

    def test_resolve_none_and_false_are_serial(self):
        assert ExecutionPolicy.resolve(None).backend == "serial"
        assert ExecutionPolicy.resolve(False).backend == "serial"

    def test_resolve_true_is_auto(self):
        policy = ExecutionPolicy.resolve(True, max_workers=4)
        assert policy.backend == "auto"
        # auto asks for the decomposed pipeline but dispatches in-process.
        assert policy.dispatch_backend == "serial"
        assert not policy.is_parallel

    def test_auto_with_one_worker_is_serial(self):
        policy = ExecutionPolicy.resolve(True, max_workers=1)
        assert policy.dispatch_backend == "serial"
        assert not policy.is_parallel

    @pytest.mark.parametrize(
        "backend, dispatch",
        [("serial", "serial"), ("process", "process"), ("auto", "serial")],
        ids=["serial", "process", "auto"],
    )
    def test_explicit_backends_are_honoured(self, backend, dispatch):
        policy = ExecutionPolicy(backend=backend, max_workers=2)
        assert policy.backend == backend
        assert policy.dispatch_backend == dispatch
        assert policy.is_parallel == (dispatch != "serial")

    @pytest.mark.parametrize("backend", ["serial", "process", "auto"])
    def test_one_worker_runs_in_process(self, backend):
        policy = ExecutionPolicy(backend=backend, max_workers=1)
        assert policy.dispatch_backend == "serial"
        assert not policy.is_parallel

    def test_resolve_backend_names(self):
        for backend in BACKENDS:
            assert ExecutionPolicy.resolve(backend).backend == backend

    def test_resolve_passes_policies_through(self):
        policy = ExecutionPolicy(backend="process", max_workers=2)
        assert ExecutionPolicy.resolve(policy) is policy
        overridden = ExecutionPolicy.resolve(policy, max_workers=8)
        assert overridden.backend == "process"
        assert overridden.max_workers == 8

    def test_resolve_rejects_garbage(self):
        with pytest.raises(RuntimeConfigError):
            ExecutionPolicy.resolve(3.14)


@pytest.mark.parametrize(
    "entry_point",
    [
        lambda w, backend: ExecutionPolicy(backend=backend),
        lambda w, backend: ExecutionPolicy.resolve(backend),
        lambda w, backend: as_executor(backend),
        lambda w, backend: repair_database(w.instance, w.constraints, parallel=backend),
        lambda w, backend: IncrementalRepairer(
            w.instance, w.constraints, parallel=backend
        ),
        lambda w, backend: StreamingRepairer(
            w.instance, w.constraints, parallel=backend
        ),
    ],
    ids=[
        "ExecutionPolicy",
        "resolve",
        "as_executor",
        "repair_database",
        "IncrementalRepairer",
        "StreamingRepairer",
    ],
)
def test_thread_backend_is_rejected(entry_point):
    """The retired thread backend is a structured error at every entry."""
    workload = census_workload(20, household_size=3, dirty_ratio=0.3, seed=3)
    assert "thread" not in BACKENDS
    with pytest.raises(RuntimeConfigError, match="unknown execution backend 'thread'"):
        entry_point(workload, "thread")


class TestExecutorMap:
    @pytest.mark.parametrize("backend", ["serial", "process", "auto"])
    def test_order_preserved(self, backend):
        ex = as_executor(backend, 4)
        assert ex.map(_square, range(17)) == [i * i for i in range(17)]

    @pytest.mark.parametrize("backend", ["serial", "process", "auto"])
    def test_worker_exceptions_propagate(self, backend):
        ex = as_executor(backend, 4)
        with pytest.raises(ConstraintError):
            ex.map(_boom, [1, 2, 3])

    def test_unpicklable_work_falls_back_to_serial(self):
        ex = as_executor("process", 4)
        captured = []
        # a closure cannot be pickled, so the pool submission fails and the
        # serial fallback must still compute every result in order.
        results = ex.map(lambda x: captured.append(x) or x + 1, [1, 2, 3])
        assert results == [2, 3, 4]
        assert captured == [1, 2, 3]

    def test_fallback_disabled_surfaces_pool_failure(self):
        policy = ExecutionPolicy(backend="process", max_workers=4, fallback=False)
        with pytest.raises(Exception):
            Executor(policy).map(lambda x: x, [1, 2])

    def test_single_item_stays_serial(self):
        ex = as_executor("process", 4)
        assert ex.map(lambda x: x * 3, [5]) == [15]

    def test_instance_batches_one_per_worker_when_parallel(self):
        # Every process batch pickles the instance: one per worker.
        assert as_executor("process", 2).instance_batches(3) == 2
        assert as_executor("process", 4).instance_batches(3) == 3
        # In-process dispatch makes a single batch.
        assert as_executor("serial", 2).instance_batches(3) == 1
        assert as_executor("auto", 2).instance_batches(3) == 1

    def test_as_executor_idempotent(self):
        ex = as_executor("process", 2)
        assert as_executor(ex) is ex
        assert as_executor(ex, 6).workers == 6


class TestBalancedChunks:
    def test_empty(self):
        assert balanced_chunks([], 4) == []

    def test_single_chunk(self):
        assert balanced_chunks([1.0, 2.0, 3.0], 1) == [[0, 1, 2]]

    def test_partition_is_exact(self):
        costs = [float(c) for c in (5, 1, 1, 1, 9, 2, 2, 4)]
        chunks = balanced_chunks(costs, 3)
        flat = sorted(i for chunk in chunks for i in chunk)
        assert flat == list(range(len(costs)))
        assert len(chunks) <= 3

    def test_lpt_separates_heavy_items(self):
        # two giants and six tiny items over two bins: one giant per bin.
        costs = [100.0, 100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        chunks = balanced_chunks(costs, 2)
        assert len(chunks) == 2
        assert sum(0 in chunk for chunk in chunks) == 1
        assert sum(1 in chunk for chunk in chunks) == 1
        assert not any(0 in chunk and 1 in chunk for chunk in chunks)

    def test_deterministic(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        assert balanced_chunks(costs, 3) == balanced_chunks(costs, 3)

    def test_more_chunks_than_items(self):
        chunks = balanced_chunks([1.0, 2.0], 10)
        assert sorted(i for c in chunks for i in c) == [0, 1]

    def test_rejects_zero_chunks(self):
        with pytest.raises(RuntimeConfigError):
            balanced_chunks([1.0], 0)
