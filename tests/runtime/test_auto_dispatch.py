"""``auto`` decomposes like the pools but runs every stage in-process.

Detection ships the whole instance per batch, which costs more than
detecting it, and no measured size made the pool pay for component
solving (see :data:`~repro.runtime.executor.BACKENDS`).  The repair is
byte-identical to every other backend, because decomposition is a
function of the request, not of the dispatch.
"""

from __future__ import annotations

import pytest

from repro import DatabaseInstance, IncrementalRepairer, repair_database
from repro.plan import compile_program, planned_find_all_violations
from repro.runtime import ExecutionPolicy, Executor, as_executor
from repro.runtime import executor as executor_module
from repro.violations.detector import find_all_violations, find_violations_involving
from repro.workloads import census_workload


@pytest.fixture(scope="module")
def census_4000():
    return census_workload(4000, household_size=3, dirty_ratio=0.3, seed=7)


@pytest.fixture(scope="module")
def census_small():
    return census_workload(200, household_size=3, dirty_ratio=0.3, seed=3)


@pytest.fixture
def map_log(monkeypatch):
    """Record ``(function, backend, payload count)`` of every ``Executor.map``
    call, running the payloads in-process."""
    calls = []

    def counting_map(self, fn, items):
        items = list(items)
        calls.append((fn.__name__, self.dispatch_backend, len(items)))
        return [fn(item) for item in items]

    monkeypatch.setattr(Executor, "map", counting_map)
    return calls


def assert_same_repair(a, b):
    assert a.changes == b.changes
    assert a.cover_weight == b.cover_weight
    assert a.distance == b.distance
    assert a.repaired == b.repaired


class TestAutoStaysInProcess:
    def test_census_4000_never_starts_a_process_pool(self, census_4000, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("auto started a process pool")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", refuse)
        auto = repair_database(
            census_4000.instance,
            census_4000.constraints,
            algorithm="layer",
            parallel="auto",
            max_workers=2,
        )
        assert auto.solver_stats["runtime_backend"] == "serial"
        assert auto.solver_stats["detect_workers"] == 1
        assert auto.solver_stats["solve_workers"] == 1
        monkeypatch.undo()

        process = repair_database(
            census_4000.instance,
            census_4000.constraints,
            algorithm="layer",
            parallel="process",
            max_workers=2,
        )
        serial_decomposed = repair_database(
            census_4000.instance,
            census_4000.constraints,
            algorithm="layer",
            parallel=ExecutionPolicy("process", max_workers=1),
        )
        assert process.solver_stats["runtime_backend"] == "process"
        assert serial_decomposed.solver_stats["runtime_backend"] == "serial"
        assert_same_repair(auto, process)
        assert_same_repair(auto, serial_decomposed)

    def test_detection_under_auto_makes_no_batches(self, census_small, map_log):
        instance, constraints = census_small.instance, census_small.constraints
        expected = find_all_violations(instance, constraints)
        got = find_all_violations(
            instance, constraints, executor=as_executor("auto", 2)
        )
        assert got == expected
        assert map_log == []


class TestStageSpansReportTheDispatch:
    def test_auto_tags_in_process_stages(self, census_small):
        result = repair_database(
            census_small.instance,
            census_small.constraints,
            parallel="auto",
            max_workers=2,
            trace=True,
        )
        detect = result.trace.find("detect").tags
        solve = result.trace.find("solve").tags
        assert detect["backend"] == "serial"
        assert detect["work"] == len(census_small.instance)
        assert solve["backend"] == "serial"
        assert result.solver_stats["runtime_backend"] == "serial"

    def test_explicit_process_tags_the_pool(self, census_small):
        result = repair_database(
            census_small.instance,
            census_small.constraints,
            parallel="process",
            max_workers=2,
            trace=True,
        )
        assert result.trace.find("detect").tags["backend"] == "process"
        assert result.trace.find("solve").tags["backend"] == "process"
        assert result.solver_stats["runtime_backend"] == "process"

    def test_solve_work_is_elements_plus_sets(self, census_small):
        from repro.repair.builder import build_repair_problem

        problem = build_repair_problem(census_small.instance, census_small.constraints)
        result = repair_database(
            census_small.instance, census_small.constraints, trace=True
        )
        setcover = problem.setcover
        assert result.trace.find("solve").tags["work"] == (
            setcover.n_elements + setcover.n_sets
        )


class TestExplicitProcessDetectionBatches:
    """Every process detection batch pickles the instance: one per worker."""

    @pytest.mark.parametrize("workers, batches", [(2, 2), (8, 3)])
    def test_find_all_violations(self, census_small, map_log, workers, batches):
        instance, constraints = census_small.instance, census_small.constraints
        assert len(constraints) == 3
        got = find_all_violations(
            instance, constraints, executor=as_executor("process", workers)
        )
        assert got == find_all_violations(instance, constraints)
        assert map_log == [("detect_constraint_batch", "process", batches)]

    def test_find_violations_involving(self, census_small, map_log):
        instance, constraints = census_small.instance, census_small.constraints
        anchors = list(instance.tuples("Person")[:10])
        got = find_violations_involving(
            instance, constraints, anchors, executor=as_executor("process", 2)
        )
        assert got == find_violations_involving(instance, constraints, anchors)
        assert map_log == [("detect_anchored_batch", "process", 2)]

    def test_planned_find_all_violations(self, census_small, map_log):
        instance, constraints = census_small.instance, census_small.constraints
        program = compile_program(census_small.schema, constraints)
        got = planned_find_all_violations(
            instance, constraints, program, executor=as_executor("process", 2)
        )
        assert got == planned_find_all_violations(instance, constraints, program)
        assert map_log == [("detect_planned_batch", "process", 2)]


def _incremental_commits(workload, parallel):
    """Replay ``workload`` into an empty repairer, 150 inserts per commit."""
    repairer = IncrementalRepairer(
        DatabaseInstance(workload.schema),
        workload.constraints,
        algorithm="layer",
        parallel=parallel,
        max_workers=2,
    )
    rows = [
        (name, tup.values)
        for name in workload.schema.relation_names
        for tup in workload.instance.tuples(name)
    ]
    results = []
    for start in range(0, len(rows), 150):
        for name, values in rows[start:start + 150]:
            repairer.insert(name, values)
        results.append(repairer.commit())
    return results


class TestIncrementalParallelTrue:
    """``IncrementalRepairer(parallel=True)`` decomposes, in-process."""

    def test_never_starts_a_pool(self, census_small, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parallel=True started a process pool")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", refuse)
        results = _incremental_commits(census_small, True)
        repaired = [r for r in results if r.changes]
        assert repaired
        assert all(r.solver_stats["components"] > 1 for r in repaired)

    def test_commits_match_process_and_serial_decomposed(self, census_small):
        auto = _incremental_commits(census_small, True)
        process = _incremental_commits(census_small, "process")
        serial_decomposed = _incremental_commits(
            census_small, ExecutionPolicy("process", max_workers=1)
        )
        assert len(auto) == len(process) == len(serial_decomposed) > 1
        for a, p, s in zip(auto, process, serial_decomposed):
            for other in (p, s):
                assert_same_repair(a, other)
                assert repr(a.distance) == repr(other.distance)
