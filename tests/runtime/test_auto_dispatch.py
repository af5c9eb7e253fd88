"""``auto`` solves per component in-process, whatever ``max_workers`` says.

There is no worker pool (DESIGN.md, "Component decomposition"), so the
repair is a function of the request alone.
"""

from __future__ import annotations

import pytest

from repro import DatabaseInstance, IncrementalRepairer, repair_database
from repro.repair.builder import build_repair_problem
from repro.workloads import census_workload


@pytest.fixture(scope="module")
def census_4000():
    return census_workload(4000, household_size=3, dirty_ratio=0.3, seed=7)


@pytest.fixture(scope="module")
def census_small():
    return census_workload(200, household_size=3, dirty_ratio=0.3, seed=3)


def assert_same_repair(a, b):
    assert a.changes == b.changes
    assert a.cover_weight == b.cover_weight
    assert repr(a.distance) == repr(b.distance)
    assert a.repaired == b.repaired
    assert dict(a.solver_stats) == dict(b.solver_stats)


class TestAutoStaysInProcess:
    def test_census_4000_never_starts_a_process_pool(self, census_4000):
        """The census-auto benchmark call: ``max_workers`` is accepted
        and changes nothing."""
        runs = [
            repair_database(
                census_4000.instance,
                census_4000.constraints,
                algorithm="layer",
                parallel="auto",
                max_workers=workers,
            )
            for workers in (2, None, 1)
        ]
        assert runs[0].solver_stats["components"] > 1
        for other in runs[1:]:
            assert_same_repair(runs[0], other)


class TestStageSpansReportTheDispatch:
    def test_auto_tags_in_process_stages(self, census_small):
        """Stage spans carry their work, and no backend or worker tags."""
        result = repair_database(
            census_small.instance, census_small.constraints, parallel="auto", trace=True
        )
        for stage in ("detect", "solve"):
            tags = result.trace.find(stage).tags
            assert "work" in tags
            assert "backend" not in tags and "workers" not in tags

    def test_solve_work_is_elements_plus_sets(self, census_small):
        problem = build_repair_problem(census_small.instance, census_small.constraints)
        result = repair_database(
            census_small.instance, census_small.constraints, trace=True
        )
        setcover = problem.setcover
        assert result.trace.find("detect").tags["work"] == len(census_small.instance)
        assert result.trace.find("solve").tags["work"] == (
            setcover.n_elements + setcover.n_sets
        )


class TestIncrementalParallelTrue:
    """``IncrementalRepairer(parallel=True)`` solves every commit per component."""

    def test_never_starts_a_pool(self, census_small):
        repairer = IncrementalRepairer(
            DatabaseInstance(census_small.schema),
            census_small.constraints,
            algorithm="layer",
            parallel=True,
        )
        results = []
        rows = [
            (name, tup.values)
            for name in census_small.schema.relation_names
            for tup in census_small.instance.tuples(name)
        ]
        for start in range(0, len(rows), 150):
            for name, values in rows[start:start + 150]:
                repairer.insert(name, values)
            results.append(repairer.commit())
        repaired = [r for r in results if r.changes]
        assert repaired
        assert all(r.solver_stats["components"] > 1 for r in repaired)
