"""``parallel="auto"`` agrees with the serial-decomposed solve, everywhere.

DESIGN.md ("Component decomposition"): ``auto`` solves each connected
component on its own, in-process, and merges the covers in component
order.  These tests sweep generated workloads across all four
approximate solvers, at the set-cover layer, the batch engine and the
incremental engine, against a by-hand serial decomposition and against
the undecomposed pipeline.
"""

from __future__ import annotations

import random

import pytest

from repro import repair_database
from repro.repair.incremental import IncrementalRepairer
from repro.setcover import (
    SetCoverInstance,
    decompose,
    greedy_cover,
    layer_cover,
    modified_greedy_cover,
    modified_layer_cover,
    solve_by_components,
)
from repro.workloads import client_buy_workload

APPROXIMATE_SOLVERS = {
    "greedy": greedy_cover,
    "modified-greedy": modified_greedy_cover,
    "layer": layer_cover,
    "modified-layer": modified_layer_cover,
}

BACKENDS = ["auto"]


def random_clustered_instance(seed: int) -> SetCoverInstance:
    """A multi-component instance with ties, singletons and overlaps."""
    rng = random.Random(seed)
    collections = []
    base = 0
    for _ in range(rng.randint(5, 20)):
        size = rng.randint(1, 6)
        elements = list(range(base, base + size))
        collections.append((float(rng.randint(1, 5)), elements))
        for element in elements:
            collections.append((float(rng.randint(1, 5)), [element]))
        if size >= 3:
            collections.append(
                (float(rng.randint(1, 5)), elements[: size // 2 + 1])
            )
        base += size
    return SetCoverInstance.from_collections(base, collections)


class TestSetcoverEquality:
    @pytest.mark.parametrize("solver_name", sorted(APPROXIMATE_SOLVERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_parallel_equals_serial_cover(self, solver_name, seed):
        """The merged cover equals solving each component by hand."""
        instance = random_clustered_instance(seed)
        solver = APPROXIMATE_SOLVERS[solver_name]
        selected, weight, iterations = [], 0.0, 0
        components = decompose(instance)
        for component in components:
            cover = solver(component.instance)
            selected.extend(component.set_ids[i] for i in cover.selected)
            weight += cover.weight
            iterations += cover.iterations
        merged = solve_by_components(instance, solver)
        assert merged.selected == tuple(selected)
        assert merged.weight == weight
        assert merged.iterations == iterations
        assert merged.stats["components"] == len(components)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_worker_count_does_not_change_cover(self, workers):
        """``repair_database`` accepts ``max_workers`` but ignores it."""
        workload = client_buy_workload(60, inconsistency_ratio=0.4, seed=99)
        reference = repair_database(
            workload.instance, workload.constraints, parallel="auto"
        )
        result = repair_database(
            workload.instance,
            workload.constraints,
            parallel="auto",
            max_workers=workers,
        )
        assert result.changes == reference.changes
        assert dict(result.solver_stats) == dict(reference.solver_stats)


class TestDetectionEquality:
    """Detection does not depend on ``parallel``: same violation counts."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_find_all_violations(self, backend):
        workload = client_buy_workload(150, inconsistency_ratio=0.4, seed=3)
        serial = repair_database(workload.instance, workload.constraints)
        parallel = repair_database(
            workload.instance, workload.constraints, parallel=backend, trace=True
        )
        assert parallel.violations_before == serial.violations_before > 0
        assert (
            parallel.trace.find("detect").tags["violations"]
            == serial.violations_before
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_anchored_detection(self, backend):
        workload = client_buy_workload(60, inconsistency_ratio=0.0, seed=4)
        commits = []
        for parallel in (None, backend):
            repairer = IncrementalRepairer(
                workload.instance, workload.constraints, parallel=parallel
            )
            repairer.insert("Client", (70001, 15, 80))
            repairer.insert("Client", (70002, 12, 95))
            commits.append(repairer.commit())
        serial, parallel = commits
        assert parallel.violations_before == serial.violations_before > 0
        assert parallel.changes == serial.changes


class TestEngineEquality:
    @pytest.mark.parametrize("algorithm", sorted(APPROXIMATE_SOLVERS))
    def test_repairs_identical_across_backends(self, algorithm):
        workload = client_buy_workload(120, inconsistency_ratio=0.35, seed=5)
        serial = repair_database(
            workload.instance, workload.constraints,
            algorithm=algorithm, parallel="serial",
        )
        for backend in BACKENDS:
            parallel = repair_database(
                workload.instance,
                workload.constraints,
                algorithm=algorithm,
                parallel=backend,
                max_workers=4,
            )
            assert parallel.changes == serial.changes
            assert parallel.cover_weight == serial.cover_weight
            assert parallel.distance == serial.distance
            assert parallel.repaired == serial.repaired
            assert parallel.verified

    def test_exact_decomposed_parallel(self):
        workload = client_buy_workload(40, inconsistency_ratio=0.4, seed=6)
        serial = repair_database(
            workload.instance, workload.constraints,
            algorithm="exact-decomposed", parallel="serial",
        )
        parallel = repair_database(
            workload.instance, workload.constraints,
            algorithm="exact-decomposed", parallel="auto",
        )
        assert parallel.changes == serial.changes
        assert parallel.cover_weight == serial.cover_weight

    def test_serial_run_keeps_legacy_stats(self):
        workload = client_buy_workload(50, inconsistency_ratio=0.4, seed=7)
        result = repair_database(workload.instance, workload.constraints)
        assert "runtime_backend" not in result.solver_stats

    def test_consistent_database_short_circuits(self):
        workload = client_buy_workload(30, inconsistency_ratio=0.0, seed=8)
        result = repair_database(
            workload.instance, workload.constraints, parallel=True
        )
        assert result.violations_before == 0
        assert result.changes == ()


class TestIncrementalEquality:
    @pytest.mark.parametrize("parallel", [None, "auto", True])
    def test_commits_match_serial(self, parallel):
        workload = client_buy_workload(80, inconsistency_ratio=0.2, seed=9)
        reference = IncrementalRepairer(workload.instance, workload.constraints)
        candidate = IncrementalRepairer(
            workload.instance,
            workload.constraints,
            parallel=parallel,
        )
        for repairer in (reference, candidate):
            repairer.insert("Client", (80001, 16, 70))
            repairer.insert("Client", (80002, 14, 60))
            repairer.insert("Buy", (80001, 90, 40))
        first = reference.commit(verify=True)
        second = candidate.commit(verify=True)
        assert second.changes == first.changes
        assert candidate.instance == reference.instance
