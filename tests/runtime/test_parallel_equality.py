"""Parallel and serial paths must agree byte for byte, everywhere.

The determinism guarantee of the runtime subsystem (DESIGN.md, "Parallel
runtime"): for every solver and every backend, the decomposed-parallel
pipeline returns exactly the cover, changes and repaired instance of its
serial counterpart.  These tests sweep generated workloads across all
four approximate solvers and all three backends, at the set-cover layer,
the detection layer, the batch engine and the incremental engine.
"""

from __future__ import annotations

import random

import pytest

from repro import repair_database
from repro.repair.incremental import IncrementalRepairer
from repro.runtime import ExecutionPolicy, as_executor
from repro.setcover import (
    SetCoverInstance,
    greedy_cover,
    layer_cover,
    modified_greedy_cover,
    modified_layer_cover,
    solve_by_components,
)
from repro.violations.detector import find_all_violations, find_violations_involving
from repro.workloads import client_buy_workload

APPROXIMATE_SOLVERS = {
    "greedy": greedy_cover,
    "modified-greedy": modified_greedy_cover,
    "layer": layer_cover,
    "modified-layer": modified_layer_cover,
}

BACKENDS = ["process", "auto"]


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
        instance = random_clustered_instance(seed)
        solver = APPROXIMATE_SOLVERS[solver_name]
        serial = solve_by_components(instance, solver)
        for backend in BACKENDS:
            parallel = solve_by_components(
                instance, solver, executor=backend, max_workers=4
            )
            assert parallel.selected == serial.selected
            assert parallel.weight == serial.weight
            assert parallel.iterations == serial.iterations
            assert dict(parallel.stats) == dict(serial.stats)
            assert parallel.algorithm == serial.algorithm

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_worker_count_does_not_change_cover(self, workers):
        instance = random_clustered_instance(99)
        serial = solve_by_components(instance, modified_greedy_cover)
        parallel = solve_by_components(
            instance,
            modified_greedy_cover,
            executor="process",
            max_workers=workers,
        )
        assert parallel.selected == serial.selected
        assert dict(parallel.stats) == dict(serial.stats)


class TestDetectionEquality:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_find_all_violations(self, backend):
        workload = client_buy_workload(150, inconsistency_ratio=0.4, seed=3)
        serial = find_all_violations(workload.instance, workload.constraints)
        parallel = find_all_violations(
            workload.instance,
            workload.constraints,
            executor=as_executor(backend, 4),
        )
        assert parallel == serial
        # constraint objects keep their identity even through pickling.
        assert all(
            a.constraint is b.constraint for a, b in zip(serial, parallel)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_anchored_detection(self, backend):
        workload = client_buy_workload(60, inconsistency_ratio=0.0, seed=4)
        instance = workload.instance.copy()
        anchors = [
            instance.insert_row("Client", (70001, 15, 80)),
            instance.insert_row("Client", (70002, 12, 95)),
        ]
        serial = find_violations_involving(
            instance, workload.constraints, anchors
        )
        parallel = find_violations_involving(
            instance,
            workload.constraints,
            anchors,
            executor=as_executor(backend, 4),
        )
        assert parallel == serial


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
            algorithm="exact-decomposed", parallel="process", max_workers=3,
        )
        assert parallel.changes == serial.changes
        assert parallel.cover_weight == serial.cover_weight

    def test_parallel_run_records_runtime_stats(self):
        workload = client_buy_workload(50, inconsistency_ratio=0.4, seed=7)
        result = repair_database(
            workload.instance,
            workload.constraints,
            parallel=ExecutionPolicy(backend="process", max_workers=2),
        )
        assert result.solver_stats["runtime_backend"] == "process"
        assert result.solver_stats["runtime_workers"] == 2.0
        assert result.solver_stats["components"] >= 1.0
        assert set(result.elapsed_seconds) == {
            "detect", "reduce", "solve", "apply", "verify",
        }

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
    @pytest.mark.parametrize("parallel", [None, "process", "auto", True])
    def test_commits_match_serial(self, parallel):
        workload = client_buy_workload(80, inconsistency_ratio=0.2, seed=9)
        reference = IncrementalRepairer(workload.instance, workload.constraints)
        candidate = IncrementalRepairer(
            workload.instance,
            workload.constraints,
            parallel=parallel,
            max_workers=3,
        )
        for repairer in (reference, candidate):
            repairer.insert("Client", (80001, 16, 70))
            repairer.insert("Client", (80002, 14, 60))
            repairer.insert("Buy", (80001, 90, 40))
        first = reference.commit(verify=True)
        second = candidate.commit(verify=True)
        assert second.changes == first.changes
        assert candidate.instance == reference.instance
