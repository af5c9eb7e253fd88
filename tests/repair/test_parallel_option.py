"""The ``parallel`` option: one bool, read in one place, and no worker pool.

``None``, ``False`` and ``"serial"`` solve the whole MWSCP instance;
``True`` and ``"auto"`` solve it per connected component, in-process.
Every removed input - the retired ``process`` and ``thread`` backends,
values of the wrong type, worker counts outside ``repair_database`` -
ends in a structured :mod:`repro.exceptions` error, never a traceback.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro import (
    IncrementalRepairer,
    StreamingRepairer,
    cardinality_repair,
    repair_database,
)
from repro.exceptions import ReproError, RuntimeConfigError
from repro.repair.builder import build_repair_problem
from repro.repair.engine import repair_problem_cover
from repro.service import RepairService
from repro.setcover.decompose import BACKENDS, decomposes
from repro.system.config import RepairConfig
from repro.workloads import census_workload, client_buy_workload

WORKLOAD = census_workload(20, household_size=3, dirty_ratio=0.3, seed=3)

ENTRY_POINTS = {
    "repair_database": lambda w, value: repair_database(
        w.instance, w.constraints, parallel=value
    ),
    "IncrementalRepairer": lambda w, value: IncrementalRepairer(
        w.instance, w.constraints, parallel=value
    ),
    "StreamingRepairer": lambda w, value: StreamingRepairer(
        w.instance, w.constraints, parallel=value
    ),
    "cardinality_repair": lambda w, value: cardinality_repair(
        w.instance, w.constraints, parallel=value
    ),
    "repair_problem_cover": lambda w, value: repair_problem_cover(
        build_repair_problem(w.instance, w.constraints), parallel=value
    ),
}


def _config(runtime):
    return {
        "schema": {
            "relations": [
                {
                    "name": "Client",
                    "key": ["id"],
                    "attributes": [
                        {"name": "id"},
                        {"name": "a", "flexible": True},
                    ],
                }
            ]
        },
        "constraints": ["ic1: NOT(Client(id, a), a < 18)"],
        "source": {"backend": "memory", "rows": {"Client": [[1, 15]]}},
        "runtime": runtime,
    }


def _service_job(params):
    async def submit():
        async with RepairService(workers=1) as service:
            await service.submit(WORKLOAD.instance, WORKLOAD.constraints, **params)

    asyncio.run(submit())


#: case -> (call, what the error message must name)
REMOVED_INPUTS = {
    **{
        f"{name}-{label}": (lambda call=call, value=value: call(WORKLOAD, value), named)
        for name, call in ENTRY_POINTS.items()
        for label, value, named in (
            ("process", "process", "'process'"),
            ("thread", "thread", "'thread'"),
            ("not-a-name", 2.5, "2.5"),
        )
    },
    "config-backend-process": (
        lambda: RepairConfig.from_dict(_config({"backend": "process"})),
        "runtime.backend",
    ),
    "config-max-workers": (
        lambda: RepairConfig.from_dict(_config({"backend": "auto", "max_workers": 2})),
        "max_workers",
    ),
    "service-max-workers": (
        lambda: _service_job({"parallel": "auto", "max_workers": 2}),
        "max_workers",
    ),
}


@pytest.mark.parametrize("case", sorted(REMOVED_INPUTS))
def test_removed_input_is_a_structured_error(case):
    call, named = REMOVED_INPUTS[case]
    with pytest.raises(ReproError) as error:
        call()
    assert named in str(error.value)


def test_parallel_reads_as_one_bool():
    assert BACKENDS == ("serial", "auto")
    assert [decomposes(v) for v in (None, False, "serial")] == [False] * 3
    assert [decomposes(v) for v in (True, "auto")] == [True] * 2
    with pytest.raises(RuntimeConfigError, match="unknown execution backend 'process'"):
        decomposes("process")


@pytest.mark.parametrize("max_workers", [0, -1, True, "2", 1.5])
def test_repair_database_still_validates_max_workers(max_workers):
    with pytest.raises(RuntimeConfigError, match="max_workers"):
        repair_database(
            WORKLOAD.instance,
            WORKLOAD.constraints,
            parallel="auto",
            max_workers=max_workers,
        )


def _same_repair(a, b):
    assert a.changes == b.changes
    assert a.cover_weight == b.cover_weight
    assert repr(a.distance) == repr(b.distance)
    assert a.repaired == b.repaired
    assert a.algorithm == b.algorithm
    assert dict(a.solver_stats) == dict(b.solver_stats)


def test_auto_cover_does_not_depend_on_the_cpu_count(monkeypatch):
    workload = client_buy_workload(120, inconsistency_ratio=0.35, seed=5)
    runs = []
    for cpus in (1, 2, 64):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        runs.append(
            repair_database(
                workload.instance, workload.constraints, algorithm="layer", parallel=True
            )
        )
    for other in runs[1:]:
        _same_repair(runs[0], other)


def test_decomposed_run_records_components_only():
    workload = client_buy_workload(50, inconsistency_ratio=0.4, seed=7)
    result = repair_database(workload.instance, workload.constraints, parallel="auto")
    assert result.solver_stats["components"] >= 1
    for retired in ("runtime_backend", "runtime_workers", "detect_workers", "solve_workers"):
        assert retired not in result.solver_stats
