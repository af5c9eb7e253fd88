"""Ablation: violation detection - in-memory join vs SQL pushdown in sqlite.

Algorithm 2 retrieves violation sets with one SQL query per constraint; the
``pushdown`` engine runs that SQL inside sqlite for an instance loaded from
it, and the in-memory engines compute the same sets.  This ablation times
both on identical Client/Buy databases (detection only - no load, no
repair), validating that the two paths agree and quantifying their cost.
"""

from __future__ import annotations

import pytest

from repro.storage import SqliteBackend
from repro.violations import find_all_violations
from repro.workloads import client_buy_workload

from conftest import bench_sizes, record_point

SIZES = bench_sizes([500, 2000], quick=[500])
TABLE = "Ablation: violation detection backend (seconds)"

_WORKLOADS = {}
_LOADED = {}


def _workload(n_clients):
    if n_clients not in _WORKLOADS:
        _WORKLOADS[n_clients] = client_buy_workload(
            n_clients, inconsistency_ratio=0.3, seed=0
        )
    return _WORKLOADS[n_clients]


def _sqlite_loaded(n_clients):
    """A backend-resident copy of the workload (the backend stays alive)."""
    if n_clients not in _LOADED:
        workload = _workload(n_clients)
        backend = SqliteBackend.from_instance(workload.instance)
        _LOADED[n_clients] = (backend, backend.load_instance(workload.schema))
    return _LOADED[n_clients][1]


@pytest.mark.parametrize("n_clients", SIZES)
def test_detect_in_memory(benchmark, n_clients):
    workload = _workload(n_clients)
    benchmark.group = f"detection n={n_clients}"
    violations = benchmark.pedantic(
        lambda: find_all_violations(workload.instance, workload.constraints),
        rounds=3,
        iterations=1,
    )
    assert violations
    record_point(TABLE, "in-memory join", n_clients, benchmark.stats.stats.mean)


@pytest.mark.parametrize("n_clients", SIZES)
def test_detect_sqlite_pushdown(benchmark, n_clients):
    workload = _workload(n_clients)
    loaded = _sqlite_loaded(n_clients)
    benchmark.group = f"detection n={n_clients}"
    violations = benchmark.pedantic(
        lambda: find_all_violations(
            loaded, workload.constraints, engine="pushdown"
        ),
        rounds=3,
        iterations=1,
    )
    record_point(TABLE, "sqlite pushdown", n_clients, benchmark.stats.stats.mean)

    # both paths must find the same violation sets.
    in_memory = find_all_violations(workload.instance, workload.constraints)
    as_labels = lambda vs: {
        (v.constraint.name, frozenset(t.ref for t in v)) for v in vs
    }
    assert as_labels(violations) == as_labels(in_memory)
