"""Ablation: violation detection engines (interpreted vs columnar kernel).

The kernel engine compiles each denial into a columnar plan (vectorized
local masks, hash/sort equality joins, interval lookups for cross-atom
order comparisons) and executes it over cached NumPy snapshots; the
interpreted engine enumerates assignments tuple-at-a-time.  This bench
times ``I(D, ic)`` retrieval per constraint arity - the 2-atom join
``ic1`` and the single-atom ``ic2`` of the Client/Buy workload - for

* ``interpreted``     - the baseline enumerator,
* ``kernel``          - the columnar plan executor.

Artifacts: ``BENCH_detect.json`` with per-engine mean seconds and the
headline kernel-vs-interpreted speedup per size (EXPERIMENTS.md quotes
it).  The speedup gate asserts the kernel wins by >=3x on the 2-atom
constraint at the full-mode sizes; quick mode only sanity-checks >1x.
"""

from __future__ import annotations

import time

import pytest

from repro.model.columnar import kernel_available, store_for
from repro.violations.detector import find_violations
from repro.workloads import client_buy_workload

from conftest import bench_sizes, quick_mode, record_bench_json, record_point

TABLE = "Ablation: detection engines (seconds, mean of 3)"
SIZES = bench_sizes([5000, 20000], quick=[1000])
LARGEST = SIZES[-1]

#: accumulated across tests; record_bench_json merges by reference, so the
#: final BENCH_detect.json sees every point.
POINTS: dict = {}
SPEEDUPS: dict = {}

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="NumPy not installed (repro[kernel] extra)"
)

_WORKLOADS: dict = {}


def _workload(n_clients):
    if n_clients not in _WORKLOADS:
        _WORKLOADS[n_clients] = client_buy_workload(
            n_clients, inconsistency_ratio=0.30, seed=7
        )
    return _WORKLOADS[n_clients]


def _record(constraint_name, engine_name, n_clients, seconds):
    record_point(TABLE, f"{constraint_name} {engine_name}", n_clients, seconds)
    POINTS.setdefault(constraint_name, {}).setdefault(engine_name, {})[
        str(n_clients)
    ] = seconds
    record_bench_json("detect", {"points": POINTS, "speedups": SPEEDUPS})


@pytest.mark.parametrize("n_clients", SIZES)
@pytest.mark.parametrize("ic_index", [0, 1], ids=["ic1-2atom", "ic2-1atom"])
def test_interpreted(benchmark, n_clients, ic_index):
    workload = _workload(n_clients)
    constraint = workload.constraints[ic_index]
    benchmark.group = f"detect {constraint.name} n={n_clients}"
    result = benchmark.pedantic(
        lambda: find_violations(workload.instance, constraint, engine="interpreted"),
        rounds=3,
        iterations=1,
    )
    assert result
    _record(constraint.name, "interpreted", n_clients, benchmark.stats.stats.mean)


@needs_kernel
@pytest.mark.parametrize("n_clients", SIZES)
@pytest.mark.parametrize("ic_index", [0, 1], ids=["ic1-2atom", "ic2-1atom"])
def test_kernel(benchmark, n_clients, ic_index):
    workload = _workload(n_clients)
    constraint = workload.constraints[ic_index]
    benchmark.group = f"detect {constraint.name} n={n_clients}"
    result = benchmark.pedantic(
        lambda: find_violations(workload.instance, constraint, engine="kernel"),
        rounds=3,
        iterations=1,
        warmup_rounds=1,   # populate the columnar snapshot cache
    )
    assert result
    _record(constraint.name, "kernel", n_clients, benchmark.stats.stats.mean)


@needs_kernel
def test_kernel_speedup_gate(benchmark):
    """Kernel vs interpreted, serial, on the 2-atom join at the largest size.

    Full mode runs 20k clients (~60k tuples) and enforces the >=3x
    acceptance bar; quick mode only checks the kernel actually wins.
    """
    workload = _workload(LARGEST)
    constraint = workload.constraints[0]          # ic1: Buy x Client join
    store_for(workload.instance)                  # warm snapshot path
    find_violations(workload.instance, constraint, engine="kernel")

    def best(engine):
        times = []
        for _ in range(3):
            started = time.perf_counter()
            find_violations(workload.instance, constraint, engine=engine)
            times.append(time.perf_counter() - started)
        return min(times)

    interpreted = best("interpreted")
    kernel = best("kernel")
    speedup = interpreted / kernel
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"interpreted": interpreted, "kernel": kernel, "speedup": speedup}
    )
    tuples = len(workload.instance)
    record_point(TABLE, "ic1 kernel speedup", LARGEST, speedup)
    SPEEDUPS[str(LARGEST)] = {
        "constraint": constraint.name,
        "tuples": tuples,
        "interpreted_s": interpreted,
        "kernel_s": kernel,
        "speedup": speedup,
    }
    record_bench_json("detect", {"points": POINTS, "speedups": SPEEDUPS})
    if quick_mode():
        assert speedup > 1.0
    else:
        assert tuples >= 50_000
        assert speedup >= 3.0
