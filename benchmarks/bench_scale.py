"""Scale check: the paper's "large databases" claim, end to end.

The paper's motivation for the modified greedy algorithm is databases
with "one million or more tuples" where O(n²) scans are hopeless.  This
bench runs the complete pipeline (violation detection, MWSCP reduction,
modified greedy, repair construction, verification) on a Client/Buy
database of ~150 k tuples and records the per-phase wall-clock - the
solver phase stays a small fraction of the (linear) detection/reduction
phases, which is exactly the regime Proposition 3.7 promises.
"""

from __future__ import annotations

from repro import repair_database
from repro.workloads import client_buy_workload

from conftest import bench_sizes, record_point

N_CLIENTS = bench_sizes(50_000, quick=5_000)
MIN_TUPLES = bench_sizes(120_000, quick=12_000)
MIN_VIOLATIONS = bench_sizes(5_000, quick=500)

TABLE = "Scale: full pipeline phases at ~150k tuples (seconds)"


def test_large_database_end_to_end(benchmark):
    workload = client_buy_workload(N_CLIENTS, inconsistency_ratio=0.30, seed=0)
    n_tuples = len(workload.instance)
    assert n_tuples > MIN_TUPLES

    benchmark.group = "scale"
    result = benchmark.pedantic(
        lambda: repair_database(
            workload.instance,
            workload.constraints,
            algorithm="modified-greedy",
            verify=True,
        ),
        rounds=1,
        iterations=1,
    )
    assert result.verified
    assert result.violations_before > MIN_VIOLATIONS
    for phase, seconds in result.elapsed_seconds.items():
        record_point(TABLE, phase, n_tuples, seconds)
    record_point(TABLE, "violations", n_tuples, float(result.violations_before))
    # the solver is not the bottleneck at scale: detection/reduce dominate.
    assert result.elapsed_seconds["solve"] < (
        result.elapsed_seconds["detect"] + result.elapsed_seconds["reduce"]
    )
