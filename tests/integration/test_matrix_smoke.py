"""Cross-engine parity smoke: one sweep over the whole execution matrix.

Every (detection engine x executor x pipeline mode)
combination must repair the same workload to the same result as the
serial batch baseline.  This is deliberately one parametrized test: a
single red dot in the matrix pinpoints the broken combination.
"""

from __future__ import annotations

import pytest

from repro import DatabaseInstance, IncrementalRepairer, repair_database
from repro.model.columnar import kernel_available
from repro.repair.streaming import StreamingRepairer
from repro.workloads.clientbuy import client_buy_workload

ENGINES = ("auto", "interpreted") + (("kernel",) if kernel_available() else ())
EXECUTORS = ("serial", "auto")
MODES = ("batch", "incremental", "streaming")


def _matrix():
    for engine in ENGINES:
        for executor in EXECUTORS:
            for mode in MODES:
                yield engine, executor, mode


@pytest.fixture(scope="module")
def baseline_workload():
    workload = client_buy_workload(35, inconsistency_ratio=0.4, seed=17)
    baseline = repair_database(workload.instance, workload.constraints)
    assert baseline.verified
    return workload, baseline


def _replay(workload, repairer):
    """Stage every workload row into an (initially empty) repairer."""
    for name in workload.schema.relation_names:
        for tup in workload.instance.tuples(name):
            repairer.insert(name, tup.values)


@pytest.mark.parametrize(
    "engine,executor,mode",
    list(_matrix()),
    ids=lambda value: str(value),
)
def test_matrix_combination_matches_serial_batch(
    baseline_workload, engine, executor, mode
):
    workload, baseline = baseline_workload
    kwargs = {"engine": engine}
    if executor != "serial":
        kwargs["parallel"] = executor

    if mode == "batch":
        result = repair_database(
            workload.instance, workload.constraints, **kwargs
        )
        repaired = result.repaired
    elif mode == "incremental":
        repairer = IncrementalRepairer(
            DatabaseInstance(workload.schema), workload.constraints, **kwargs
        )
        _replay(workload, repairer)
        result = repairer.commit(verify=True)
        repaired = repairer.instance
    else:
        # One oversized commit interval: the whole batch lands in a
        # single round, so the stream must reproduce the batch repair.
        streamer = StreamingRepairer(
            DatabaseInstance(workload.schema),
            workload.constraints,
            max_pending=None,
            commit_interval=None,
            **kwargs,
        )
        _replay(workload, streamer)
        result = streamer.flush(verify=True)
        repaired = streamer.instance

    assert result.verified
    assert repaired == baseline.repaired
    assert result.cover_weight == baseline.cover_weight
