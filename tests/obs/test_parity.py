"""Tracing must never change a repair: traced vs untraced parity.

The observability layer's core promise is that it only *observes* -
``repair_database(..., trace=True)`` returns the byte-identical repair
(same changes, same cover, same serialized form) as the untraced call,
for every approximation algorithm and both detection engines.
"""

from __future__ import annotations

import json

import pytest

from repro import repair_database
from repro.model import kernel_available
from repro.repair.serialize import change_to_dict

APPROXIMATIONS = ["greedy", "modified-greedy", "layer", "modified-layer"]
ENGINES = ["interpreted"] + (["kernel"] if kernel_available() else [])


def _comparable(result):
    """Everything a repair produced except the observability payloads."""
    return {
        "changes": json.dumps(
            [change_to_dict(c) for c in result.changes], sort_keys=True
        ),
        "cover_weight": result.cover_weight,
        "distance": result.distance,
        "violations_before": result.violations_before,
        "verified": result.verified,
        "solver_iterations": result.solver_iterations,
        "repaired": result.repaired,
    }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("algorithm", APPROXIMATIONS)
def test_traced_run_is_byte_identical(small_clientbuy, algorithm, engine):
    kwargs = dict(algorithm=algorithm, engine=engine)
    untraced = repair_database(
        small_clientbuy.instance, small_clientbuy.constraints, **kwargs
    )
    traced = repair_database(
        small_clientbuy.instance,
        small_clientbuy.constraints,
        trace=True,
        **kwargs,
    )
    assert untraced.trace is None
    assert traced.trace is not None and len(traced.trace) > 0
    assert _comparable(traced) == _comparable(untraced)


@pytest.mark.parametrize("algorithm", APPROXIMATIONS)
def test_parity_on_paper_example(paper_pub, algorithm):
    untraced = repair_database(
        paper_pub.instance, paper_pub.constraints, algorithm=algorithm
    )
    traced = repair_database(
        paper_pub.instance,
        paper_pub.constraints,
        algorithm=algorithm,
        trace=True,
    )
    assert _comparable(traced) == _comparable(untraced)
    # The stats schema is identical too - tracing adds no keys there.
    assert dict(traced.solver_stats) == dict(untraced.solver_stats)


def test_parity_under_decomposed_solve(small_clientbuy):
    untraced = repair_database(
        small_clientbuy.instance,
        small_clientbuy.constraints,
        algorithm="modified-greedy",
        parallel="auto",
    )
    traced = repair_database(
        small_clientbuy.instance,
        small_clientbuy.constraints,
        algorithm="modified-greedy",
        parallel="auto",
        trace=True,
    )
    assert _comparable(traced) == _comparable(untraced)
