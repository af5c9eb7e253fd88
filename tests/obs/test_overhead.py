"""The disabled-tracing overhead contract.

With ``trace=False`` (the default) the observability layer must be
invisible: **zero** :class:`~repro.obs.spans.Span` objects allocated
anywhere in the pipeline, no active tracer left behind, and - measured
against the raw, undecorated solver - at most a ~2% runtime tax from
the instrumentation's ``enabled`` checks.

The timing half runs only under ``REPRO_BENCH_QUICK`` (the benchmark
smoke-mode switch): wall-clock ratios are a property of the runner, not
of the code, so they belong with the benchmark legs of CI.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import repair_database
from repro.obs import NULL_TRACER, current_tracer
from repro.obs import spans as spans_module  # noqa: F401 - patched in fixture

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").lower() not in ("", "0", "false")


@pytest.fixture
def span_counter(monkeypatch):
    """Count every Span construction during the test."""
    counts = {"spans": 0}
    original = spans_module.Span.__init__

    def counting_init(self, *args, **kwargs):
        counts["spans"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(spans_module.Span, "__init__", counting_init)
    return counts


class TestZeroSpans:
    def test_untraced_repair_allocates_no_spans(
        self, small_clientbuy, span_counter
    ):
        result = repair_database(
            small_clientbuy.instance, small_clientbuy.constraints
        )
        assert result.trace is None
        assert span_counter["spans"] == 0

    def test_untraced_repair_with_runtime_allocates_no_spans(
        self, small_clientbuy, span_counter
    ):
        repair_database(
            small_clientbuy.instance,
            small_clientbuy.constraints,
            parallel="auto",
        )
        assert span_counter["spans"] == 0

    def test_no_active_tracer_leaks(self, small_clientbuy):
        repair_database(
            small_clientbuy.instance, small_clientbuy.constraints, trace=True
        )
        assert current_tracer() is NULL_TRACER

    def test_traced_repair_does_allocate(self, small_clientbuy, span_counter):
        """The counter fixture itself works: traced runs create spans."""
        result = repair_database(
            small_clientbuy.instance, small_clientbuy.constraints, trace=True
        )
        assert result.trace is not None
        assert span_counter["spans"] >= len(result.trace)


@pytest.mark.skipif(
    not QUICK,
    reason="timing regression runs with the benchmark smoke legs "
    "(set REPRO_BENCH_QUICK=1)",
)
def test_disabled_instrumentation_within_two_percent():
    """traced_solver with tracing off costs <=2% vs the raw solver.

    Figure-3 territory: the solver is the paper's timed region, so the
    decorator must be free when nobody is tracing.  Best-of-N on both
    sides squeezes out scheduler noise; a small absolute floor keeps the
    ratio meaningful when the solve is only a few milliseconds.
    """
    from repro.repair.builder import build_repair_problem
    from repro.setcover import modified_greedy_cover
    from repro.workloads import client_buy_workload

    workload = client_buy_workload(400, inconsistency_ratio=0.30, seed=0)
    problem = build_repair_problem(workload.instance, workload.constraints)
    raw = modified_greedy_cover.__wrapped__

    def best_of(solver, repeats=7):
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            solver(problem.setcover)
            best = min(best, time.perf_counter() - started)
        return best

    # Interleave warmup, then measure both sides.
    best_of(modified_greedy_cover, repeats=2)
    best_of(raw, repeats=2)
    wrapped_best = best_of(modified_greedy_cover)
    raw_best = best_of(raw)

    assert wrapped_best <= raw_best * 1.02 + 200e-6, (
        f"disabled tracing cost {wrapped_best / raw_best - 1:.2%} "
        f"(wrapped {wrapped_best * 1e3:.3f}ms vs raw {raw_best * 1e3:.3f}ms)"
    )
