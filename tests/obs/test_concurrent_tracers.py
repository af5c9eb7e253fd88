"""Tracer isolation under concurrency: live tracers never interleave.

The service runs one :class:`Tracer` per job on a shared bridge pool -
thread-local activation must keep each thread's spans in its own trace,
and the latency helpers must summarize each trace independently.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import trace as trace_module
from repro.obs.export import latency_summary, percentile, summarize_trace
from repro.obs.trace import Tracer, current_tracer
from repro.service import JobRequest, run_jobs
from repro.workloads.clientbuy import client_buy_workload


@pytest.fixture(autouse=True)
def _restore_global_fallback():
    """Overlapping cross-thread activations intentionally leave the
    process-global fallback on the most recent activation ("last
    activation wins" for anonymous threads) - scrub it after each test
    so the stale tracer never bleeds into the rest of the suite."""
    with trace_module._ACTIVE_LOCK:
        before = trace_module._ACTIVE
    yield
    with trace_module._ACTIVE_LOCK:
        trace_module._ACTIVE = before


class TestThreadLocalActivation:
    def test_local_activation_beats_the_global_fallback(self):
        """A thread's own activation is authoritative - a concurrent
        activation on another thread never disturbs it."""
        seen = {}
        mine_active = threading.Event()
        other_done = threading.Event()

        def other_thread():
            mine_active.wait(5.0)
            own = Tracer("other")
            with own.activate():  # overwrites the global fallback...
                seen["other"] = current_tracer()
            other_done.set()

        tracer = Tracer("mine")
        worker = threading.Thread(target=other_thread)
        worker.start()
        with tracer.activate():
            mine_active.set()
            other_done.wait(5.0)
            seen["mine"] = current_tracer()  # ...but not this local slot
        worker.join()
        assert seen["mine"] is tracer
        assert seen["other"].name == "other"

    def test_anonymous_thread_inherits_the_fallback(self):
        """A thread with no activation of its own reads the most recent
        activation - how ad-hoc helper threads join a traced run."""
        seen = {}
        ready = threading.Event()
        release = threading.Event()

        def anonymous_thread():
            ready.wait(5.0)
            seen["anonymous"] = current_tracer()
            release.set()

        tracer = Tracer("mine")
        worker = threading.Thread(target=anonymous_thread)
        worker.start()
        with tracer.activate():
            ready.set()
            release.wait(5.0)
        worker.join()
        assert seen["anonymous"] is tracer

    def test_two_live_tracers_do_not_interleave_spans(self):
        """Two threads tracing concurrently each keep their own spans."""
        barrier = threading.Barrier(2, timeout=10.0)
        traces = {}

        def traced_work(name: str, count: int) -> None:
            tracer = Tracer(name)
            with tracer.activate():
                barrier.wait()
                for i in range(count):
                    with current_tracer().span(f"{name}-step", index=i):
                        time.sleep(0.001)
            traces[name] = tracer.finish()

        threads = [
            threading.Thread(target=traced_work, args=("left", 7)),
            threading.Thread(target=traced_work, args=("right", 11)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for name, count in (("left", 7), ("right", 11)):
            spans = list(traces[name].spans())
            assert len(spans) == count
            assert {span.name for span in spans} == {f"{name}-step"}

    def test_nested_activation_restores_previous(self):
        before = current_tracer()
        outer, inner = Tracer("outer"), Tracer("inner")
        with outer.activate():
            assert current_tracer() is outer
            with inner.activate():
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is before


class TestLatencyHelpersUnderConcurrency:
    def test_summaries_are_per_trace(self):
        """Latency stats computed from concurrent traces stay disjoint."""
        barrier = threading.Barrier(3, timeout=10.0)
        traces = {}

        def traced_commits(name: str, count: int) -> None:
            tracer = Tracer(name)
            with tracer.activate():
                barrier.wait()
                for _ in range(count):
                    with current_tracer().span("commit", category="pipeline"):
                        time.sleep(0.001)
            traces[name] = tracer.finish()

        threads = [
            threading.Thread(target=traced_commits, args=(f"job{i}", 3 + i))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for i in range(3):
            (row,) = latency_summary(traces[f"job{i}"], names=("commit",))
            assert row["count"] == 3 + i
            assert row["p50_seconds"] > 0.0
            assert row["p99_seconds"] <= row["max_seconds"]

    def test_service_job_traces_are_disjoint(self):
        """End to end: two concurrent traced jobs, two clean span trees."""
        workload = client_buy_workload(25, inconsistency_ratio=0.4, seed=13)
        requests = [JobRequest(workload.instance, tuple(workload.constraints))] * 2
        views, service = run_jobs(requests, workers=2, trace_jobs=True)
        for view in views:
            trace = service.trace_of(view.id)
            by_name = {row["name"]: row for row in summarize_trace(trace)}
            # Each job's trace holds exactly one repair pipeline - never
            # a neighbour's spans on top of its own.  (The span *sets*
            # may differ: whichever job detects first populates the
            # violations cache and the other skips its detect spans.)
            assert by_name["repair"]["count"] == 1
            assert by_name["solve"]["count"] >= 1


class TestPercentileContract:
    def test_percentile_bounds(self):
        values = [float(v) for v in range(10)]
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 100.0) == 9.0
        assert percentile(values, 50.0) == pytest.approx(4.5)

    def test_single_sample(self):
        assert percentile([3.5], 99.0) == 3.5
