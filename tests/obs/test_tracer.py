"""Unit tests for the Tracer activation/fan-in protocol (repro.obs.trace)."""

from __future__ import annotations

import os
import threading

import pytest

from repro.obs import NULL_TRACER, NullTracer, Tracer, as_tracer, current_tracer
from repro.obs.trace import _NULL_SPAN


class TestSpanTree:
    def test_nesting_follows_with_blocks(self):
        tracer = Tracer()
        with tracer.span("repair", category="pipeline"):
            with tracer.span("detect", category="stage"):
                with tracer.span("detect:ic1"):
                    pass
            with tracer.span("solve", category="stage"):
                pass
        trace = tracer.finish()
        assert [s.name for s in trace.spans()] == [
            "repair", "detect", "detect:ic1", "solve",
        ]
        root = trace.roots[0]
        assert [c.name for c in root.children] == ["detect", "solve"]

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_exception_tags_error_and_closes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        trace = tracer.finish()
        span = trace.find("boom")
        assert span is not None and span.closed
        assert span.tags["error"] == "RuntimeError"

    def test_finish_skips_open_spans_and_sorts_roots(self):
        tracer = Tracer()
        with tracer.span("done"):
            pass
        open_cm = tracer.span("still-open")
        open_cm.__enter__()
        trace = tracer.finish()
        assert [s.name for s in trace.spans()] == ["done"]
        assert trace.meta["pid"] == os.getpid()


class TestActivation:
    def test_activate_swaps_global_and_restores(self):
        assert current_tracer() is NULL_TRACER
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
            inner = Tracer()
            with inner.activate():
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_foreign_thread_without_anchor_becomes_root(self):
        tracer = Tracer()

        def worker():
            with tracer.span("orphan"):
                pass

        with tracer.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        trace = tracer.finish()
        assert sorted(root.name for root in trace.roots) == ["main", "orphan"]


class TestNullTracer:
    def test_span_allocates_nothing(self):
        a = NULL_TRACER.span("x", category="stage", tag=1)
        b = NULL_TRACER.span("y")
        assert a is b is _NULL_SPAN

    def test_null_span_surface(self):
        with NULL_TRACER.span("x") as span:
            assert span.tag(anything=1) is span
            assert span.children == ()
            assert span.duration == 0.0

    def test_finish_is_empty(self):
        trace = NULL_TRACER.finish()
        assert len(trace) == 0
        assert trace.metrics == {"counters": [], "gauges": []}


class TestAsTracer:
    def test_false_and_none_give_null(self):
        assert as_tracer(False) is NULL_TRACER
        assert as_tracer(None) is NULL_TRACER

    def test_true_gives_fresh_tracers(self):
        a, b = as_tracer(True), as_tracer(True)
        assert isinstance(a, Tracer) and isinstance(b, Tracer)
        assert a is not b

    def test_tracer_passes_through(self):
        tracer = Tracer()
        assert as_tracer(tracer) is tracer
        null = NullTracer()
        assert as_tracer(null) is null

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_tracer("yes")
