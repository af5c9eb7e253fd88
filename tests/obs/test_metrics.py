"""Unit tests for the Counter/Gauge registry (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.obs.metrics import NULL_METRICS


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("violations_found", constraint="ic1")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_set_max(self):
        gauge = MetricsRegistry().gauge("inconsistency_degree")
        gauge.set_max(3)
        gauge.set_max(1)
        assert gauge.value == 3
        gauge.set(1)
        assert gauge.value == 1

    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("n", label="x")
        b = registry.counter("n", label="x")
        c = registry.counter("n", label="y")
        assert a is b
        assert a is not c
        assert len(registry) == 2


class TestRegistryIsolation:
    def test_tracers_do_not_share_metrics(self):
        """Each Tracer owns a private registry - the isolation contract."""
        first, second = Tracer("one"), Tracer("two")
        first.metrics.counter("mlf_evaluations").inc(7)
        snapshot = second.metrics.snapshot()
        assert snapshot == {"counters": [], "gauges": []}
        assert first.metrics.snapshot()["counters"][0]["value"] == 7

    def test_consecutive_runs_start_clean(self):
        for expected in (3, 5):
            tracer = Tracer()
            tracer.metrics.counter("cover_sets").inc(expected)
            counters = tracer.metrics.snapshot()["counters"]
            assert counters == [
                {"name": "cover_sets", "labels": {}, "value": expected}
            ]


class TestSnapshots:
    def test_snapshot_is_deterministically_ordered(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a", k="2").inc()
        registry.counter("a", k="1").inc()
        names = [
            (c["name"], c["labels"])
            for c in registry.snapshot()["counters"]
        ]
        assert names == [("a", {"k": "1"}), ("a", {"k": "2"}), ("b", {})]

    def test_unset_gauges_are_omitted(self):
        registry = MetricsRegistry()
        registry.gauge("never_written")
        assert registry.snapshot()["gauges"] == []


class TestNullMetrics:
    def test_null_registry_records_nothing(self):
        NULL_METRICS.counter("anything", label="x").inc(100)
        NULL_METRICS.gauge("anything").set_max(9)
        assert NULL_METRICS.snapshot() == {"counters": [], "gauges": []}
        assert len(NULL_METRICS) == 0

    def test_null_instruments_are_shared(self):
        a = NULL_METRICS.counter("a")
        b = NULL_METRICS.gauge("b", label="y")
        assert a is b
