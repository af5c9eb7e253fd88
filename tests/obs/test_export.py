"""Unit tests for the trace exporters (repro.obs.export)."""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.exceptions import ReproError
from repro.obs import (
    LATENCY_SPANS,
    Span,
    Trace,
    Tracer,
    chrome_trace,
    format_latency,
    format_summary,
    latency_summary,
    load_trace,
    percentile,
    render_tree,
    summarize_trace,
    trace_from_chrome,
    write_trace,
)


@pytest.fixture
def sample_trace():
    """A realistic little trace: pipeline root, stages, worker row."""
    tracer = Tracer()
    # The sleeps keep every span comfortably above the exporter's
    # microsecond resolution, so containment stacking is unambiguous.
    with tracer.span("repair", category="pipeline", algorithm="greedy"):
        with tracer.span("detect", category="stage"):
            with tracer.span("detect:ic1", category="detect", violations=2):
                time.sleep(0.002)
        with tracer.span("solve", category="stage"):
            with tracer.span("solve:greedy", category="solver"):
                time.sleep(0.002)
    tracer.metrics.counter("violations_found", constraint="ic1").inc(2)
    tracer.metrics.gauge("inconsistency_degree").set_max(1)
    return tracer.finish()


class TestChromeRoundTrip:
    def test_event_schema(self, sample_trace):
        data = chrome_trace(sample_trace)
        events = data["traceEvents"]
        assert len(events) == 5
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            assert isinstance(event["dur"], int) and event["dur"] >= 0
            assert "cpu_us" in event["args"]
        root = next(e for e in events if e["name"] == "repair")
        assert root["cat"] == "pipeline"
        assert root["args"]["algorithm"] == "greedy"
        assert data["otherData"]["metrics"]["counters"]

    def test_round_trip_preserves_tree(self, sample_trace):
        rebuilt = trace_from_chrome(chrome_trace(sample_trace))
        assert [s.name for s in rebuilt.spans()] == [
            s.name for s in sample_trace.spans()
        ]
        root = rebuilt.roots[0]
        assert root.name == "repair"
        assert [c.name for c in root.children] == ["detect", "solve"]
        assert root.children[0].children[0].tags["violations"] == 2
        assert rebuilt.metrics == sample_trace.metrics

    def test_round_trip_keeps_timing_within_microsecond(self, sample_trace):
        rebuilt = trace_from_chrome(chrome_trace(sample_trace))
        for original, copy in zip(sample_trace.spans(), rebuilt.spans()):
            assert copy.start == pytest.approx(original.start, abs=2e-6)
            assert copy.duration == pytest.approx(original.duration, abs=2e-6)

    def test_round_trip_survives_json(self, sample_trace):
        payload = json.loads(json.dumps(chrome_trace(sample_trace)))
        rebuilt = trace_from_chrome(payload)
        assert len(rebuilt) == len(sample_trace)

    def test_separate_pid_rows_become_separate_roots(self, sample_trace):
        data = chrome_trace(sample_trace)
        worker_event = {
            "name": "solve:greedy",
            "cat": "solver",
            "ph": "X",
            "ts": 0,
            "dur": 10,
            "pid": 99999,
            "tid": 1,
            "args": {"cpu_us": 5},
        }
        data["traceEvents"].append(worker_event)
        rebuilt = trace_from_chrome(data)
        assert len(rebuilt.roots) == 2

    def test_rejects_non_chrome_payload(self):
        with pytest.raises(ReproError):
            trace_from_chrome({"foo": "bar"})


def _span_tree(name, start, duration, children=()):
    return Span.from_dict(
        {
            "name": name,
            "start": start,
            "duration": duration,
            "pid": 1,
            "tid": 1,
            "children": [child.to_dict() for child in children],
        }
    )


def _shape(span):
    return (span.name, [_shape(child) for child in span.children])


class TestChromeBoundaries:
    """Rounding to whole microseconds must not re-parent a span."""

    def test_zero_length_child_at_parent_end_stays_nested(self):
        # parent covers [0.4, 10.8] us after the epoch; rounding ts and dur
        # on their own gave it [0, 10] and put the child's start at 11.
        epoch = 1000.0
        parent_start, parent_duration = epoch + 0.4e-6, 10.4e-6
        child = _span_tree("child", parent_start + parent_duration, 0.0)
        parent = _span_tree("parent", parent_start, parent_duration, [child])
        root = _span_tree("root", epoch, 100e-6, [parent])
        rebuilt = trace_from_chrome(chrome_trace(Trace(roots=(root,))))
        assert [_shape(r) for r in rebuilt.roots] == [_shape(root)]

    def test_zero_length_event_at_parent_end_is_its_child(self):
        events = [
            {"name": "parent", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
            {"name": "child", "ph": "X", "ts": 10, "dur": 0, "pid": 1, "tid": 1},
            {"name": "next", "ph": "X", "ts": 11, "dur": 5, "pid": 1, "tid": 1},
        ]
        rebuilt = trace_from_chrome({"traceEvents": events})
        assert [_shape(r) for r in rebuilt.roots] == [
            ("parent", [("child", [])]),
            ("next", []),
        ]

    def test_random_nested_trees_round_trip(self):
        rng = random.Random(7)

        def build(name, start, duration, depth):
            # Siblings sit at least 2 us apart: closer ones are ambiguous
            # at microsecond resolution.  A child may touch either end of
            # its parent and may have zero length.
            children, cursor = [], start
            for index in range(rng.randint(0, 3) if depth < 3 else 0):
                gap = rng.choice([0.0, rng.random() * 3e-6])
                child_start = min(cursor + gap, start + duration)
                if index and child_start - cursor < 2e-6:
                    break
                room = start + duration - child_start
                child_duration = rng.choice([0.0, rng.random() * room, room])
                children.append(
                    build(f"{name}.{index}", child_start, child_duration, depth + 1)
                )
                cursor = child_start + child_duration
            return _span_tree(name, start, duration, children)

        for trial in range(200):
            epoch = 1_700_000_000.0 + rng.random()
            root = build(f"r{trial}", epoch, rng.random() * 40e-6, 0)
            rebuilt = trace_from_chrome(chrome_trace(Trace(roots=(root,))))
            assert [_shape(r) for r in rebuilt.roots] == [_shape(root)]


class TestSummaryAndTree:
    def test_summarize_aggregates_by_name(self, sample_trace):
        rows = summarize_trace(sample_trace)
        by_name = {row["name"]: row for row in rows}
        assert by_name["repair"]["count"] == 1
        assert by_name["repair"]["share"] == pytest.approx(1.0)
        assert set(by_name) == {
            "repair", "detect", "detect:ic1", "solve", "solve:greedy",
        }
        walls = [row["wall_seconds"] for row in rows]
        assert walls == sorted(walls, reverse=True)

    def test_format_summary_table(self, sample_trace):
        text = format_summary(sample_trace)
        assert "span" in text and "share" in text
        assert "solve:greedy" in text
        assert format_summary(Trace(roots=())) == "(empty trace)"

    def test_render_tree_shows_stages_and_metrics(self, sample_trace):
        text = render_tree(sample_trace)
        assert "repair" in text and "detect:ic1" in text
        assert "violations=2" in text
        assert "metrics:" in text
        assert "inconsistency_degree" in text and "(gauge)" in text

    def test_render_tree_elides_long_sibling_lists(self):
        children = []
        for i in range(20):
            child = Span.from_dict(
                {"name": f"c{i}", "start": float(i), "duration": 1.0}
            )
            children.append(child)
        root = Span.from_dict({"name": "root", "start": 0.0, "duration": 30.0})
        root.children = children
        text = render_tree(Trace(roots=[root]), max_children=5)
        assert "c4" in text and "c5" not in text
        assert "15 more span(s)" in text


def _span(name: str, start: float, duration: float) -> Span:
    return Span.from_dict({"name": name, "start": start, "duration": duration})


@pytest.fixture
def commit_trace():
    """Ten commit rounds with known durations 1..10 ms, plus one detect."""
    roots = []
    for i in range(1, 11):
        root = _span("stream-round", float(i), 0.02)
        root.children = [_span("commit", float(i), i / 1000.0)]
        roots.append(root)
    roots[0].children[0].children = [_span("detect", 1.0, 0.0004)]
    return Trace(roots=roots)


class TestPercentile:
    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_endpoints(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_p99_near_max(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 99) == pytest.approx(99.01)

    def test_unsorted_input_ok(self):
        assert percentile([9.0, 1.0, 5.0], 50) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            percentile([], 50)

    @pytest.mark.parametrize("q", [-1, 101])
    def test_out_of_range_rejected(self, q):
        with pytest.raises(ReproError):
            percentile([1.0], q)


class TestLatencySummary:
    def test_rows_follow_names_order(self, commit_trace):
        rows = latency_summary(commit_trace)
        assert [row["name"] for row in rows] == [
            "stream-round", "commit", "detect",
        ]
        assert [row["name"] for row in rows] == [
            n for n in LATENCY_SPANS
            if n in {"stream-round", "commit", "detect"}
        ]

    def test_commit_percentiles(self, commit_trace):
        commit = next(
            row for row in latency_summary(commit_trace) if row["name"] == "commit"
        )
        assert commit["count"] == 10
        assert commit["total_seconds"] == pytest.approx(0.055)
        assert commit["mean_seconds"] == pytest.approx(0.0055)
        assert commit["p50_seconds"] == pytest.approx(0.0055)
        assert commit["p99_seconds"] == pytest.approx(0.00991)
        assert commit["max_seconds"] == pytest.approx(0.010)

    def test_absent_names_skipped(self, sample_trace):
        rows = latency_summary(sample_trace, names=("commit", "nope"))
        assert rows == []

    def test_custom_names(self, sample_trace):
        rows = latency_summary(sample_trace, names=("solve", "detect"))
        assert [row["name"] for row in rows] == ["solve", "detect"]

    def test_format_latency_table(self, commit_trace):
        text = format_latency(commit_trace)
        assert "p50" in text and "p99" in text
        assert "commit" in text and "stream-round" in text

    def test_format_latency_empty(self, sample_trace):
        text = format_latency(sample_trace, names=("commit",))
        assert text == "(no commit-pipeline spans in trace)"


class TestSummaryPercentiles:
    def test_summarize_trace_has_p50_p99(self, commit_trace):
        by_name = {row["name"]: row for row in summarize_trace(commit_trace)}
        assert by_name["commit"]["p50_seconds"] == pytest.approx(0.0055)
        assert by_name["commit"]["p99_seconds"] == pytest.approx(0.00991)

    def test_format_summary_shows_percentile_columns(self, commit_trace):
        text = format_summary(commit_trace)
        assert "p50" in text and "p99" in text


class TestTraceFiles:
    @pytest.mark.parametrize("format", ["chrome", "json"])
    def test_write_then_load(self, tmp_path, sample_trace, format):
        path = write_trace(sample_trace, tmp_path / "t.json", format)
        loaded = load_trace(path)
        assert len(loaded) == len(sample_trace)
        assert loaded.find("solve:greedy") is not None

    def test_write_tree_format_is_text(self, tmp_path, sample_trace):
        path = write_trace(sample_trace, tmp_path / "t.txt", "tree")
        assert "repair" in path.read_text()

    def test_write_unknown_format(self, tmp_path, sample_trace):
        with pytest.raises(ReproError):
            write_trace(sample_trace, tmp_path / "t", "xml")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            load_trace(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ReproError):
            load_trace(path)

    def test_load_unrecognized_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ReproError):
            load_trace(path)
