"""Trace exporters: human tree report, JSON, Chrome trace-event format.

Three output forms, one input (:class:`~repro.obs.spans.Trace`):

* :func:`render_tree` - an indented wall/CPU breakdown for terminals
  (what ``repro-repair --trace`` prints);
* :meth:`Trace.to_dict` / :func:`load_trace` - the native JSON form,
  lossless round-trip;
* :func:`chrome_trace` - the Chrome trace-event format (open in
  ``chrome://tracing`` or https://ui.perfetto.dev): every span becomes a
  complete (``"ph": "X"``) event with microsecond ``ts``/``dur`` relative
  to the trace epoch, spans of other threads appear as their own
  ``pid``/``tid`` rows, and the metric snapshot rides along in
  ``otherData``.  :func:`trace_from_chrome` reconstructs the span tree
  from the events (nesting by containment per pid/tid row), which is the
  schema round-trip the test suite locks down.

:func:`summarize_trace` aggregates any trace into per-span-name rows
(count, wall, CPU, share of root wall) - the table behind the
``repro trace`` subcommand.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ReproError
from repro.obs.spans import Span, Trace

#: Formats accepted by :func:`write_trace` and the CLI/config plumbing.
TRACE_FORMATS = ("chrome", "json", "tree")


# ---------------------------------------------------------------------------
# human tree report


def _format_seconds(seconds: "float | None") -> str:
    if seconds is None:
        return "?"
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000:.2f}ms"


def _format_tags(tags: Mapping[str, Any]) -> str:
    if not tags:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(tags.items()))
    return f"  [{inner}]"


def render_tree(trace: Trace, max_children: int = 12) -> str:
    """Indented per-span wall/CPU report plus the metric snapshot.

    Sibling lists longer than ``max_children`` are elided (per-constraint
    and per-component spans can number thousands); the elision line says
    how many spans were folded and their combined wall time, so the tree
    never silently under-reports.
    """
    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{span.name:<{max(1, 28 - 2 * depth)}} "
            f"wall={_format_seconds(span.duration)} "
            f"cpu={_format_seconds(span.cpu)}"
            f"{_format_tags(span.tags)}"
        )
        children = sorted(span.children, key=lambda s: s.start)
        shown = children[:max_children]
        for child in shown:
            emit(child, depth + 1)
        hidden = children[max_children:]
        if hidden:
            folded = sum(child.duration or 0.0 for child in hidden)
            lines.append(
                f"{'  ' * (depth + 1)}... {len(hidden)} more span(s), "
                f"wall={_format_seconds(folded)}"
            )

    for root in trace.roots:
        emit(root, 0)
    counters = trace.metrics.get("counters", [])
    gauges = trace.metrics.get("gauges", [])
    if counters or gauges:
        lines.append("metrics:")
        for entry in counters:
            labels = _format_tags(entry.get("labels", {}))
            lines.append(f"  {entry['name']}{labels} = {entry['value']:g}")
        for entry in gauges:
            labels = _format_tags(entry.get("labels", {}))
            lines.append(f"  {entry['name']}{labels} = {entry['value']:g} (gauge)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Chrome trace-event format


def chrome_trace(trace: Trace) -> dict[str, Any]:
    """The trace as a Chrome trace-event JSON object.

    ``ts``/``dur`` are integer microseconds relative to the earliest root
    span (the epoch, preserved in ``otherData`` so
    :func:`trace_from_chrome` can restore absolute wall times).  ``ts``
    rounds the start down and ``ts + dur`` the end up, so a span inside
    its parent stays inside it after rounding.  Span tags land in
    ``args`` next to ``cpu_us``.
    """
    epoch = min((root.start for root in trace.roots), default=0.0)
    events: list[dict[str, Any]] = []

    def emit(span: Span) -> None:
        # Both ends map through the same monotone ``(t - epoch) * 1e6``.
        ts = max(0, math.floor((span.start - epoch) * 1_000_000))
        end = span.start + (span.duration or 0.0)
        end = max(ts, math.ceil((end - epoch) * 1_000_000))
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": ts,
                "dur": end - ts,
                "pid": span.pid,
                "tid": span.tid,
                "args": {"cpu_us": round((span.cpu or 0.0) * 1_000_000), **span.tags},
            }
        )
        for child in span.children:
            emit(child)

    for root in trace.roots:
        emit(root)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "epoch": epoch,
            "meta": dict(trace.meta),
            "metrics": dict(trace.metrics),
        },
    }


def trace_from_chrome(data: Mapping[str, Any]) -> Trace:
    """Rebuild a span tree from a Chrome trace-event object.

    Nesting is recovered by interval containment within each
    ``(pid, tid)`` row - exactly how the Chrome viewer stacks complete
    events.  Spans that were recorded on different threads/processes
    come back as separate roots (the cross-row parent/child links are
    not part of the Chrome schema).
    """
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ReproError("not a Chrome trace: missing 'traceEvents' list")
    other = data.get("otherData", {}) if isinstance(data.get("otherData"), dict) else {}
    epoch = float(other.get("epoch", 0.0))

    rows: dict[tuple, list[dict[str, Any]]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        rows.setdefault((event.get("pid", 0), event.get("tid", 0)), []).append(event)

    roots: list[Span] = []
    for (pid, tid), row_events in sorted(rows.items()):
        # Containment stacking: by start ascending, then duration descending,
        # an event's parent is the innermost open interval containing it
        # (a zero-length event at a parent's end included).
        row_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[tuple[int, Span]] = []  # (ts + dur, span)
        for event in row_events:
            args = dict(event.get("args", {}))
            cpu_us = args.pop("cpu_us", 0)
            span = Span.__new__(Span)
            span.name = str(event.get("name", ""))
            span.category = "" if event.get("cat") == "span" else str(event.get("cat", ""))
            span.tags = args
            span.start = epoch + event["ts"] / 1_000_000
            span.duration = event["dur"] / 1_000_000
            span.cpu = cpu_us / 1_000_000
            span.pid = int(pid)
            span.tid = int(tid)
            span.children = []
            span._perf0 = 0.0
            span._cpu0 = 0.0
            end = event["ts"] + event["dur"]
            while stack and end > stack[-1][0]:
                stack.pop()
            (stack[-1][1].children if stack else roots).append(span)
            stack.append((end, span))
    roots.sort(key=lambda span: span.start)
    return Trace(
        roots=roots,
        metrics=other.get("metrics", {}),
        meta=other.get("meta", {}),
    )


# ---------------------------------------------------------------------------
# summary table (the `repro trace` subcommand)


def percentile(values: "list[float]", q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    ``q`` is in ``[0, 100]``.  Matches ``numpy.percentile``'s default
    (``"linear"``) method without requiring NumPy; raises
    :class:`ReproError` on an empty input.
    """
    if not values:
        raise ReproError("cannot take a percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ReproError(f"percentile must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def summarize_trace(trace: Trace) -> list[dict[str, Any]]:
    """Aggregate spans by name: count, wall, CPU, p50/p99, share of root wall.

    Rows are sorted by total wall seconds, descending; ``p50_seconds`` /
    ``p99_seconds`` are percentiles over the individual span durations
    (equal to the single duration when a name occurred once); the share
    column is relative to the summed root-span wall time (100% = the
    whole traced run).
    """
    total_wall = sum(root.duration or 0.0 for root in trace.roots) or 1.0
    rows: dict[str, dict[str, Any]] = {}
    durations: dict[str, list[float]] = {}
    for span in trace.spans():
        row = rows.setdefault(
            span.name,
            {"name": span.name, "category": span.category, "count": 0,
             "wall_seconds": 0.0, "cpu_seconds": 0.0},
        )
        row["count"] += 1
        row["wall_seconds"] += span.duration or 0.0
        row["cpu_seconds"] += span.cpu or 0.0
        durations.setdefault(span.name, []).append(span.duration or 0.0)
    result = sorted(rows.values(), key=lambda r: -r["wall_seconds"])
    for row in result:
        row["share"] = row["wall_seconds"] / total_wall
        row["p50_seconds"] = percentile(durations[row["name"]], 50.0)
        row["p99_seconds"] = percentile(durations[row["name"]], 99.0)
    return result


def format_summary(trace: Trace) -> str:
    """The :func:`summarize_trace` rows as an aligned text table."""
    rows = summarize_trace(trace)
    if not rows:
        return "(empty trace)"
    name_width = max(len("span"), *(len(r["name"]) for r in rows))
    lines = [
        f"{'span':<{name_width}}  {'count':>6}  {'wall':>10}  {'cpu':>10}  "
        f"{'p50':>10}  {'p99':>10}  {'share':>6}"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row['name']:<{name_width}}  {row['count']:>6}  "
            f"{_format_seconds(row['wall_seconds']):>10}  "
            f"{_format_seconds(row['cpu_seconds']):>10}  "
            f"{_format_seconds(row['p50_seconds']):>10}  "
            f"{_format_seconds(row['p99_seconds']):>10}  "
            f"{row['share']:>6.1%}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commit-latency distribution (the `repro trace --latency` flag)


#: Span names :func:`latency_summary` reports by default: streaming commit
#: rounds and the per-commit pipeline stages they wrap.
LATENCY_SPANS = ("stream-round", "commit", "detect", "reduce", "solve", "apply")


def latency_summary(
    trace: Trace, names: "tuple[str, ...]" = LATENCY_SPANS
) -> list[dict[str, Any]]:
    """Latency distribution of the commit pipeline's repeated spans.

    For each span name in ``names`` that occurs in the trace, reports
    ``count``, ``mean_seconds``, ``p50_seconds``, ``p99_seconds`` and
    ``max_seconds`` over the individual span durations - the endurance
    view of a streaming run (is commit latency steady, what does the
    tail look like), complementing :func:`summarize_trace`'s where-does
    -the-time-go totals.  Rows keep the order of ``names``; names absent
    from the trace are skipped.
    """
    durations: dict[str, list[float]] = {}
    for span in trace.spans():
        if span.name in names:
            durations.setdefault(span.name, []).append(span.duration or 0.0)
    rows: list[dict[str, Any]] = []
    for name in names:
        samples = durations.get(name)
        if not samples:
            continue
        rows.append(
            {
                "name": name,
                "count": len(samples),
                "total_seconds": sum(samples),
                "mean_seconds": sum(samples) / len(samples),
                "p50_seconds": percentile(samples, 50.0),
                "p99_seconds": percentile(samples, 99.0),
                "max_seconds": max(samples),
            }
        )
    return rows


def format_latency(
    trace: Trace, names: "tuple[str, ...]" = LATENCY_SPANS
) -> str:
    """The :func:`latency_summary` rows as an aligned text table."""
    rows = latency_summary(trace, names)
    if not rows:
        return "(no commit-pipeline spans in trace)"
    name_width = max(len("span"), *(len(r["name"]) for r in rows))
    lines = [
        f"{'span':<{name_width}}  {'count':>6}  {'mean':>10}  "
        f"{'p50':>10}  {'p99':>10}  {'max':>10}"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row['name']:<{name_width}}  {row['count']:>6}  "
            f"{_format_seconds(row['mean_seconds']):>10}  "
            f"{_format_seconds(row['p50_seconds']):>10}  "
            f"{_format_seconds(row['p99_seconds']):>10}  "
            f"{_format_seconds(row['max_seconds']):>10}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# files


def write_trace(trace: Trace, path: "str | Path", format: str = "chrome") -> Path:
    """Write the trace to ``path`` in the requested format; returns the path."""
    if format not in TRACE_FORMATS:
        raise ReproError(
            f"unknown trace format {format!r}; choose from {TRACE_FORMATS}"
        )
    path = Path(path)
    if format == "tree":
        path.write_text(render_tree(trace) + "\n", encoding="utf-8")
        return path
    payload = chrome_trace(trace) if format == "chrome" else trace.to_dict()
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_trace(path: "str | Path") -> Trace:
    """Load a saved trace - native (``repro-trace``) or Chrome format."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise ReproError(f"cannot read trace file {path}: {error}")
    except json.JSONDecodeError as error:
        raise ReproError(f"trace file {path} is not valid JSON: {error}")
    if isinstance(data, Mapping) and data.get("format") == "repro-trace":
        return Trace.from_dict(data)
    if isinstance(data, Mapping) and "traceEvents" in data:
        return trace_from_chrome(data)
    raise ReproError(
        f"trace file {path} is neither a repro-trace JSON nor a Chrome trace"
    )
