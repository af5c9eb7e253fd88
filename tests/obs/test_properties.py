"""Property-based tests (hypothesis) for span clamping.

A closing span clamps its children into its own wall window
(:meth:`Span.close`).  Whatever the children report - skewed epochs,
zero durations, nested trees - the finished trace must satisfy the
exporter invariants:

* no negative durations anywhere;
* every child lies inside its parent's ``[start, end]`` window;
* clamping preserves the wall-time *order* of the children.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.obs import Span, Tracer

# Child spans land anywhere within a few hours of the parent's window
# (epoch skew far beyond anything a real clock produces).
starts = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
durations = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@st.composite
def span_dicts(draw, depth=2):
    """A span in wire form, with optional nested children."""
    children = (
        draw(st.lists(span_dicts(depth=depth - 1), max_size=3))
        if depth > 0
        else []
    )
    return {
        "name": draw(st.sampled_from(["detect:ic1", "solve:greedy", "work"])),
        "start": draw(starts),
        "duration": draw(durations),
        "cpu": draw(durations),
        "pid": draw(st.integers(min_value=1, max_value=99999)),
        "tid": 1,
        "children": children,
    }


def merged_trace(payload_spans):
    """Hang the wire-form spans under a stage span that then closes."""
    tracer = Tracer()
    with tracer.span("repair", category="pipeline"):
        with tracer.span("solve", category="stage") as stage:
            stage.children.extend(Span.from_dict(d) for d in payload_spans)
    return tracer.finish()


@given(st.lists(span_dicts(), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_merged_spans_have_no_negative_durations(payload_spans):
    trace = merged_trace(payload_spans)
    for span in trace.spans():
        assert span.duration is not None
        assert span.duration >= 0.0


@given(st.lists(span_dicts(), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_merged_children_stay_inside_parent_windows(payload_spans):
    trace = merged_trace(payload_spans)

    def check(span):
        for child in span.children:
            assert child.start >= span.start - 1e-9
            assert child.end <= span.end + 1e-9
            check(child)

    for root in trace.roots:
        check(root)


@given(st.lists(span_dicts(depth=0), min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_merge_preserves_wall_time_order(payload_spans):
    """Clamping is monotone: the children's wall-time order survives it.

    Children keep their list positions, so pairing positionally and
    sorting by the *original* start must leave the *clamped* starts
    non-decreasing - clamping never swaps two spans in time.
    """
    trace = merged_trace(payload_spans)
    stage = trace.find("solve")
    merged = stage.children
    assert len(merged) == len(payload_spans)
    pairs = list(zip(payload_spans, merged))
    pairs.sort(key=lambda p: p[0]["start"])
    clamped_starts = [span.start for _, span in pairs]
    assert clamped_starts == sorted(clamped_starts)


@given(span_dicts())
@settings(max_examples=50, deadline=None)
def test_wire_round_trip_is_lossless(span_dict):
    span = Span.from_dict(span_dict)
    again = Span.from_dict(span.to_dict())
    assert again.to_dict() == span.to_dict()
