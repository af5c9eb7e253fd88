"""repro.obs - zero-dependency tracing, metrics and profiling hooks.

The paper's evaluation (Section 6) is entirely about *measuring* the
repair pipeline - where detection, reduction and solving time goes, how
inconsistent the input was, how big the covers came out.  This package
makes those measurements first-class instead of ad-hoc timing dicts:

* :mod:`repro.obs.spans` - :class:`Span` (nested, wall + CPU time,
  tags) and :class:`Trace` (the finished run);
* :mod:`repro.obs.trace` - :class:`Tracer` (thread-safe collection)
  and the :func:`current_tracer` activation
  protocol instrumented code uses;
* :mod:`repro.obs.metrics` - :class:`Counter`/:class:`Gauge` registry
  (violations per constraint, MLF evaluations, cover sizes, columnar
  cache hits/misses, the inconsistency degree ``Deg(D, IC)``);
* :mod:`repro.obs.export` - the human tree report, lossless JSON, and
  Chrome ``chrome://tracing`` trace-event exporters plus the
  ``repro trace`` summary table;
* :mod:`repro.obs.stats` - the documented ``solver_stats`` schema and
  its normalizer.

Tracing is opt-in per run (``repair_database(..., trace=True)``, the
config ``runtime.trace`` block, CLI ``--trace``); when off, the
:data:`NULL_TRACER` makes every instrumented site a few attribute
lookups and **zero** allocated spans - the overhead contract the
``tests/obs`` regression suite enforces.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.obs.export import (
    LATENCY_SPANS,
    TRACE_FORMATS,
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
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.spans import Span, Trace
from repro.obs.stats import normalize_solver_stats
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    as_tracer,
    current_tracer,
)

__all__ = [
    "LATENCY_SPANS",
    "NULL_TRACER",
    "TRACE_FORMATS",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Trace",
    "Tracer",
    "as_tracer",
    "chrome_trace",
    "current_tracer",
    "format_latency",
    "format_summary",
    "latency_summary",
    "load_trace",
    "normalize_solver_stats",
    "percentile",
    "render_tree",
    "summarize_trace",
    "trace_from_chrome",
    "traced_solver",
    "write_trace",
]


def traced_solver(name: str) -> Callable:
    """Decorator wrapping a set-cover solver in a ``solve:<name>`` span.

    The span carries the instance shape going in and the cover shape
    coming out, and feeds the ``cover_sets`` counter; with tracing off
    the wrapper is a single ``enabled`` check and a direct call, so the
    solver benchmarks (Figure 3) see no measurable overhead.
    """

    def decorate(solver: Callable) -> Callable:
        @functools.wraps(solver)
        def traced(instance: Any, *args: Any, **kwargs: Any) -> Any:
            tracer = current_tracer()
            if not tracer.enabled:
                return solver(instance, *args, **kwargs)
            with tracer.span(
                f"solve:{name}",
                category="solver",
                sets=instance.n_sets,
                elements=instance.n_elements,
            ) as span:
                cover = solver(instance, *args, **kwargs)
                span.tag(
                    weight=cover.weight,
                    selected=len(cover.selected),
                    iterations=cover.iterations,
                )
                tracer.metrics.counter("cover_sets", algorithm=name).inc(
                    len(cover.selected)
                )
                return cover

        return traced

    return decorate
