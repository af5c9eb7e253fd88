"""Tracer: span lifecycle and thread-local activation.

One :class:`Tracer` observes one traced run (a ``repair_database`` call,
an :class:`~repro.repair.incremental.IncrementalRepairer` lifetime, a
benchmark).  Instrumented library code never holds a tracer reference;
it asks for the *active* one::

    from repro.obs import current_tracer

    with current_tracer().span("detect:ic1", category="detect") as span:
        ...
        span.tag(violations=n)

and :func:`current_tracer` returns :data:`NULL_TRACER` unless a run
activated a real tracer (``with tracer.activate(): ...``).  The null
tracer's ``span()`` returns one shared no-op context manager and its
``metrics`` registry drops everything, so the disabled path costs a few
attribute lookups per instrumented site - no spans are ever created
(the overhead-regression suite in ``tests/obs`` pins this down).

Thread-local activation
    The tracer a thread activated is what its own ``current_tracer()``
    calls see, so two concurrent traced runs on different threads (the
    job runtime of :mod:`repro.service` runs many on its bridge threads)
    never interleave spans into each other's traces.  Threads that never
    activated anything fall back to the most recent activation
    process-wide, which keeps plain single-run tracing working for
    ad-hoc helper threads; a span such a thread opens on an empty stack
    becomes a root.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Iterator, Mapping

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.spans import Span, Trace

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "as_tracer",
    "current_tracer",
]


class _OpenSpan:
    """Context manager driving one span's lifecycle on the owning tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        span = self._span
        stack = tracer._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if exc_type is not None:
            span.tag(error=exc_type.__name__)
        span.close()
        parent = stack[-1] if stack else None
        with tracer._lock:
            if parent is not None and parent is not span:
                parent.children.append(span)
            else:
                tracer._roots.append(span)
        return False


class _Activation:
    """Context manager installing a tracer as the calling thread's active one.

    The activation is recorded twice: in the calling thread's local slot
    (authoritative - concurrent activations on other threads never
    disturb it) and in the process-global fallback slot read by threads
    that have no local activation of their own.  Both are restored on
    exit.
    """

    __slots__ = ("_tracer", "_previous_local", "_previous_global")

    def __init__(self, tracer: "Tracer | NullTracer") -> None:
        self._tracer = tracer
        self._previous_local: "Tracer | NullTracer | None" = None
        self._previous_global: "Tracer | NullTracer | None" = None

    def __enter__(self):
        global _ACTIVE
        self._previous_local = getattr(_ACTIVE_LOCAL, "tracer", None)
        _ACTIVE_LOCAL.tracer = self._tracer
        with _ACTIVE_LOCK:
            self._previous_global = _ACTIVE
            _ACTIVE = self._tracer
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        if self._previous_local is None:
            try:
                del _ACTIVE_LOCAL.tracer
            except AttributeError:  # pragma: no cover - defensive
                pass
        else:
            _ACTIVE_LOCAL.tracer = self._previous_local
        with _ACTIVE_LOCK:
            # Only restore the fallback if no other thread activated in
            # the meantime - last activation wins for anonymous threads.
            if _ACTIVE is self._tracer:
                _ACTIVE = self._previous_global
        return False


class Tracer:
    """Collects spans and metrics for one traced run (thread-safe)."""

    enabled = True

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self.metrics = MetricsRegistry()
        self._roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, category: str = "", **tags: Any) -> _OpenSpan:
        """Open a span; use as ``with tracer.span(...) as span:``."""
        return _OpenSpan(self, Span(name, category, tags))

    def current(self) -> Span | None:
        """The innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- activation ---------------------------------------------------------

    def activate(self) -> _Activation:
        """Install as the process-global tracer for the ``with`` body."""
        return _Activation(self)

    # -- finishing ----------------------------------------------------------

    def finish(self) -> Trace:
        """Snapshot everything recorded so far as an immutable Trace.

        Roots are ordered by start time (threads may have appended out of
        order); open spans are left out - finish after the run.
        """
        with self._lock:
            roots = [root for root in self._roots if root.closed]
        roots.sort(key=lambda span: span.start)
        return Trace(
            roots=roots,
            metrics=self.metrics.snapshot(),
            meta={"tracer": self.name, "pid": os.getpid()},
        )

    def __repr__(self) -> str:
        return f"Tracer({self.name!r}, roots={len(self._roots)})"


# ---------------------------------------------------------------------------
# disabled path


class _NullSpanContext:
    """Shared do-nothing span context: the entire disabled-tracing cost."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def tag(self, **tags: Any) -> "_NullSpanContext":
        return self

    # Mirror the read surface of Span so instrumentation never branches.
    name = ""
    category = ""
    tags: Mapping[str, Any] = {}
    children: tuple = ()
    duration = 0.0
    cpu = 0.0


class NullTracer:
    """The inactive tracer: records nothing, allocates nothing per span."""

    enabled = False
    metrics = NULL_METRICS
    name = "null"

    __slots__ = ()

    def span(self, name: str, category: str = "", **tags: Any) -> _NullSpanContext:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def activate(self) -> _Activation:
        return _Activation(self)

    def finish(self) -> Trace:
        return Trace(roots=(), metrics=NULL_METRICS.snapshot())

    def __repr__(self) -> str:
        return "NullTracer()"


_NULL_SPAN = _NullSpanContext()
NULL_TRACER = NullTracer()

_ACTIVE: "Tracer | NullTracer" = NULL_TRACER
_ACTIVE_LOCK = threading.Lock()
_ACTIVE_LOCAL = threading.local()


def current_tracer() -> "Tracer | NullTracer":
    """The calling thread's active tracer (:data:`NULL_TRACER` by default).

    A thread that activated a tracer sees exactly that tracer; a thread
    with no activation of its own sees the most recent activation
    process-wide, or the null tracer when nothing is active.
    """
    local = getattr(_ACTIVE_LOCAL, "tracer", None)
    if local is not None:
        return local
    return _ACTIVE


def as_tracer(trace: "bool | Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Normalize the user-facing ``trace=`` option.

    ``None``/``False`` → the null tracer; ``True`` → a fresh
    :class:`Tracer`; an existing tracer passes through (so callers can
    nest several pipeline calls into one trace).
    """
    if trace is None or trace is False:
        return NULL_TRACER
    if trace is True:
        return Tracer()
    if isinstance(trace, (Tracer, NullTracer)):
        return trace
    raise TypeError(
        f"trace must be a bool or a Tracer, got {type(trace).__name__}"
    )


def iter_spans(roots: "tuple[Span, ...] | list[Span]") -> Iterator[Span]:
    """Depth-first walk over a list of root spans (exporter helper)."""
    for root in roots:
        yield from root.walk()
