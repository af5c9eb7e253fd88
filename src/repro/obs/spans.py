"""Span and Trace: the data model of the observability layer.

A :class:`Span` is one timed region of the repair pipeline - a Figure-1
stage, one constraint's detection, one solver invocation.  Spans nest
(``children``), carry free-form ``tags``, and record three clocks:

* ``start`` - wall-clock epoch seconds (``time.time()``), comparable
  across processes, so saved traces line up on one timeline;
* ``duration`` - wall seconds measured with ``time.perf_counter()`` (the
  epoch clock is only used for placement, never for durations);
* ``cpu`` - CPU seconds consumed on the recording thread
  (``time.thread_time()``), which makes "waited" vs "computed"
  visible per span.

Spans are plain data: picklable, and round-trippable through
:meth:`Span.to_dict` / :meth:`Span.from_dict` - the wire format of the
JSON exporter.

Closing a span clamps every child into the parent's ``[start, end]``
window (:meth:`Span.close`): a span is placed on the epoch clock but
timed with ``perf_counter``, so a child can land a hair outside its
parent, and the clamp guarantees the exporter invariants - no negative
durations, no child extending past its parent - that the Chrome
trace-event viewer and the tree report rely on.

A :class:`Trace` is the finished, immutable result of a traced run: the
root spans plus a snapshot of the metric registry.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Iterator, Mapping

#: Tag values are JSON scalars; anything else is stringified on export.
TagValue = "str | int | float | bool"


def _thread_cpu() -> float:
    """Per-thread CPU seconds (falls back to process CPU where missing)."""
    try:
        return time.thread_time()
    except (AttributeError, OSError):  # pragma: no cover - exotic platforms
        return time.process_time()


class Span:
    """One timed, tagged, nestable region of work.

    Spans are created open (``duration is None``) and finalized by
    :meth:`close`; the :class:`~repro.obs.trace.Tracer` drives that
    lifecycle through its context manager, so user code only ever sees
    open spans inside ``with tracer.span(...)`` blocks and closed spans
    afterwards.
    """

    __slots__ = (
        "name",
        "category",
        "tags",
        "start",
        "duration",
        "cpu",
        "pid",
        "tid",
        "children",
        "_perf0",
        "_cpu0",
    )

    def __init__(
        self,
        name: str,
        category: str = "",
        tags: "Mapping[str, Any] | None" = None,
    ) -> None:
        self.name = name
        self.category = category
        self.tags: dict[str, Any] = dict(tags) if tags else {}
        self.start = time.time()
        self.duration: float | None = None
        self.cpu: float | None = None
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.children: list[Span] = []
        self._perf0 = time.perf_counter()
        self._cpu0 = _thread_cpu()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Finalize the span: fix duration/cpu, clamp children into it."""
        if self.duration is None:
            self.duration = time.perf_counter() - self._perf0
            self.cpu = _thread_cpu() - self._cpu0
        self.clamp_children()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` fixed the duration."""
        return self.duration is not None

    @property
    def end(self) -> float:
        """Wall-clock end (epoch seconds); the current time while open."""
        if self.duration is None:
            return time.time()
        return self.start + self.duration

    def tag(self, **tags: Any) -> "Span":
        """Attach (or overwrite) tags; returns self for chaining."""
        self.tags.update(tags)
        return self

    def clamp_children(self) -> None:
        """Force every (transitive) child inside this span's wall window.

        Spans are placed on the epoch clock but timed with
        ``perf_counter``; the two clocks can put a child a hair outside
        its parent.  Clamping keeps the invariants exporters and
        the property tests rely on: ``child.start >= parent.start``,
        ``child.end <= parent.end``, ``duration >= 0``.
        """
        if self.duration is None:
            return
        for child in self.children:
            _clamp_into(child, self.start, self.end)

    # -- traversal ----------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name, depth first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (the JSON wire format; loses open-span state)."""
        return {
            "name": self.name,
            "category": self.category,
            "tags": dict(self.tags),
            "start": self.start,
            "duration": self.duration if self.duration is not None else 0.0,
            "cpu": self.cpu if self.cpu is not None else 0.0,
            "pid": self.pid,
            "tid": self.tid,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        """Rebuild a closed span (tree) from :meth:`to_dict` output."""
        span = cls.__new__(cls)
        span.name = str(data["name"])
        span.category = str(data.get("category", ""))
        span.tags = dict(data.get("tags", {}))
        span.start = float(data["start"])
        span.duration = float(data.get("duration", 0.0))
        span.cpu = float(data.get("cpu", 0.0))
        span.pid = int(data.get("pid", 0))
        span.tid = int(data.get("tid", 0))
        span.children = [cls.from_dict(child) for child in data.get("children", [])]
        span._perf0 = 0.0
        span._cpu0 = 0.0
        return span

    def __reduce__(self):
        # Pickle through the dict form, without the private clock anchors.
        return (Span.from_dict, (self.to_dict(),))

    def __repr__(self) -> str:
        timing = f"{self.duration * 1000:.2f}ms" if self.duration is not None else "open"
        return f"Span({self.name!r}, {timing}, children={len(self.children)})"


def _clamp_into(span: Span, window_start: float, window_end: float) -> None:
    """Clamp one span (recursively) into ``[window_start, window_end]``."""
    if span.duration is None:
        span.duration = 0.0
        span.cpu = span.cpu or 0.0
    start = min(max(span.start, window_start), window_end)
    end = min(max(span.start + span.duration, start), window_end)
    span.start = start
    span.duration = end - start
    for child in span.children:
        _clamp_into(child, start, end)


class Trace:
    """The finished output of a traced run: root spans + metric snapshot.

    ``metrics`` is the plain-data snapshot produced by
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot`.  Exporters live in
    :mod:`repro.obs.export`; convenience accessors here are what the
    repair engine uses to present ``elapsed_seconds`` as a thin view over
    the trace.
    """

    __slots__ = ("roots", "metrics", "meta")

    def __init__(
        self,
        roots: "tuple[Span, ...] | list[Span]",
        metrics: "Mapping[str, Any] | None" = None,
        meta: "Mapping[str, Any] | None" = None,
    ) -> None:
        self.roots = tuple(roots)
        self.metrics: dict[str, Any] = dict(metrics) if metrics else {}
        self.meta: dict[str, Any] = dict(meta) if meta else {}

    def spans(self) -> Iterator[Span]:
        """Every span of the trace, depth first, root order."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> "Span | None":
        """First span with the given name, depth first."""
        for span in self.spans():
            if span.name == name:
                return span
        return None

    def __len__(self) -> int:
        return sum(1 for _ in self.spans())

    def stage_seconds(self, root_name: str = "repair") -> dict[str, float]:
        """Wall seconds of each direct stage child of the named root span.

        This is the "thin view" the engine exposes as
        ``RepairResult.elapsed_seconds``: one entry per Figure-1 stage
        span (``detect``, ``reduce``, ``solve``, ``apply``, ``verify``),
        keyed by span name.
        """
        root = self.find(root_name)
        if root is None:
            return {}
        return {
            child.name: child.duration or 0.0
            for child in root.children
            if child.category == "stage"
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form; round-trips through :meth:`from_dict`."""
        return {
            "format": "repro-trace",
            "version": 1,
            "meta": dict(self.meta),
            "metrics": dict(self.metrics),
            "spans": [root.to_dict() for root in self.roots],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Trace":
        """Rebuild a trace from :meth:`to_dict` output."""
        return cls(
            roots=[Span.from_dict(root) for root in data.get("spans", [])],
            metrics=data.get("metrics", {}),
            meta=data.get("meta", {}),
        )

    def __repr__(self) -> str:
        return f"Trace(spans={len(self)}, roots={len(self.roots)})"
