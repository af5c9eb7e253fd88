"""Counter/Gauge metric registry of the observability layer.

The registry gives the pipeline named, tag-labelled instruments:

* :class:`Counter` - monotonically increasing totals (violations found
  per constraint, MLF evaluations, columnar-snapshot cache hits/misses,
  sets selected into covers);
* :class:`Gauge` - last-written point-in-time values (the inconsistency
  degree ``Deg(D, IC)`` of the instance being repaired, component
  counts).

Each :class:`~repro.obs.trace.Tracer` owns a private
:class:`MetricsRegistry`, so concurrent or consecutive traced runs never
share state (registry isolation is part of the test contract).

The disabled path uses the null instruments at the bottom of the module:
:data:`NULL_METRICS` hands out a single shared no-op instrument, so
instrumented hot loops cost one method call when tracing is off.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, Mapping

#: A label set, normalized to a hashable, deterministic form.
LabelKey = "tuple[tuple[str, str], ...]"


def _label_key(tags: Mapping[str, Any]) -> "tuple[tuple[str, str], ...]":
    return tuple(sorted((str(k), str(v)) for k, v in tags.items()))


class Counter:
    """A monotonically increasing total (per name + label set)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: "tuple[tuple[str, str], ...]") -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {dict(self.labels)}, {self.value})"


class Gauge:
    """A point-in-time value (per name + label set)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: "tuple[tuple[str, str], ...]") -> None:
        self.name = name
        self.labels = labels
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def set_max(self, value: float) -> None:
        """Record ``value`` only if it exceeds the current one."""
        if self.value is None or value > self.value:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {dict(self.labels)}, {self.value})"


class MetricsRegistry:
    """Thread-safe get-or-create store of counters and gauges."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}

    def counter(self, name: str, **tags: Any) -> Counter:
        """The counter registered under ``name`` + ``tags`` (created once)."""
        key = (name, _label_key(tags))
        counter = self._counters.get(key)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(key, Counter(name, key[1]))
        return counter

    def gauge(self, name: str, **tags: Any) -> Gauge:
        """The gauge registered under ``name`` + ``tags`` (created once)."""
        key = (name, _label_key(tags))
        gauge = self._gauges.get(key)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(key, Gauge(name, key[1]))
        return gauge

    def counters(self) -> Iterator[Counter]:
        """Every registered counter (registration order)."""
        return iter(list(self._counters.values()))

    def gauges(self) -> Iterator[Gauge]:
        """Every registered gauge (registration order)."""
        return iter(list(self._gauges.values()))

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-data form: ``{"counters": [...], "gauges": [...]}``.

        Deterministically ordered by (name, labels) so snapshots diff
        cleanly and the JSON exporter is stable.
        """
        counters = sorted(self._counters.values(), key=lambda c: (c.name, c.labels))
        gauges = sorted(self._gauges.values(), key=lambda g: (g.name, g.labels))
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in counters
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in gauges
                if g.value is not None
            ],
        }


# ---------------------------------------------------------------------------
# disabled path


class _NullInstrument:
    """Shared no-op counter/gauge handed out when tracing is disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass


class NullMetrics:
    """Registry stand-in whose instruments record nothing."""

    __slots__ = ()

    def counter(self, name: str, **tags: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **tags: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def counters(self) -> Iterator[Counter]:
        return iter(())

    def gauges(self) -> Iterator[Gauge]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> dict[str, Any]:
        return {"counters": [], "gauges": []}


_NULL_INSTRUMENT = _NullInstrument()
NULL_METRICS = NullMetrics()
