"""Result types for attribute-update repairs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.model.instance import DatabaseInstance
from repro.model.tuples import TupleRef


@dataclass(frozen=True)
class CellChange:
    """One attribute update applied by a repair."""

    ref: TupleRef
    attribute: str
    old_value: int
    new_value: int
    weight: float

    def __str__(self) -> str:
        keys = ", ".join(str(v) for v in self.ref.key_values)
        return (
            f"{self.ref.relation_name}[{keys}].{self.attribute}: "
            f"{self.old_value} -> {self.new_value}"
        )


@dataclass(frozen=True)
class RepairResult:
    """Outcome of a repair computation.

    Attributes
    ----------
    repaired:
        The repaired database instance ``D(C)`` (Definition 3.2).
        ``None`` for snapshot-free streaming commits
        (``IncrementalRepairer.commit(snapshot=False)``), where the
        caller reads the live working instance instead of paying an
        O(|D|) copy per round.
    algorithm:
        Name of the set-cover solver used.
    cover_weight:
        Weight of the approximate cover - the solver's objective value.
    distance:
        The actual ``Δ(D, D(C))``; at most ``cover_weight`` (merging fixes
        of one tuple/attribute via subsumption can only lose weight).
    changes:
        Cell-level updates, deterministic order.
    violations_before:
        ``|I(D, IC)|`` of the input.
    verified:
        True when the engine re-checked ``D(C) |= IC``.
    metric:
        Name of the distance metric used.
    solver_iterations / solver_stats:
        Bookkeeping from the set-cover solver.
    elapsed_seconds:
        Wall-clock split per stage: ``detect``, ``reduce``, ``solve``,
        ``apply``, ``verify`` (the paper's Figure 3 reports the ``solve``
        component; ``verify`` is 0.0 when the run did not verify).
        On a traced run these values are read off the stage spans, so
        the dict and the trace always agree.
    trace:
        The :class:`~repro.obs.spans.Trace` of a ``trace=True`` run
        (``None`` otherwise, and ``None`` when the caller supplied its
        own :class:`~repro.obs.Tracer` - the caller finishes that one).
    """

    repaired: DatabaseInstance | None
    algorithm: str
    cover_weight: float
    distance: float
    changes: tuple[CellChange, ...]
    violations_before: int
    verified: bool
    metric: str
    solver_iterations: int = 0
    solver_stats: Mapping[str, Any] = field(default_factory=dict)
    elapsed_seconds: Mapping[str, float] = field(default_factory=dict)
    trace: Any = None

    @property
    def tuples_changed(self) -> int:
        """Number of distinct tuples the repair updated."""
        return len({change.ref for change in self.changes})

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"algorithm        : {self.algorithm}",
            f"metric           : {self.metric}",
            f"violations before: {self.violations_before}",
            f"cover weight     : {self.cover_weight:g}",
            f"distance Δ(D,D') : {self.distance:g}",
            f"cells changed    : {len(self.changes)}",
            f"tuples changed   : {self.tuples_changed}",
            f"verified D'|=IC  : {self.verified}",
        ]
        if self.elapsed_seconds:
            timing = ", ".join(
                f"{phase}={seconds * 1000:.1f}ms"
                for phase, seconds in self.elapsed_seconds.items()
            )
            lines.append(f"timing           : {timing}")
        return "\n".join(lines)
