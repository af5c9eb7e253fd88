"""Degree of inconsistency (Definition 2.4) and inconsistency profiling.

``Deg(t, IC)`` counts the violation sets containing a tuple; ``Deg(D, IC)``
is the maximum over all tuples.  The paper's complexity results hinge on
this quantity: with ``Deg(D, IC)`` bounded by a constant the greedy
algorithm runs in O(n²) and the modified greedy in O(n log n)
(Propositions 3.5 and 3.7), which the census-style workloads exhibit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.constraints.denial import DenialConstraint
from repro.model.columnar import require_numpy
from repro.model.instance import DatabaseInstance
from repro.model.tuples import Tuple, TupleRef
from repro.violations.columns import ViolationColumns
from repro.violations.detector import ViolationSet, find_all_violations


def degree_of_tuple(violations: Iterable[ViolationSet], tup: Tuple) -> int:
    """``Deg(t, IC)``: number of violation sets containing ``t``."""
    return sum(1 for v in violations if tup in v)


def degree_of_database(violations: Iterable[ViolationSet]) -> int:
    """``Deg(D, IC)``: the maximum tuple degree (0 for a consistent D).

    A :class:`~repro.violations.columns.ViolationColumns` answers from its
    slot matrix, building no violation set.
    """
    if isinstance(violations, ViolationColumns):
        slots = violations.slots
        members = slots[slots >= 0]
        return int(require_numpy().bincount(members).max()) if len(members) else 0
    counts: Counter[Tuple] = Counter()
    for violation in violations:
        counts.update(violation.tuples)
    if not counts:
        return 0
    return max(counts.values())


@dataclass(frozen=True)
class InconsistencyProfile:
    """Summary statistics of how inconsistent an instance is.

    ``inconsistent_ratio`` is the paper's "percentage of tuples involved in
    inconsistencies" knob (the experiments use ~30%).
    """

    total_tuples: int
    violation_count: int
    per_constraint: Mapping[str, int]
    inconsistent_tuples: int
    max_degree: int
    degree_histogram: Mapping[int, int] = field(default_factory=dict)

    @property
    def inconsistent_ratio(self) -> float:
        """Fraction of tuples participating in at least one violation."""
        if self.total_tuples == 0:
            return 0.0
        return self.inconsistent_tuples / self.total_tuples

    @property
    def is_consistent(self) -> bool:
        """True when no violation set exists."""
        return self.violation_count == 0

    def __str__(self) -> str:
        per_ic = ", ".join(f"{k}:{v}" for k, v in self.per_constraint.items())
        return (
            f"InconsistencyProfile(tuples={self.total_tuples}, "
            f"violations={self.violation_count} [{per_ic}], "
            f"inconsistent={self.inconsistent_tuples} "
            f"({self.inconsistent_ratio:.1%}), max_degree={self.max_degree})"
        )


def inconsistency_profile(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    violations: Iterable[ViolationSet] | None = None,
) -> InconsistencyProfile:
    """Profile the inconsistency of ``instance`` wrt ``constraints``.

    Pass precomputed ``violations`` to avoid re-running detection.
    """
    constraints = list(constraints)
    if violations is None:
        violations = find_all_violations(instance, constraints)
    violations = list(violations)

    per_constraint: Counter[str] = Counter()
    tuple_degree: Counter[TupleRef] = Counter()
    for violation in violations:
        per_constraint[violation.constraint.label] += 1
        for tup in violation.tuples:
            tuple_degree[tup.ref] += 1

    histogram: Counter[int] = Counter(tuple_degree.values())
    return InconsistencyProfile(
        total_tuples=len(instance),
        violation_count=len(violations),
        per_constraint=dict(per_constraint),
        inconsistent_tuples=len(tuple_degree),
        max_degree=max(tuple_degree.values(), default=0),
        degree_histogram=dict(sorted(histogram.items())),
    )
