"""Static per-constraint cost estimate, reported by ``repro explain-plan``.

Estimates the detection work for one constraint **before any data is
loaded**, from three statically knowable signals:

* **atom count** - each database atom joins a whole relation, so the
  enumeration work grows with the join width;
* **join arity** - the number of join variables; every join variable
  adds an index probe per candidate row;
* **selectivity class** - from the declared comparator kinds: equality
  built-ins prune hardest, order comparisons (``<``, ``>``, ``<=``,
  ``>=``) prune less, disequalities (``!=``) barely prune, and a
  constraint with no built-ins at all is a raw scan/cross product.

The per-engine ``scores`` scale that work by the relative per-row cost
measured by the committed benchmark snapshots
(``benchmarks/results/BENCH_*.json``): SQL pushdown ≥3x faster than the
columnar kernel at TPC-H scale (``BENCH_pushdown.json``), the kernel
3.6-4.3x faster than the interpreted enumeration (``BENCH_detect.json``).
The work is always positive, so the scores always order the engines as
the detector's fixed ladder does
(:func:`repro.violations.detector.engine_chain`); they explain the
ladder, they do not choose it.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.constraints.atoms import Comparator
from repro.constraints.denial import DenialConstraint

#: Selectivity classes, most selective first.
EQUALITY = "equality"
ORDER = "order"
INEQUALITY = "inequality"
SCAN = "scan"

_CLASS_FACTOR: Mapping[str, float] = {
    EQUALITY: 1.0,
    ORDER: 2.0,
    INEQUALITY: 4.0,
    SCAN: 8.0,
}

_ORDER_COMPARATORS = (
    Comparator.LT,
    Comparator.GT,
    Comparator.LE,
    Comparator.GE,
)


def selectivity_class(constraint: DenialConstraint) -> str:
    """The most selective predicate class the constraint declares."""
    comparators = [b.comparator for b in constraint.builtins]
    comparators.extend(c.comparator for c in constraint.variable_comparisons)
    if constraint.join_variables or Comparator.EQ in comparators:
        return EQUALITY
    if any(c in _ORDER_COMPARATORS for c in comparators):
        return ORDER
    if Comparator.NE in comparators:
        return INEQUALITY
    return SCAN


def estimate_cost(constraint: DenialConstraint) -> dict[str, Any]:
    """The static cost signals and per-engine scores of one constraint.

    The JSON-ready form stored as a plan entry's ``cost``: ``atoms``,
    ``join_arity``, ``selectivity_class``, ``work`` and ``scores``
    (engine name to weighted work).
    """
    atoms = len(constraint.relation_atoms)
    join_arity = len(constraint.join_variables)
    cls = selectivity_class(constraint)
    work = float(atoms) * float(1 + join_arity) * _CLASS_FACTOR[cls]
    return {
        "atoms": atoms,
        "join_arity": join_arity,
        "selectivity_class": cls,
        "work": work,
        # Relative per-row cost of each engine (see the module docstring).
        "scores": {
            "pushdown": work * 1.0,
            "kernel": work * 3.0,
            "interpreted": work * 12.0,
        },
    }
