"""Static per-constraint cost model for engine ranking.

Ranks the detection engines for one constraint **before any data is
loaded**, from three statically knowable signals:

* **atom count** - each database atom joins a whole relation, so the
  enumeration work grows with the join width;
* **join arity** - the number of join variables; every join variable
  adds an index probe per candidate row;
* **selectivity class** - from the declared comparator kinds: equality
  built-ins prune hardest, order comparisons (``<``, ``>``, ``<=``,
  ``>=``) prune less, disequalities (``!=``) barely prune, and a
  constraint with no built-ins at all is a raw scan/cross product.

The per-engine weights encode the relative per-row cost measured by the
committed benchmark snapshots (``benchmarks/results/BENCH_*.json``):
SQL pushdown ≥3x faster than the columnar kernel at TPC-H scale
(``BENCH_pushdown.json``), the kernel 3.6-4.3x faster than the
interpreted enumeration (``BENCH_detect.json``).  The model only has to
*order* engines per constraint - absolute cost is data-dependent and
deliberately out of scope - so coarse, stable weights are the right
tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.constraints.atoms import Comparator
from repro.constraints.denial import DenialConstraint

#: Relative per-row work of each engine (lower = faster), justified by
#: the committed BENCH snapshots (see module docstring).
ENGINE_WEIGHTS: Mapping[str, float] = {
    "pushdown": 1.0,
    "kernel": 3.0,
    "interpreted": 12.0,
}

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


@dataclass(frozen=True)
class CostEstimate:
    """The static cost signals and per-engine scores for one constraint."""

    atoms: int
    join_arity: int
    selectivity_class: str
    work: float
    scores: Mapping[str, float]

    def to_dict(self) -> dict[str, object]:
        return {
            "atoms": self.atoms,
            "join_arity": self.join_arity,
            "selectivity_class": self.selectivity_class,
            "work": self.work,
            "scores": dict(self.scores),
        }


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


def estimate_cost(constraint: DenialConstraint) -> CostEstimate:
    """Static cost estimate; ``scores`` maps engine name to ranked cost."""
    atoms = len(constraint.relation_atoms)
    join_arity = len(constraint.join_variables)
    cls = selectivity_class(constraint)
    work = float(atoms) * float(1 + join_arity) * _CLASS_FACTOR[cls]
    scores = {
        engine: work * weight for engine, weight in ENGINE_WEIGHTS.items()
    }
    return CostEstimate(
        atoms=atoms,
        join_arity=join_arity,
        selectivity_class=cls,
        work=work,
        scores=scores,
    )


def rank_engines(
    estimate: CostEstimate,
    *,
    kernel_available: bool,
    pushdown_available: bool,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(chain, dropped)``: the ranked execution chain for one constraint.

    ``chain`` lists the statically admissible engines in ascending
    score order and always ends with ``"interpreted"`` (the engine that
    can never refuse).  ``dropped`` lists engines removed because the
    compile-time environment lacks them (``LINT061`` downgrades) -
    *not* engines the runtime may refuse for data reasons; those stay
    in the chain with the runtime-refusal fallback preserved.
    """
    ranked = sorted(estimate.scores, key=lambda e: (estimate.scores[e], e))
    chain: list[str] = []
    dropped: list[str] = []
    for engine in ranked:
        if engine == "kernel" and not kernel_available:
            dropped.append(engine)
            continue
        if engine == "pushdown" and not pushdown_available:
            dropped.append(engine)
            continue
        chain.append(engine)
    if "interpreted" not in chain:
        chain.append("interpreted")
    return tuple(chain), tuple(dropped)
