"""Enumerate all optimal attribute-update repairs (``Rep^At(D, IC)``).

Definition 2.2 defines *the set* of repairs - every consistency-restoring
instance at minimum Δ-distance.  The approximation engine returns one; for
small databases this module returns them all, by enumerating the optimal
covers of the MWSCP reduction and materializing each as a repaired
instance (distinct covers can coincide after the ``C*`` merge, so results
are deduplicated by instance).

A subtlety inherited from the reduction: the MWSCP optimum is over
*cover weights*; after merging same-tuple fixes the realized Δ-distance
can drop below the cover weight, so the distances of the materialized
instances are re-checked and only the true minimum-distance ones are kept.
"""

from __future__ import annotations

from typing import Iterable

from repro.constraints.denial import DenialConstraint
from repro.fixes.distance import CITY_DISTANCE, DistanceMetric, database_delta, get_metric
from repro.model.instance import DatabaseInstance
from repro.repair.apply import apply_cover
from repro.repair.builder import build_repair_problem
from repro.setcover.enumerate import enumerate_optimal_covers
from repro.setcover.result import Cover


def all_optimal_repairs(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    metric: str | DistanceMetric = CITY_DISTANCE,
    max_elements: int = 64,
) -> tuple[DatabaseInstance, ...]:
    """Every minimum-distance attribute-update repair of a small database.

    Raises :class:`~repro.exceptions.SetCoverError` when the violation
    universe exceeds ``max_elements`` (use the approximation engine then).
    """
    metric = get_metric(metric)
    constraints = tuple(constraints)
    problem = build_repair_problem(instance, constraints, metric=metric)
    if problem.is_consistent:
        return (instance.copy(),)

    covers = enumerate_optimal_covers(problem.setcover, max_elements=max_elements)
    candidates: dict[int, DatabaseInstance] = {}
    distances: dict[int, float] = {}
    for cover_sets in covers:
        cover = Cover(tuple(sorted(cover_sets)), 0.0, "enumerated")
        repaired = apply_cover(problem, cover).repaired
        key = _instance_key(repaired)
        if key not in candidates:
            candidates[key] = repaired
            distances[key] = database_delta(instance, repaired, metric)

    minimum = min(distances.values())
    epsilon = 1e-9 * (1.0 + abs(minimum))
    return tuple(
        candidates[key]
        for key in sorted(candidates, key=lambda k: _sort_key(candidates[k]))
        if distances[key] <= minimum + epsilon
    )


def _instance_key(instance: DatabaseInstance) -> int:
    return hash(
        tuple(
            (relation.name, tuple(sorted(t.values for t in instance.tuples(relation.name))))
            for relation in instance.schema
        )
    )


def _sort_key(instance: DatabaseInstance):
    return tuple(
        (relation.name, tuple(sorted(str(t.values) for t in instance.tuples(relation.name))))
        for relation in instance.schema
    )
