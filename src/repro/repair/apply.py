"""Turn a set cover into a repaired database (Definition 3.2).

Given a cover ``C`` of ``(U, S, w)^{(D,IC)}``:

* ``C*`` merges the fixes per tuple: when a tuple has several selected
  mono-local fixes on *different* attributes they combine into a single
  local fix ``t*`` applying all the updates (Definition 3.2(a));
* when a non-optimal cover holds two fixes for the same tuple *and* the
  same attribute (possible for fixes induced by different constraints),
  the higher-weight fix subsumes the other - locality gives every flexible
  attribute one fix direction, so the farther value satisfies everything
  the nearer one did (Section 3, remark after Algorithm 1);
* ``D(C)`` replaces each affected tuple by its combined fix
  (Definition 3.2(b)).

The walk reads the reduction's set columns (see
:class:`~repro.repair.builder.RepairProblem`).  Sets are numbered in
(tuple ref, attribute, new value) order, so the sorted set ids of a cover
visit tuples in ref order and each tuple's attributes in name order, and
the fixes of one (tuple, attribute) are adjacent.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.exceptions import InstanceError
from repro.model.instance import DatabaseInstance
from repro.model.tuples import Tuple, _trusted_tuple
from repro.repair.builder import RepairProblem
from repro.repair.result import CellChange
from repro.setcover.result import Cover


class AppliedCover(NamedTuple):
    """What :func:`apply_cover` did.

    ``repaired`` is ``D(C)``, ``changes`` the applied cell updates in
    (tuple ref, attribute) order and ``distance`` is ``Δ(D, D(C))``.
    ``replaced`` pairs every replaced tuple with its replacement, as
    ``(old, new)`` grouped by relation and in ref order within one; the
    streaming commit maintains its join indexes from them.
    """

    repaired: DatabaseInstance
    changes: tuple[CellChange, ...]
    distance: float
    replaced: tuple[tuple[Tuple, Tuple], ...]


def apply_cover(
    problem: RepairProblem, cover: Cover, in_place: bool = False
) -> AppliedCover:
    """Build ``D(C)`` from a cover.

    The distance ``Δ(D, D(C))`` is the sum of the applied fixes' weights,
    so it accounts for subsumption (it can be below the cover weight).
    Per tuple the weights are added in attribute-position order, and the
    tuple sums in ref order: the same float the Definition 2.1 sum over
    every flexible cell gives, since an unchanged cell adds exactly 0.0
    and a changed cell adds the weight the reduction computed for it.

    ``in_place=True`` mutates ``problem.instance`` directly instead of
    copying it first - the streaming commit path owns a private instance
    and pays O(|D|) per round for the copy otherwise.  The applied
    replacements are identical either way, so the resulting content is
    byte-equal to the copying path.
    """
    tuples = problem.tuples
    slots = problem.set_slots
    descriptors = problem.set_descriptors
    values = problem.set_values
    weights = problem.setcover.weights

    # C*: the selected fixes of each tuple, one per attribute in name
    # order.  Of several fixes of one (tuple, attribute) the subsuming one
    # stays - the highest (weight, new value), a strict total order, so
    # the winner does not depend on the order of the cover's sets.  Plain
    # int lists only: nothing here feeds the garbage collector.
    winners: list[int] = []
    last_slot = -1
    last_attribute = None
    for set_id in sorted(cover.selected):
        slot = slots[set_id]
        attribute = descriptors[set_id].attribute
        if slot != last_slot or attribute != last_attribute:
            winners.append(set_id)
            last_slot, last_attribute = slot, attribute
        elif (weights[set_id], values[set_id]) > (
            weights[winners[-1]],
            values[winners[-1]],
        ):
            winners[-1] = set_id

    repaired = problem.instance if in_place else problem.instance.copy()
    relations = {relation.name: relation for relation in repaired.schema}
    checked: set[int] = set()
    changes: list[CellChange] = []
    written: dict[str, list[Tuple]] = {}
    distance = 0.0
    end = len(winners)
    start = 0
    while start < end:
        slot = slots[winners[start]]
        stop = start + 1
        while stop < end and slots[winners[stop]] == slot:
            stop += 1
        run = winners[start:stop]             # one tuple's fixes
        start = stop
        old = tuples[slot]
        relation = relations[old.relation.name]
        ref = old.ref
        old_values = old.values
        new_values = list(old_values)
        for set_id in run:
            descriptor = descriptors[set_id]
            attribute = descriptor.attribute
            value = values[set_id]
            if id(descriptor) not in checked:
                if relation.is_key_attribute(attribute):
                    raise InstanceError(
                        f"cannot update key attribute {relation.name}.{attribute}"
                    )
                checked.add(id(descriptor))
            if not isinstance(value, int):
                raise InstanceError(
                    f"{relation.name}.{attribute} is flexible and must be "
                    f"an integer, got {value!r} ({type(value).__name__})"
                )
            position = descriptor.position
            new_values[position] = value
            changes.append(
                CellChange(ref, attribute, old_values[position], value, weights[set_id])
            )
        # Δ({t}, {t*}) in attribute-position order, as Definition 2.1 sums.
        if len(run) > 1:
            run.sort(key=lambda set_id: descriptors[set_id].position)
        delta = 0.0
        for set_id in run:
            delta += weights[set_id]
        distance += delta
        written.setdefault(relation.name, []).append(
            _trusted_tuple(relation, tuple(new_values), ref)
        )

    replaced: list[tuple[Tuple, Tuple]] = []
    for relation_name, new_tuples in written.items():
        old_tuples = repaired.replace_tuples(relation_name, new_tuples)
        replaced.extend(zip(old_tuples, new_tuples))
    return AppliedCover(repaired, tuple(changes), distance, tuple(replaced))
