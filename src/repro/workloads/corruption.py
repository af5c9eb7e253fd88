"""Ground-truth corruption: clean database → injected errors → repair.

The paper's evaluation measures *cover weight*; a data-cleaning user also
wants to know how close a repair lands to the values that were true before
the errors crept in.  This module supports that evaluation protocol:

1. generate (or take) a **consistent** database - the ground truth;
2. :func:`corrupt` a random subset of flexible cells so that constraints
   break, remembering every injected error;
3. repair the dirty instance and score it against the truth with
   :func:`repro.analysis.quality.score_repair`.

Corruption moves a cell *against* its fix direction (e.g. an attribute
constrained by ``A < c`` is corrupted downward past the bound), mimicking
out-of-range entry errors - the census-form errors of the introduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.constraints.denial import DenialConstraint
from repro.constraints.locality import FixDirection, comparison_directions
from repro.exceptions import ReproError
from repro.model.instance import DatabaseInstance
from repro.model.tuples import TupleRef


@dataclass(frozen=True)
class InjectedError:
    """One corrupted cell: where, what it was, what it became."""

    ref: TupleRef
    attribute: str
    clean_value: int
    dirty_value: int


@dataclass(frozen=True)
class CorruptionResult:
    """A dirty instance plus the ground truth needed to score repairs."""

    clean: DatabaseInstance
    dirty: DatabaseInstance
    errors: tuple[InjectedError, ...]

    @property
    def error_index(self) -> Mapping[tuple[TupleRef, str], InjectedError]:
        """Lookup by (tuple ref, attribute)."""
        return {(e.ref, e.attribute): e for e in self.errors}


def corrupt(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    cell_rate: float = 0.05,
    max_offset: int = 20,
    seed: int = 0,
) -> CorruptionResult:
    """Inject out-of-range errors into a copy of ``instance``.

    Each corruptible cell (a flexible attribute with a unique comparison
    direction in the constraints) is corrupted with probability
    ``cell_rate``: its value moves *against* the fix direction by 1 to
    ``max_offset`` past the constraint's bound region - i.e. into, or
    further into, violating territory.  Not every corruption necessarily
    yields a violation (the denial may need join partners), which mirrors
    real error injection.

    Cells are visited in (relation, attribute, tuple) order with one
    ``rng.random()`` draw each, so equal seeds give equal corruptions; a
    :class:`TupleRef` and a replacement tuple are built only for the
    cells that draw an error.

    The input is expected to be the clean truth; it is never mutated.
    """
    if not 0.0 <= cell_rate <= 1.0:
        raise ReproError("cell_rate must be in [0, 1]")
    if max_offset < 1:
        raise ReproError("max_offset must be >= 1")

    constraints = list(constraints)
    rng = random.Random(seed)
    directions = comparison_directions(constraints, instance.schema)
    dirty = instance.copy()
    errors: list[InjectedError] = []
    draw = rng.random
    for relation in instance.schema:
        name = relation.name
        for attribute in relation.flexible_attributes:
            column = attribute.name
            found = directions.get((name, column))
            if not found or len(found) != 1:
                continue
            direction = next(iter(found))
            for clean_tuple in instance.tuples(name):
                if draw() >= cell_rate:
                    continue
                ref = TupleRef(name, clean_tuple.key)
                tup = dirty.resolve(ref)
                clean_value = tup[column]
                offset = rng.randint(1, max_offset)
                # UP-direction attributes are fixed by raising the value,
                # so the error lowers it; DOWN-direction attributes the
                # other way round.
                if direction is FixDirection.UP:
                    dirty_value = clean_value - offset
                else:
                    dirty_value = clean_value + offset
                dirty.replace_tuple(tup.replace({column: dirty_value}))
                errors.append(InjectedError(ref, column, clean_value, dirty_value))

    return CorruptionResult(
        clean=instance.copy(), dirty=dirty, errors=tuple(errors)
    )
