"""A census-style workload (the introduction's motivating application).

The paper motivates attribute-update repairs with census/demographic data:
semantic range constraints over numeric answers, violations confined to
single households so the degree of inconsistency is bounded by the
household size ([11], and the discussion after Proposition 3.5).

Schema::

    Household(hid, nchild, rooms)            key hid,        F ∋ nchild
    Person(hid, pid, age, income)            key (hid, pid), F ∋ age, income

    ic1: ¬(Household(h, nc, r), nc > 20)                      nchild cap
    ic2: ¬(Person(h, p, a, inc), a > 120)                     age cap
    ic3: ¬(Person(h, p, a, inc), Household(h, nc, r),
           inc > 200000, nc > 15)        joint income/children plausibility

All strict comparisons point the same way per attribute (downward fixes),
so the set is local; the join variable ``h`` binds hard attributes only.
The ``household_size`` parameter directly controls ``Deg(D, IC)``, which
the degree-ablation benchmark sweeps.
"""

from __future__ import annotations

import random

from repro.constraints.parser import parse_denials
from repro.model.instance import DatabaseInstance
from repro.model.schema import Attribute, Relation, Schema
from repro.workloads.generator import Workload

CENSUS_CONSTRAINTS = """
ic1: NOT(Household(h, nc, r), nc > 20)
ic2: NOT(Person(h, p, a, inc), a > 120)
ic3: NOT(Person(h, p, a, inc), Household(h, nc, r), inc > 200000, nc > 15)
"""


def census_schema(
    weight_nchild: float = 1.0,
    weight_age: float = 1.0,
    weight_income: float = 1.0 / 1000,
) -> Schema:
    """Census schema; income is down-weighted (different measurement scale)."""
    return Schema(
        [
            Relation(
                "Household",
                [
                    Attribute.hard("hid"),
                    Attribute.flexible("nchild", weight_nchild),
                    Attribute.hard("rooms"),
                ],
                key=["hid"],
            ),
            Relation(
                "Person",
                [
                    Attribute.hard("hid"),
                    Attribute.hard("pid"),
                    Attribute.flexible("age", weight_age),
                    Attribute.flexible("income", weight_income),
                ],
                key=["hid", "pid"],
            ),
        ]
    )


def census_workload(
    n_households: int,
    household_size: int = 3,
    dirty_ratio: float = 0.2,
    seed: int = 0,
) -> Workload:
    """Generate one random census database.

    ``dirty_ratio`` is the probability that a household contains erroneous
    answers; a dirty household draws, independently, an over-large child
    count (ic₁ and possibly ic₃), an impossible age (ic₂), or both.  All
    violations of a household stay within it, so
    ``Deg(D, IC) <= household_size``.
    """
    if n_households <= 0:
        raise ValueError("n_households must be positive")
    if household_size < 1:
        raise ValueError("household_size must be >= 1")
    if not 0.0 <= dirty_ratio <= 1.0:
        raise ValueError("dirty_ratio must be in [0, 1]")

    rng = random.Random(seed)
    households: list[tuple[int, int, int]] = []
    persons: list[tuple[int, int, int, int]] = []
    for hid in range(n_households):
        dirty = rng.random() < dirty_ratio
        big_family = dirty and rng.random() < 0.5
        nchild = rng.randint(21, 30) if big_family else rng.randint(0, 6)
        households.append((hid, nchild, rng.randint(1, 8)))
        for pid in range(household_size):
            bad_age = dirty and rng.random() < 0.4
            age = rng.randint(121, 200) if bad_age else rng.randint(0, 99)
            rich = dirty and big_family and rng.random() < 0.5
            income = (
                rng.randint(200001, 500000) if rich else rng.randint(0, 150000)
            )
            persons.append((hid, pid, age, income))

    schema = census_schema()
    instance = DatabaseInstance.from_rows(
        schema, {"Household": households, "Person": persons}
    )
    return Workload(
        name="census",
        schema=schema,
        instance=instance,
        constraints=tuple(parse_denials(CENSUS_CONSTRAINTS)),
        params={
            "n_households": n_households,
            "household_size": household_size,
            "dirty_ratio": dirty_ratio,
            "seed": seed,
        },
    )
