"""The paper's experimental workload (Section 4): the Client/Buy schema.

Schema (from [4, 5], as used in the ICDE'07 experiments)::

    Client(ID, A, C)   key ID,     F ∋ A (age), C (credit)
    Buy(ID, I, P)      key (ID,I), F ∋ P (price)

    IC = { ∀: ¬(Buy(ID,I,P), Client(ID,A,C), A < 18, P > 25),
           ∀: ¬(Client(ID,A,C), A < 18, C > 50) }

i.e. minors may not make purchases above 25 nor hold credit above 50.

The generator produces databases with a configurable fraction of tuples
involved in inconsistencies (the paper used "around 30%").  A client is
drawn *inconsistent* with probability ``inconsistency_ratio``; such a
client is a minor whose credit violates ic₂ with probability 1/2 and whose
purchases violate ic₁ with probability ``violating_buy_ratio`` each (at
least one forced).  Consistent clients are adults, whose tuples can never
participate in a violation of either constraint.  The *degree of
inconsistency* is therefore bounded by ``max_buys + 1``, the regime where
Proposition 3.7 gives O(n log n) for the modified greedy algorithm.
"""

from __future__ import annotations

import random

from repro.constraints.parser import parse_denials
from repro.model.instance import DatabaseInstance
from repro.model.schema import Attribute, Relation, Schema
from repro.workloads.generator import Workload

CLIENT_BUY_CONSTRAINTS = """
ic1: NOT(Buy(id, i, p), Client(id, a, c), a < 18, p > 25)
ic2: NOT(Client(id, a, c), a < 18, c > 50)
"""


def client_buy_schema(
    weight_a: float = 1.0, weight_c: float = 1.0, weight_p: float = 1.0
) -> Schema:
    """The Client/Buy schema with configurable attribute weights."""
    return Schema(
        [
            Relation(
                "Client",
                [
                    Attribute.hard("id"),
                    Attribute.flexible("a", weight_a),
                    Attribute.flexible("c", weight_c),
                ],
                key=["id"],
            ),
            Relation(
                "Buy",
                [
                    Attribute.hard("id"),
                    Attribute.hard("i"),
                    Attribute.flexible("p", weight_p),
                ],
                key=["id", "i"],
            ),
        ]
    )


def client_buy_workload(
    n_clients: int,
    inconsistency_ratio: float = 0.30,
    min_buys: int = 1,
    max_buys: int = 3,
    violating_buy_ratio: float = 0.6,
    seed: int = 0,
    minor_age_range: tuple[int, int] = (10, 17),
    bad_credit_range: tuple[int, int] = (51, 100),
    bad_price_range: tuple[int, int] = (26, 100),
) -> Workload:
    """Generate one random Client/Buy database.

    Parameters
    ----------
    n_clients:
        Number of Client tuples; total size is roughly
        ``n_clients * (1 + (min_buys+max_buys)/2)``.
    inconsistency_ratio:
        Probability that a client is an inconsistency source (paper: ~0.30
        of tuples involved; report the realized ratio via
        :func:`repro.violations.inconsistency_profile`).
    min_buys, max_buys:
        Purchases per client (uniform).  ``max_buys + 1`` bounds the degree
        of inconsistency.
    violating_buy_ratio:
        Probability that each purchase of an inconsistent client violates
        ic₁ (one is always forced, so every inconsistent client produces at
        least one violation set).
    seed:
        RNG seed; equal seeds give identical databases.
    minor_age_range, bad_credit_range, bad_price_range:
        Value ranges for the violating cells.  Tight ranges (e.g. ages
        14-17, credit 51-54, prices 26-29) produce many effective-weight
        *ties* between candidate fixes, the regime where the greedy and
        layer algorithms pick measurably different covers - the Figure-2
        benchmark uses this to expose the approximation-quality gap.
    """
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    if not 0.0 <= inconsistency_ratio <= 1.0:
        raise ValueError("inconsistency_ratio must be in [0, 1]")
    if not 1 <= min_buys <= max_buys:
        raise ValueError("need 1 <= min_buys <= max_buys")
    if not (10 <= minor_age_range[0] <= minor_age_range[1] <= 17):
        raise ValueError("minor_age_range must lie within [10, 17]")
    if not (51 <= bad_credit_range[0] <= bad_credit_range[1]):
        raise ValueError("bad_credit_range must start above 50")
    if not (26 <= bad_price_range[0] <= bad_price_range[1]):
        raise ValueError("bad_price_range must start above 25")

    rng = random.Random(seed)
    clients: list[tuple[int, int, int]] = []
    buys: list[tuple[int, int, int]] = []
    for client_id in range(n_clients):
        inconsistent = rng.random() < inconsistency_ratio
        if inconsistent:
            age = rng.randint(*minor_age_range)
            credit = (
                rng.randint(*bad_credit_range)
                if rng.random() < 0.5
                else rng.randint(0, 50)
            )
        else:
            age = rng.randint(18, 80)
            credit = rng.randint(0, 100)
        clients.append((client_id, age, credit))

        n_buys = rng.randint(min_buys, max_buys)
        forced = rng.randrange(n_buys) if inconsistent else -1
        for item in range(n_buys):
            if inconsistent and (
                item == forced or rng.random() < violating_buy_ratio
            ):
                price = rng.randint(*bad_price_range)
            else:
                price = rng.randint(1, 25)
            buys.append((client_id, item, price))

    schema = client_buy_schema()
    instance = DatabaseInstance.from_rows(
        schema, {"Client": clients, "Buy": buys}
    )
    return Workload(
        name="client-buy",
        schema=schema,
        instance=instance,
        constraints=tuple(parse_denials(CLIENT_BUY_CONSTRAINTS)),
        params={
            "n_clients": n_clients,
            "inconsistency_ratio": inconsistency_ratio,
            "min_buys": min_buys,
            "max_buys": max_buys,
            "violating_buy_ratio": violating_buy_ratio,
            "seed": seed,
            "minor_age_range": minor_age_range,
            "bad_credit_range": bad_credit_range,
            "bad_price_range": bad_price_range,
        },
    )
