"""A TPC-H-shaped workload at configurable scale for the pushdown engine.

Three relations modeled on TPC-H's ``customer`` / ``orders`` /
``lineitem`` (integer domains throughout, per the repair model's
numerical-attribute contract), a denial-constraint set mixing
single-atom range checks, a foreign-key join constraint, and a
self-join, plus seeded ground-truth corruption via
:func:`repro.workloads.corruption.corrupt`.

The clean generator only draws values *inside* every constraint's
allowed region, so the clean instance is consistent by construction;
``violation_ratio`` then corrupts that fraction of corruptible cells
against their fix direction, giving a violation load proportional to
``scale_factor x violation_ratio`` - the knob the pushdown benchmark
sweeps.
"""

from __future__ import annotations

import random

from repro.constraints.parser import parse_denials
from repro.model.instance import DatabaseInstance
from repro.model.schema import Attribute, Relation, Schema
from repro.workloads.corruption import corrupt
from repro.workloads.generator import Workload

TPCH_CONSTRAINTS = """
tq1: NOT(Lineitem(ok, ln, q, ep, d, sd), q > 50)
tq2: NOT(Lineitem(ok, ln, q, ep, d, sd), d > 10)
tq3: NOT(Lineitem(ok, ln, q, ep, d, sd), sd > 120)
tq4: NOT(Customer(ck, seg, bal), bal < 0)
tq5: NOT(Orders(ok, ck, pr, tp), Customer(ck, seg, bal), bal < 10, tp > 5000)
tq6: NOT(Lineitem(ok, ln, q, ep, d, sd), Lineitem(ok, ln2, q2, ep2, d2, sd2), ln < ln2, q > 45, q2 > 45)
"""

#: Customer rows at ``scale_factor=1.0``; orders and lineitems follow at
#: roughly 10x and 40x.
CUSTOMERS_PER_SF = 150


def tpch_like_schema() -> Schema:
    """Customer/Orders/Lineitem with flexible measure columns."""
    return Schema(
        [
            Relation(
                "Customer",
                [
                    Attribute.hard("custkey"),
                    Attribute.hard("mktsegment"),
                    Attribute.flexible("acctbal"),
                ],
                key=["custkey"],
            ),
            Relation(
                "Orders",
                [
                    Attribute.hard("orderkey"),
                    Attribute.hard("custkey"),
                    Attribute.hard("orderpriority"),
                    Attribute.flexible("totalprice"),
                ],
                key=["orderkey"],
            ),
            Relation(
                "Lineitem",
                [
                    Attribute.hard("orderkey"),
                    Attribute.hard("linenumber"),
                    Attribute.flexible("quantity"),
                    Attribute.flexible("extendedprice"),
                    Attribute.flexible("discount"),
                    Attribute.flexible("shipdelay"),
                ],
                key=["orderkey", "linenumber"],
            ),
        ]
    )


_SEGMENTS = ("BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT-SPECIFIED", "5-LOW")


def tpch_like_workload(
    scale_factor: float = 1.0,
    violation_ratio: float = 0.0,
    seed: int = 0,
    max_offset: int = 20,
) -> Workload:
    """Generate one TPC-H-shaped database.

    Parameters
    ----------
    scale_factor:
        Size knob: ``CUSTOMERS_PER_SF * scale_factor`` customers, each
        with 5-15 orders of 1-7 lineitems (roughly ``7_500 *
        scale_factor`` tuples in total).
    violation_ratio:
        Fraction of corruptible cells moved out of range
        (:func:`~repro.workloads.corruption.corrupt` with this
        ``cell_rate``).  ``0.0`` returns the clean, consistent instance.
    seed:
        RNG seed; generation and corruption are both deterministic in it.
    max_offset:
        How far past the constraint bound a corrupted cell can land.
    """
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")
    if not 0.0 <= violation_ratio <= 1.0:
        raise ValueError("violation_ratio must be in [0, 1]")

    rng = random.Random(seed)
    schema = tpch_like_schema()
    constraints = tuple(parse_denials(TPCH_CONSTRAINTS))

    n_customers = max(1, round(CUSTOMERS_PER_SF * scale_factor))
    customers: list[tuple[int, str, int]] = []
    orders: list[tuple[int, int, str, int]] = []
    lineitems: list[tuple[int, int, int, int, int, int]] = []
    orderkey = 0
    for custkey in range(n_customers):
        # Clean ranges sit strictly inside every constraint's allowed
        # region: acctbal >= 10 (tq4/tq5), totalprice <= 5000 (tq5),
        # quantity <= 45 (tq1/tq6), discount <= 10 (tq2), shipdelay
        # <= 120 (tq3) - so the clean instance is consistent.
        customers.append(
            (custkey, rng.choice(_SEGMENTS), rng.randint(10, 9999))
        )
        for _ in range(rng.randint(5, 15)):
            orders.append(
                (
                    orderkey,
                    custkey,
                    rng.choice(_PRIORITIES),
                    rng.randint(100, 5000),
                )
            )
            for linenumber in range(rng.randint(1, 7)):
                lineitems.append(
                    (
                        orderkey,
                        linenumber,
                        rng.randint(1, 45),
                        rng.randint(100, 99999),
                        rng.randint(0, 10),
                        rng.randint(1, 120),
                    )
                )
            orderkey += 1
    instance = DatabaseInstance.from_rows(
        schema,
        {"Customer": customers, "Orders": orders, "Lineitem": lineitems},
    )

    params = {
        "scale_factor": scale_factor,
        "violation_ratio": violation_ratio,
        "seed": seed,
        "max_offset": max_offset,
        "customers": n_customers,
        "orders": instance.count("Orders"),
        "lineitems": instance.count("Lineitem"),
        "injected_errors": 0,
    }
    if violation_ratio > 0.0:
        result = corrupt(
            instance,
            constraints,
            cell_rate=violation_ratio,
            max_offset=max_offset,
            seed=seed + 1,
        )
        instance = result.dirty
        params["injected_errors"] = len(result.errors)

    return Workload(
        name="tpch-like",
        schema=schema,
        instance=instance,
        constraints=constraints,
        params=params,
    )
