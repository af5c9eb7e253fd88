"""A financial workload (the introduction's "financial data" motivation).

Schema::

    Account(aid, region, balance, overdraft)   key aid,        F ∋ balance
    Transfer(tid, aid, amount)                 key tid,        F ∋ amount

    ic1: ¬(Transfer(t, a, m), m > 50000)                    transfer cap
    ic2: ¬(Account(a, r, b, o), Transfer(t, a, m),
           m > 10000, b < 1000)       large transfers need a funded account
    ic3: ¬(Account(a, r, b, o), b < -20000)    balance below overdraft floor

Fix directions: ``amount`` appears only in ``>`` (fixes lower it to the
cap / threshold), ``balance`` only in ``<`` (fixes raise it to the
floor / funding threshold) - the set is local, joins bind the hard ``aid``.
The degree of inconsistency is bounded by the per-account transfer count.
"""

from __future__ import annotations

import random

from repro.constraints.parser import parse_denials
from repro.model.instance import DatabaseInstance
from repro.model.schema import Attribute, Relation, Schema
from repro.workloads.generator import Workload

FINANCE_CONSTRAINTS = """
ic1: NOT(Transfer(t, a, m), m > 50000)
ic2: NOT(Account(a, r, b, o), Transfer(t, a, m), m > 10000, b < 1000)
ic3: NOT(Account(a, r, b, o), b < -20000)
"""


def finance_schema(
    weight_balance: float = 1.0 / 100, weight_amount: float = 1.0 / 100
) -> Schema:
    """Accounts and transfers; money attributes down-weighted per scale."""
    return Schema(
        [
            Relation(
                "Account",
                [
                    Attribute.hard("aid"),
                    Attribute.hard("region"),
                    Attribute.flexible("balance", weight_balance),
                    Attribute.hard("overdraft"),
                ],
                key=["aid"],
            ),
            Relation(
                "Transfer",
                [
                    Attribute.hard("tid"),
                    Attribute.hard("aid"),
                    Attribute.flexible("amount", weight_amount),
                ],
                key=["tid"],
            ),
        ]
    )


def finance_workload(
    n_accounts: int,
    transfers_per_account: int = 2,
    dirty_ratio: float = 0.2,
    seed: int = 0,
) -> Workload:
    """Generate one random finance database.

    A dirty account draws some combination of: an oversized transfer
    (ic₁), a large transfer from an underfunded account (ic₂), or a
    balance below the overdraft floor (ic₃).
    """
    if n_accounts <= 0:
        raise ValueError("n_accounts must be positive")
    if transfers_per_account < 1:
        raise ValueError("transfers_per_account must be >= 1")
    if not 0.0 <= dirty_ratio <= 1.0:
        raise ValueError("dirty_ratio must be in [0, 1]")

    rng = random.Random(seed)
    accounts: list[tuple[int, str, int, int]] = []
    transfers: list[tuple[int, int, int]] = []
    tid = 0
    regions = ("north", "south", "east", "west")

    for aid in range(n_accounts):
        dirty = rng.random() < dirty_ratio
        underfunded = dirty and rng.random() < 0.6
        deep_overdraft = dirty and rng.random() < 0.3
        if deep_overdraft:
            balance = rng.randint(-60000, -20001)
        elif underfunded:
            balance = rng.randint(-5000, 999)
        else:
            balance = rng.randint(1000, 100000)
        accounts.append((aid, rng.choice(regions), balance, -20000))
        for _ in range(transfers_per_account):
            if dirty and rng.random() < 0.5:
                amount = (
                    rng.randint(50001, 90000)
                    if rng.random() < 0.4
                    else rng.randint(10001, 50000)
                )
            else:
                amount = rng.randint(1, 10000)
            transfers.append((tid, aid, amount))
            tid += 1

    schema = finance_schema()
    instance = DatabaseInstance.from_rows(
        schema, {"Account": accounts, "Transfer": transfers}
    )
    return Workload(
        name="finance",
        schema=schema,
        instance=instance,
        constraints=tuple(parse_denials(FINANCE_CONSTRAINTS)),
        params={
            "n_accounts": n_accounts,
            "transfers_per_account": transfers_per_account,
            "dirty_ratio": dirty_ratio,
            "seed": seed,
        },
    )
