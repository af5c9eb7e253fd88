"""Shared workload machinery: the :class:`Workload` bundle.

All generators are deterministic given a seed (``random.Random(seed)``),
which is what lets the benchmark harness replicate the paper's protocol of
"3 random databases per size, averaged" with stable numbers.

:func:`random_detection_workload` generates small Client/Buy-style
instances paired with constraints drawn from every shipped denial shape -
the fuzz corpus of the kernel/interpreted equivalence tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.constraints.denial import DenialConstraint
from repro.constraints.parser import parse_denial
from repro.model.instance import DatabaseInstance
from repro.model.schema import Schema


@dataclass(frozen=True)
class Workload:
    """A generated benchmark/demo database plus its constraints."""

    name: str
    schema: Schema
    instance: DatabaseInstance
    constraints: tuple[DenialConstraint, ...]
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Total number of tuples."""
        return len(self.instance)

    def __repr__(self) -> str:
        return f"Workload({self.name!r}, tuples={self.size})"


def _random_constraint(rng: random.Random, index: int) -> DenialConstraint:
    """One random denial over Client/Buy, drawn from the shipped shapes.

    The templates cover every constraint form the detector supports:
    var/constant built-ins with all six comparators, equality joins,
    ``=``/``≠`` variable comparisons, cross-atom order comparisons with
    and without offsets, single-atom comparisons, self-joins, and
    intra-atom repeated variables.
    """
    k1 = rng.randint(0, 30)
    k2 = rng.randint(0, 40)
    off = rng.randint(1, 5)
    sign = rng.choice("+-")
    templates = (
        f"NOT(Client(id, a, c), a < {k1}, c > {k2})",
        f"NOT(Buy(id, i, p), Client(id, a, c), a < {k1}, p > {k2})",
        f"NOT(Buy(id, i, p), Client(id, a, c), a <= {k1}, p != {k2})",
        f"NOT(Client(x, a, c), Client(y, a2, c2), x != y, a < a2 {sign} {off}, c > {k1})",
        f"NOT(Client(x, a, c), Client(y, a2, c2), a = a2, x != y, c >= {k2})",
        f"NOT(Buy(x, i, p), Buy(y, i, p2), x != y, p < p2 {sign} {off})",
        f"NOT(Buy(x, i, p), Buy(y, i2, p2), x < y, p >= p2 {sign} {off})",
        "NOT(Client(id, a, c), a > c)",
        f"NOT(Buy(id, i, p), Client(id, a, c), p >= a {sign} {off})",
        "NOT(Client(id, a, a))",
        f"NOT(Buy(id, i, p), p <= {k2}, i = {rng.randint(0, 2)})",
    )
    return parse_denial(rng.choice(templates), name=f"rc{index}")


def random_detection_workload(
    seed: int,
    n_clients: int = 40,
    n_constraints: int = 4,
) -> Workload:
    """A small random Client/Buy instance + random constraints of all shapes.

    Value ranges are deliberately tight (ages 0-30, credit 0-60, prices
    0-40) so joins hit, comparisons tie, and self-join witnesses overlap -
    the collision-heavy regime where an engine divergence would surface.
    Determinism: equal seeds give identical workloads.
    """
    from repro.workloads.clientbuy import client_buy_schema

    rng = random.Random(seed)
    clients: list[tuple[int, int, int]] = []
    buys: list[tuple[int, int, int]] = []
    for client_id in range(n_clients):
        clients.append((client_id, rng.randint(0, 30), rng.randint(0, 60)))
        for item in range(rng.randint(0, 3)):
            buys.append((client_id, item, rng.randint(0, 40)))
    schema = client_buy_schema()
    instance = DatabaseInstance.from_rows(
        schema, {"Client": clients, "Buy": buys}
    )
    constraints = tuple(
        _random_constraint(rng, index) for index in range(n_constraints)
    )
    return Workload(
        name="random-detect",
        schema=schema,
        instance=instance,
        constraints=constraints,
        params={"seed": seed, "n_clients": n_clients},
    )
