"""Golden digests of the seeded workload generators and of ``corrupt``.

Every generator is deterministic in its seed, and benchmark references,
EXPERIMENTS.md figures and cached artifacts all assume that a seed names
one fixed database.  These digests pin that data: a rewrite of a
generator's inner loop must leave each relation's key order, tuple
values and data version, the reported ``params`` and the injected
errors exactly as they were.  A digest change means the data changed,
which is never a refactoring.
"""

import hashlib

import pytest

from repro.workloads import (
    census_workload,
    client_buy_workload,
    corrupt,
    finance_workload,
    random_detection_workload,
    tpch_like_workload,
)


def _update_instance(hasher, instance) -> None:
    for relation in instance.schema:
        name = relation.name
        hasher.update(f"{name}@{instance.data_version(name)}\n".encode())
        for tup in instance.tuples(name):
            hasher.update(repr((tup.key, tup.values)).encode())
            hasher.update(b"\n")


def workload_digest(workload) -> str:
    hasher = hashlib.sha256()
    hasher.update(workload.name.encode())
    hasher.update(repr(sorted(workload.params.items())).encode())
    for constraint in workload.constraints:
        hasher.update(f"{constraint.name}: {constraint}\n".encode())
    _update_instance(hasher, workload.instance)
    return hasher.hexdigest()


def corruption_digest(result) -> str:
    hasher = hashlib.sha256()
    for error in result.errors:
        hasher.update(
            repr(
                (
                    error.ref.relation_name,
                    error.ref.key_values,
                    error.attribute,
                    error.clean_value,
                    error.dirty_value,
                )
            ).encode()
        )
        hasher.update(b"\n")
    _update_instance(hasher, result.clean)
    _update_instance(hasher, result.dirty)
    return hasher.hexdigest()


GENERATORS = {
    "clientbuy-default": lambda: client_buy_workload(300, seed=7),
    "clientbuy-tight": lambda: client_buy_workload(
        200,
        inconsistency_ratio=0.5,
        min_buys=2,
        max_buys=5,
        violating_buy_ratio=0.3,
        seed=3,
        minor_age_range=(14, 17),
        bad_credit_range=(51, 54),
        bad_price_range=(26, 29),
    ),
    "census": lambda: census_workload(
        250, household_size=3, dirty_ratio=0.3, seed=11
    ),
    "census-wide": lambda: census_workload(
        80, household_size=6, dirty_ratio=0.9, seed=2
    ),
    "tpch-clean": lambda: tpch_like_workload(1.0, violation_ratio=0.0, seed=3),
    "tpch-dirty": lambda: tpch_like_workload(1.0, violation_ratio=0.05, seed=3),
    "finance": lambda: finance_workload(
        200, transfers_per_account=3, dirty_ratio=0.4, seed=5
    ),
    "random-detect": lambda: random_detection_workload(
        13, n_clients=60, n_constraints=6
    ),
}

GOLDEN = {
    "clientbuy-default": "8b63a1b8538080c14b267ea7ab42b3505c64f5aecb969de80341ff35c7ad99a1",
    "clientbuy-tight": "e580b5af05b4c0a0e61329fb88b42b01d78c74e5038fd0069a55dc696b2a29f4",
    "census": "b099008fb9967456d4ab4f921029007a65709c107e23af1e75ed67c006ac1ae0",
    "census-wide": "c783aeafac589567f0d8ef2d79094df5b7d968ef5d757d2f0035e4b8c69844ca",
    "tpch-clean": "0c1292852f522133953f65bb80b035080ab9d9f4a0e34bdf2e9d2a912dd87a96",
    "tpch-dirty": "9c84e65cedf67064c32eb45476a9f375ca6613ef3e92de9f8f405241ea38021c",
    "finance": "da139f5d9b62b13cd7bd8c97e8b1db28dd984fe353edbbecb5390b80e0d7e8ff",
    "random-detect": "214f69dd8714f1ec642609247c3a3ee7eb1c58adb048a60efffffd81af54274c",
}


def _corrupt_census():
    clean = census_workload(150, household_size=3, dirty_ratio=0.0, seed=4)
    return corrupt(clean.instance, clean.constraints, cell_rate=0.1, seed=8)


def _corrupt_clientbuy():
    clean = client_buy_workload(150, inconsistency_ratio=0.0, seed=6)
    return corrupt(
        clean.instance, clean.constraints, cell_rate=0.2, max_offset=7, seed=9
    )


CORRUPTIONS = {
    "census": _corrupt_census,
    "clientbuy": _corrupt_clientbuy,
}

GOLDEN_CORRUPTIONS = {
    "census": "cbcbc76a8f2f2cc7134356d892a50398f54e7baaa5fc6b30747fa5a6f7fc0697",
    "clientbuy": "d4a575a847109b2ff121cf3da92ac508c796c89d4167696ebb137874477a523d",
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_output_is_pinned(name):
    assert workload_digest(GENERATORS[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corruption_output_is_pinned(name):
    assert corruption_digest(CORRUPTIONS[name]()) == GOLDEN_CORRUPTIONS[name]
