"""Schema validation for the committed ``benchmarks/results/BENCH_*.json``.

The perf-trajectory snapshots are data the CI ratchet
(``benchmarks/compare_snapshots.py``) consumes; a malformed snapshot
would silently un-gate a regression (missing files and missing keys are
tolerated there so optional-dependency legs can skip).  This suite makes
malformation loud instead: every committed snapshot must parse, carry
the machine stanza, and keep its speedup ratios as finite positive
numbers.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
RESULTS = REPO / "benchmarks" / "results"
SNAPSHOTS = sorted(RESULTS.glob("BENCH_*.json"))

#: snapshots whose ``speedups`` section feeds the CI regression gate
GATED = {
    "BENCH_detect.json",
    "BENCH_parallel.json",
    "BENCH_pushdown.json",
    "BENCH_setcover.json",
    "BENCH_streaming.json",
}


def _compare_snapshots_module():
    spec = importlib.util.spec_from_file_location(
        "compare_snapshots", REPO / "benchmarks" / "compare_snapshots.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numeric_leaves(payload, path=()):
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _numeric_leaves(value, path + (str(key),))
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            yield from _numeric_leaves(value, path + (str(index),))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        yield ".".join(path), float(payload)


def test_committed_snapshots_exist() -> None:
    names = {p.name for p in SNAPSHOTS}
    assert GATED <= names, f"gated snapshots missing: {sorted(GATED - names)}"


@pytest.mark.parametrize("path", SNAPSHOTS, ids=lambda p: p.name)
def test_snapshot_is_a_nonempty_object(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(payload, dict)
    assert payload, f"{path.name} is empty"


@pytest.mark.parametrize("path", SNAPSHOTS, ids=lambda p: p.name)
def test_machine_stanza(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    machine = payload.get("machine")
    assert isinstance(machine, dict), f"{path.name} lacks a machine stanza"
    assert isinstance(machine.get("cpu_count"), int)
    assert machine["cpu_count"] >= 1
    for key in ("python", "platform", "implementation"):
        assert isinstance(machine.get(key), str) and machine[key]


@pytest.mark.parametrize("path", SNAPSHOTS, ids=lambda p: p.name)
def test_every_numeric_leaf_is_finite(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    bad = [
        (dotted, value)
        for dotted, value in _numeric_leaves(payload)
        if not math.isfinite(value)
    ]
    assert not bad, f"{path.name} has non-finite leaves: {bad}"


@pytest.mark.parametrize(
    "path",
    [p for p in SNAPSHOTS if p.name in GATED],
    ids=lambda p: p.name,
)
def test_gated_speedups_are_positive_and_nonempty(path: Path) -> None:
    """The exact leaves the ratchet reads must exist and make sense.

    Reuses ``compare_snapshots.load_speedups`` so this test and the CI
    gate can never disagree about which leaves are gated.
    """
    module = _compare_snapshots_module()
    speedups = module.load_speedups(path)
    assert speedups, f"{path.name}: no `*speedup` leaves under 'speedups'"
    for dotted, value in speedups.items():
        assert math.isfinite(value) and value > 0, f"{path.name}: {dotted}={value}"


def test_parallel_snapshot_keys() -> None:
    """``BENCH_parallel.json`` is shaped differently (single top-level run)."""
    payload = json.loads((RESULTS / "BENCH_parallel.json").read_text())
    for key in ("serial", "auto", "speedup", "workers", "workload"):
        assert key in payload, f"BENCH_parallel.json lacks {key!r}"
    assert payload["speedup"] > 0
    assert isinstance(payload["workers"], int) and payload["workers"] >= 1
