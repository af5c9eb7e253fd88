"""Sustained streaming-repair throughput: commit pipeline endurance.

Two experiments over the TPC-H-like generator (clean at the start,
seeded independent corruptions streamed in):

* **round throughput** - the same deterministic update stream is repaired
  two ways: the status-quo per-update loop (``IncrementalRepairer``
  with one snapshotting ``commit()`` per operation, each paying O(|D|)
  copies) and the streaming pipeline (``StreamingRepairer`` batching
  ``COMMIT_INTERVAL`` operations per snapshot-free round).  Both final
  databases must be byte-identical to a cold batch
  ``repair_database`` of the fully-mutated input, and at the largest
  scale the batched pipeline must sustain **>= 2x** the per-update
  throughput - the always-on acceptance ratchet
  (``speedups.round_speedup`` in ``BENCH_streaming.json``, diffed by CI
  via ``compare_snapshots.py``).

* **endurance** - a fixed wall-clock budget of streamed operations
  (timeout-guarded by an operation cap) through one traced
  ``StreamingRepairer``; sustained updates/sec plus p50/p99 commit
  latency (read off the ``commit`` spans via
  :func:`repro.obs.latency_summary`) land in ``BENCH_streaming.json``
  and accumulate per-run rows in ``streaming_endurance.sqlite`` next to
  the JSON artifacts, so latency trajectories survive across runs.

The update stream touches each orderkey/custkey at most once and never
touches ``totalprice``, so every injected violation repairs through an
independent single-tuple fix - the regime where streamed round
boundaries provably cannot change the final repair (see
``tests/repair/test_streaming.py`` for the fuzzed parity suite).
"""

from __future__ import annotations

import random
import sqlite3
import time

import pytest

from repro import IncrementalRepairer, StreamingRepairer, repair_database
from repro.obs import latency_summary
from repro.workloads import tpch_like_workload

from conftest import bench_json_dir, bench_sizes, quick_mode, record_bench_json, record_point

TABLE = "Streaming repair: sustained throughput (updates/sec)"
QUICK = quick_mode()

SCALES = bench_sizes([1.0, 4.0], quick=[2.0])
LARGEST = SCALES[-1]
N_OPS = bench_sizes(400, quick=200)
COMMIT_INTERVAL = 32
SEED = 7

#: Endurance run: wall budget (seconds) and the op cap guarding against
#: a pathologically slow runner turning the bench into a hang.
WALL_BUDGET = bench_sizes(6.0, quick=1.5)
OPS_CAP = bench_sizes(20_000, quick=3_000)

#: Out-of-range draws per corruptible Lineitem attribute (constraint,
#: low, high): quantity > 50 (tq1), discount > 10 (tq2), shipdelay > 120
#: (tq3).  One corruption per orderkey keeps the tq6 self-join silent.
_DIRTY_LINEITEM = (
    ("quantity", 51, 80),
    ("discount", 11, 25),
    ("shipdelay", 121, 200),
)


def _update_stream(workload, n_ops: int, seed: int, allow_repeats: bool = False):
    """A deterministic stream of ``(relation, key, {attr: value})`` ops.

    Each orderkey and custkey is touched at most once (dirty or clean),
    so every streamed round's violation neighbourhood is independent of
    every other round's - the byte-parity regime.  With
    ``allow_repeats`` (endurance mode, parity not asserted) exhausted
    key pools recycle into clean ``extendedprice`` traffic.
    """
    rng = random.Random(seed)
    instance = workload.instance
    per_order: dict = {}
    for tup in instance.tuples("Lineitem"):
        per_order.setdefault(tup.key[0], tup.key)
    line_keys = sorted(per_order.values())
    rng.shuffle(line_keys)
    cust_keys = sorted(tup.key for tup in instance.tuples("Customer"))
    rng.shuffle(cust_keys)
    recycled = list(line_keys)

    ops = []
    while len(ops) < n_ops:
        draw = rng.random()
        if draw < 0.5 and line_keys:
            key = line_keys.pop()
            attribute, low, high = _DIRTY_LINEITEM[rng.randrange(3)]
            ops.append(("Lineitem", key, {attribute: rng.randint(low, high)}))
        elif draw < 0.7 and cust_keys:
            key = cust_keys.pop()
            ops.append(("Customer", key, {"acctbal": -rng.randint(1, 50)}))
        elif line_keys:
            key = line_keys.pop()
            ops.append(("Lineitem", key, {"extendedprice": rng.randint(100, 99999)}))
        elif allow_repeats:
            key = recycled[rng.randrange(len(recycled))]
            ops.append(("Lineitem", key, {"extendedprice": rng.randint(100, 99999)}))
        else:
            break
    return ops


def _expected_repair(workload, ops):
    """Cold batch reference: mutate a copy, repair it in one shot."""
    mutated = workload.instance.copy()
    for relation_name, key, changes in ops:
        mutated.replace_tuple(mutated.get(relation_name, key).replace(changes))
    return repair_database(mutated, workload.constraints).repaired


def _run_per_update(workload, ops) -> tuple[float, object]:
    """Status quo: one snapshotting commit per streamed operation."""
    repairer = IncrementalRepairer(workload.instance, workload.constraints)
    started = time.perf_counter()
    for relation_name, key, changes in ops:
        repairer.update(relation_name, key, changes)
        repairer.commit()
    return time.perf_counter() - started, repairer.instance


def _run_streaming(workload, ops) -> tuple[float, object]:
    """The pipeline: coalescing queue, snapshot-free batched rounds."""
    streamer = StreamingRepairer(
        workload.instance,
        workload.constraints,
        commit_interval=COMMIT_INTERVAL,
        max_pending=None,
    )
    started = time.perf_counter()
    for relation_name, key, changes in ops:
        streamer.update(relation_name, key, changes)
    streamer.flush()
    return time.perf_counter() - started, streamer.instance


@pytest.mark.parametrize("scale", SCALES)
def test_streaming_round_throughput(scale):
    workload = tpch_like_workload(scale, seed=SEED)
    ops = _update_stream(workload, N_OPS, seed=SEED)
    assert len(ops) == N_OPS
    expected = _expected_repair(workload, ops)

    serial_seconds, serial_instance = _run_per_update(workload, ops)
    batched_seconds, batched_instance = _run_streaming(workload, ops)

    # Byte parity: round boundaries never change the repair.
    assert serial_instance == expected
    assert batched_instance == expected

    round_speedup = serial_seconds / batched_seconds if batched_seconds else 0.0
    n_tuples = len(workload.instance)
    record_point(TABLE, "per-update", n_tuples, len(ops) / serial_seconds)
    record_point(TABLE, "batched", n_tuples, len(ops) / batched_seconds)

    payload = {
        "scale": {
            str(scale): {
                "n_tuples": n_tuples,
                "ops": len(ops),
                "commit_interval": COMMIT_INTERVAL,
                "per_update_seconds": serial_seconds,
                "batched_seconds": batched_seconds,
                "parity": True,
            }
        },
        "workload": {"name": "tpch-like", "quick": QUICK, "seed": SEED},
    }
    if scale == LARGEST:
        # The acceptance ratchet: batched snapshot-free rounds must
        # sustain at least 2x the per-update commit loop, on any machine
        # (both sides are single-threaded, so the ratio is a property of
        # the pipeline, not the runner).
        payload["speedups"] = {"round_speedup": round_speedup}
        assert round_speedup >= 2.0, (
            f"streaming rounds only {round_speedup:.2f}x over per-update "
            f"commits at scale {scale} (need >= 2x)"
        )
    record_bench_json("streaming", payload)


def _persist_endurance_run(db_path, row, rounds) -> None:
    """Append one endurance run (plus its per-round latencies) to SQLite."""
    connection = sqlite3.connect(db_path)
    try:
        connection.executescript(
            """
            CREATE TABLE IF NOT EXISTS runs (
                run_id INTEGER PRIMARY KEY AUTOINCREMENT,
                created TEXT NOT NULL DEFAULT (datetime('now')),
                scale REAL, quick INTEGER, ops INTEGER, rounds INTEGER,
                seconds REAL, ops_per_second REAL,
                p50_commit_seconds REAL, p99_commit_seconds REAL
            );
            CREATE TABLE IF NOT EXISTS round_latencies (
                run_id INTEGER NOT NULL REFERENCES runs(run_id),
                round INTEGER NOT NULL,
                wall_seconds REAL NOT NULL
            );
            """
        )
        cursor = connection.execute(
            "INSERT INTO runs (scale, quick, ops, rounds, seconds,"
            " ops_per_second, p50_commit_seconds, p99_commit_seconds)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            row,
        )
        run_id = cursor.lastrowid
        connection.executemany(
            "INSERT INTO round_latencies (run_id, round, wall_seconds)"
            " VALUES (?, ?, ?)",
            [(run_id, index, wall) for index, wall in enumerate(rounds, 1)],
        )
        connection.commit()
    finally:
        connection.close()


def test_streaming_endurance():
    """Fixed wall budget of streamed ops; sustained rate + tail latency."""
    workload = tpch_like_workload(LARGEST, seed=SEED)
    ops = _update_stream(workload, OPS_CAP, seed=SEED + 1, allow_repeats=True)
    streamer = StreamingRepairer(
        workload.instance,
        workload.constraints,
        commit_interval=COMMIT_INTERVAL,
        max_pending=None,
        trace=True,
    )

    started = time.perf_counter()
    deadline = started + WALL_BUDGET
    submitted = 0
    for relation_name, key, changes in ops:
        streamer.update(relation_name, key, changes)
        submitted += 1
        if time.perf_counter() >= deadline:
            break
    streamer.flush()
    elapsed = time.perf_counter() - started
    assert submitted > 0 and streamer.stats.rounds > 0

    trace = streamer.finish_trace()
    commits = {row["name"]: row for row in latency_summary(trace)}
    commit_row = commits["commit"]
    assert commit_row["count"] == streamer.stats.rounds
    round_walls = [
        span.duration or 0.0
        for span in trace.spans()
        if span.name == "commit"
    ]
    ops_per_second = submitted / elapsed if elapsed else 0.0

    db_path = bench_json_dir() / "streaming_endurance.sqlite"
    db_path.parent.mkdir(parents=True, exist_ok=True)
    _persist_endurance_run(
        db_path,
        (
            LARGEST, int(QUICK), submitted, streamer.stats.rounds, elapsed,
            ops_per_second, commit_row["p50_seconds"], commit_row["p99_seconds"],
        ),
        round_walls,
    )

    record_point(TABLE, "endurance", len(workload.instance), ops_per_second)
    record_bench_json(
        "streaming",
        {
            "endurance": {
                "scale": LARGEST,
                "wall_budget_seconds": WALL_BUDGET,
                "ops_submitted": submitted,
                "ops_capped": submitted == len(ops),
                "elapsed_seconds": elapsed,
                "ops_per_second": ops_per_second,
                "rounds": streamer.stats.rounds,
                "coalesced": streamer.stats.coalesced,
                "commit_latency": {
                    "count": commit_row["count"],
                    "mean_seconds": commit_row["mean_seconds"],
                    "p50_seconds": commit_row["p50_seconds"],
                    "p99_seconds": commit_row["p99_seconds"],
                    "max_seconds": commit_row["max_seconds"],
                },
                "sqlite": str(db_path),
            }
        },
    )
