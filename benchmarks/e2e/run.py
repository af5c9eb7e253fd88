"""One end-to-end repair benchmark: five workloads, untraced or traced.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
        [--trace [0|1]] [--out DIR] [--runs N] [--run-index I] [--resume]
        [--size full|tiny]

Each workload runs in its own process (``workloads.py``), one after
another.  Every run prints each metric by name with its unit, checks
every repair it timed, and is recorded as one row of the resumable
SQLite ledger ``DIR/e2e_ledger.sqlite`` (default ``benchmarks/results``),
keyed by (code version, workload, seed, run index, trace, size, seconds).
``--runs N`` runs the N seeds from ``--seed`` upward; ``--run-index``
tells apart repeated sweeps over the same seeds; ``--resume`` skips runs
the ledger already holds.  ``--size tiny`` runs the same code on small
inputs (the smoke test).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` - the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace`` its
per-layer metrics.  When more than one run was made, metric names are
prefixed ``<workload>/`` and hold the median over runs.

The workloads, and why each is here:

* ``clientbuy-batch`` - the paper's Client/Buy workload (20k clients,
  30% inconsistent, ~60k tuples), serial modified-greedy, in memory.
  Reduce is most of the wall.
* ``census-auto`` - census (4000 households x 3), layer algorithm with
  ``parallel="auto"`` and two workers: thousands of small components
  through the process pool.
* ``tpch-sqlite`` - the Figure-1 pipeline from a config: sqlite load,
  pushdown detection, reduce, solve, apply, verify, in-place export, on
  TPC-H-like sf 20 (~153k tuples, ~1.2k violations).  Storage dominates.
* ``tpch-stream`` - ``StreamingRepairer`` (32 ops per commit round) over
  TPC-H-like sf 16 with a half-dirty update stream: Delta-anchored
  detection per round instead of a full scan.
* ``service-mix`` - ``RepairService`` with two workers and two clients on
  TPC-H-like sf 1; half the jobs hit the artifact cache, half miss it.

The end-to-end metrics mean the same on every workload.  ``repair_p50_s``
is the median wall of one unit of repair work: a batch repair, a commit
round (tpch-stream) or a job from submit to result (service-mix).
``ops_per_s`` counts repairs, update operations or jobs per second.
``setup_s`` is the median of the set-up steps a run repeats (inputs
generated and staged, with their reference repairs).
``distance_per_violation`` is the repair distance over the violations
repaired, which guards cover quality.  ``peak_rss_mb`` is the workload
process's peak resident memory.  Times are calibrated against a fixed
kernel timed around each window (see ``workloads.Calibration``), since
the host's speed drifts by tens of percent within seconds.  Beside the
metrics each run reports, ungated, the p95 of the unit wall, the raw
(uncalibrated) walls and the failure ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sqlite3
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("clientbuy-batch", "census-auto", "tpch-sqlite", "tpch-stream", "service-mix")
#: Each workload process must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import layers  # noqa: E402


def code_version() -> str:
    """The git commit when there is one, else a digest of ``src/``."""
    if (ROOT / ".git").exists():
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


class Ledger:
    """One row per benchmark run, so an interrupted sweep can resume."""

    KEY = ("commit_id", "workload", "seed", "run_index", "trace", "size", "seconds")

    def __init__(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self.connection = sqlite3.connect(path, timeout=30)
        self.connection.execute(
            """
            CREATE TABLE IF NOT EXISTS runs (
                commit_id TEXT NOT NULL,
                workload TEXT NOT NULL,
                seed INTEGER NOT NULL,
                run_index INTEGER NOT NULL,
                trace INTEGER NOT NULL,
                size TEXT NOT NULL,
                seconds REAL NOT NULL,
                recorded TEXT NOT NULL DEFAULT (datetime('now')),
                result TEXT NOT NULL,
                PRIMARY KEY (commit_id, workload, seed, run_index, trace, size, seconds)
            )
            """
        )

    def get(self, key: tuple) -> "dict | None":
        where = " AND ".join(f"{column} = ?" for column in self.KEY)
        row = self.connection.execute(f"SELECT result FROM runs WHERE {where}", key).fetchone()
        return json.loads(row[0]) if row else None

    def put(self, key: tuple, result: dict) -> None:
        with self.connection:
            self.connection.execute(
                f"INSERT OR REPLACE INTO runs ({', '.join(self.KEY)}, result) "
                f"VALUES ({', '.join('?' for _ in self.KEY)}, ?)",
                (*key, json.dumps(result)),
            )

    def close(self) -> None:
        self.connection.close()


def run_workload(name, seed, seconds, trace, size, work_root: Path) -> "dict | None":
    """One run in a fresh process; ``None`` when it crashed or timed out."""
    with tempfile.TemporaryDirectory(prefix="e2e-", dir=work_root) as work_dir:
        command = [
            sys.executable,
            str(HERE / "workloads.py"),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--size", size,
            "--work-dir", work_dir,
        ]
        try:
            child = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        print(f"{name}: exited with code {child.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(name: str, seed: int, result: dict) -> None:
    """The human-readable lines for one run."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name} seed={seed}: {attempted} attempted, {failed} failed "
          f"(fail_ratio {failed / attempted:.4g})")
    for metric, entry in result["metrics"].items():
        moves = layers.LAYER_MAP.get(metric)
        note = f"  -> {moves[0]} on {moves[1]}" if moves else ""
        print(f"  {metric:32s} {entry['value']:>14.6g} {entry['unit']}{note}")
    for key, value in result.get("info", {}).items():
        print(f"  {key:32s} {value:>14.6g} (info, not gated)")
    gap = result["metrics"].get("obs.stage_gap_ratio")
    if gap is not None and abs(gap["value"]) > 0.15:
        print(f"  note: the layer times miss {gap['value']:+.0%} of the untraced unit wall")


def summary(results: "list[tuple[str, int, dict]]") -> dict:
    """The final JSON object over all runs made."""
    final = {
        "correct": all(result["correct"] for _, _, result in results),
        "attempted": sum(result["attempted"] for _, _, result in results),
        "failed": sum(result["failed"] for _, _, result in results),
    }
    if len(results) == 1:
        final["metrics"] = results[0][2]["metrics"]
        return final
    values: dict = {}
    for name, _, result in results:
        for metric, entry in result["metrics"].items():
            values.setdefault(f"{name}/{metric}", (entry["unit"], []))[1].append(entry["value"])
    final["metrics"] = {
        key: {"value": statistics.median(samples), "unit": unit}
        for key, (unit, samples) in values.items()
    }
    return final


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "results")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--run-index", type=int, default=0)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the repro package from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    commit = code_version()
    args.out.mkdir(parents=True, exist_ok=True)
    ledger = Ledger(args.out / "e2e_ledger.sqlite")
    results = []
    try:
        for name in names:
            for seed in range(args.seed, args.seed + args.runs):
                key = (commit, name, seed, args.run_index, args.trace, args.size, args.seconds)
                result = ledger.get(key) if args.resume else None
                if result is None:
                    result = run_workload(
                        name, seed, args.seconds, args.trace, args.size, args.out
                    )
                    if result is None:
                        return 1
                    ledger.put(key, result)
                report(name, seed, result)
                results.append((name, seed, result))
    finally:
        ledger.close()
    final = summary(results)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
