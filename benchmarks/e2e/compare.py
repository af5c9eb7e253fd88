"""Compare two result sets of the end-to-end benchmark.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py BASE NEW [--write-baseline FILE]

``BASE`` and ``NEW`` each name a result set as ``SOURCE[@SELECTOR]``:

* a run ledger (``e2e_ledger.sqlite``, or the directory holding it), with
  an optional ``COMMIT`` prefix or ``COMMIT/RUN_INDEX`` selector;
* a baseline file written by ``--write-baseline``, with the set name
  (``base`` or ``new``) as selector.

Only untraced full-size runs whose checks passed count.  For every (workload, end-to-end
metric) it prints both medians and IQRs and a verdict against the bound
in ``BENCHMARK.json``: ``worse`` or ``better`` when the medians differ by
more than the bound, else ``unchanged``.  When either side's spread (IQR
over median) is wider than the bound the verdict is ``unresolved``,
unless every run of one side beats every run of the other.  The exit
code is 1 when any pair is ``worse``.

``--write-baseline`` also records the machine, a ``calibration_s`` score
(the wall of the calibration kernel run for about a second, see
``calibration.py``) for normalising snapshots across machines, and every
value of both sets with its median, IQR and count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sqlite3
import statistics
import sys
from pathlib import Path

from calibration import calibration_s

ROOT = Path(__file__).resolve().parents[2]


def load_set(spec: str) -> dict:
    """``{workload: {metric: [values]}}`` for one ``SOURCE[@SELECTOR]``."""
    source, _, selector = spec.partition("@")
    path = Path(source)
    if path.suffix == ".json":
        sets = json.loads(path.read_text())["sets"]
        if selector not in sets:
            raise SystemExit(f"{path} has no set {selector!r}; it has {sorted(sets)}")
        return {
            workload: {metric: entry["values"] for metric, entry in metrics.items()}
            for workload, metrics in sets[selector].items()
        }
    if path.is_dir():
        path = path / "e2e_ledger.sqlite"
    if not path.exists():
        raise SystemExit(f"no run ledger at {path}")
    commit, _, run_index = selector.partition("/")
    query = (
        "SELECT workload, result FROM runs WHERE trace = 0 AND size = 'full'"
        " AND commit_id LIKE ? || '%'"
    )
    params: list = [commit]
    if run_index:
        query += " AND run_index = ?"
        params.append(int(run_index))
    connection = sqlite3.connect(path)
    try:
        rows = connection.execute(query + " ORDER BY workload, seed", params).fetchall()
    finally:
        connection.close()
    values: dict = {}
    for workload, result in rows:
        result = json.loads(result)
        if not result["correct"]:
            print(f"skipping a {workload} run of {spec!r} that failed its checks",
                  file=sys.stderr)
            continue
        for metric, entry in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(metric, []).append(entry["value"])
    if not values:
        raise SystemExit(f"no untraced full-size runs match {spec!r}")
    return values


def spread(values: "list[float]") -> "tuple[float, float]":
    """Median and interquartile range."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def verdict(base: "list[float]", new: "list[float]", better: str, bound: float) -> str:
    base_median, base_iqr = spread(base)
    new_median, new_iqr = spread(new)
    sign = 1 if better == "lower" else -1
    # Positive when NEW is worse than BASE, as a share of BASE's median.
    worsening = sign * (new_median - base_median) / base_median
    if max(base_iqr / base_median, new_iqr / new_median) > bound:
        if all(sign * (b - n) > 0 for b in base for n in new):
            return "better"
        if all(sign * (n - b) > 0 for b in base for n in new):
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "unchanged"


def summarise(values: dict) -> dict:
    out: dict = {}
    for workload, metrics in values.items():
        for metric, samples in metrics.items():
            median, iqr = spread(samples)
            out.setdefault(workload, {})[metric] = {
                "median": median,
                "iqr": iqr,
                "n": len(samples),
                "values": samples,
            }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--write-baseline", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    base, new = load_set(args.base), load_set(args.new)

    print(f"{'workload':16s} {'metric':24s} {'base median':>12s} {'IQR':>10s} "
          f"{'new median':>12s} {'IQR':>10s} {'change':>8s} {'bound':>6s}  verdict")
    verdicts = []
    for workload in sorted(set(base) & set(new)):
        for name, metric in bounds.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            (b_median, b_iqr), (n_median, n_iqr) = spread(b), spread(n)
            result = verdict(b, n, metric["better"], metric["bound"])
            verdicts.append(result)
            print(f"{workload:16s} {name:24s} {b_median:12.6g} {b_iqr:10.3g} "
                  f"{n_median:12.6g} {n_iqr:10.3g} {n_median / b_median - 1:+8.2%} "
                  f"{metric['bound']:6.2f}  {result}")

    if args.write_baseline:
        baseline = {
            "machine": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpu_count": os.cpu_count(),
            },
            "calibration_s": calibration_s(),
            "run_seconds": spec["run_seconds"],
            # Which runs each set holds (commit/run index), never where they lay.
            "selectors": {"base": args.base.partition("@")[2], "new": args.new.partition("@")[2]},
            "sets": {"base": summarise(base), "new": summarise(new)},
        }
        args.write_baseline.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.write_baseline}")
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
