"""Every workload at tiny sizes, through the same command the benchmark runs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (the shared
``benchmarks/conftest.py`` imports the package); the tier-1 suite
(``testpaths = ["tests"]``) does not collect it.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_and_every_check_passes(tmp_path, trace, kind):
    command = [sys.executable, str(RUN), "--size", "tiny", "--seconds", "0.3",
               "--trace", str(trace), "--out", str(tmp_path)]
    run = subprocess.run(command, capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        for metric in SPEC[kind]:
            entry = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"])
    assert (tmp_path / "e2e_ledger.sqlite").exists()


def test_resume_skips_recorded_runs(tmp_path):
    command = [sys.executable, str(RUN), "--workload", "census-auto", "--size", "tiny",
               "--seconds", "0.2", "--out", str(tmp_path)]
    first = subprocess.run(command, capture_output=True, text=True, timeout=60, cwd=ROOT)
    resumed = subprocess.run(command + ["--resume"], capture_output=True, text=True,
                             timeout=60, cwd=ROOT)
    assert first.returncode == resumed.returncode == 0
    assert first.stdout.splitlines()[-1] == resumed.stdout.splitlines()[-1]
