"""The five end-to-end repair workloads, their timed loops and their checks.

``run.py`` starts this file once per workload, in its own process, and
reads the JSON object it prints as its last line::

    python3 benchmarks/e2e/workloads.py --workload NAME --seed N \\
        --seconds S --trace 0|1 --size full|tiny --work-dir DIR

Every workload is a closed loop from one process with at most two worker
threads or processes.  Inputs derive from ``--seed`` only.  Time is
measured around the public entry points, never inside the program:
``repair_database``, ``RepairProgram(RepairConfig.from_dict(...)).run()``,
``StreamingRepairer.update`` and ``RepairService.submit``/``result``.
Each output is checked: against a serial ``repair_database`` reference
computed untimed (clientbuy-batch, whose timed call is that reference
call, compares twin repairs), and for the stream against the minimal
fixes of its updates.  A failed check counts in ``failed`` and never
raises.

Reported times are *calibrated* (see :mod:`calibration`): seconds at
the reference machine's speed.  The raw walls are reported beside them
under ``info``.

With ``--trace 1`` the timed loop runs twice for half the time each:
untraced, then with the call sites of :mod:`layers` wrapped.  The first
half gives the base for the trace overhead and for the stage gap (how
far the per-layer times fall short of the untraced unit wall).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import itertools
import json
import math
import random
import resource
import shutil
import sqlite3
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro import ReproError, StreamingRepairer, is_consistent, repair_database  # noqa: E402
from repro.service import RepairService  # noqa: E402
from repro.system.config import RepairConfig  # noqa: E402
from repro.system.pipeline import RepairProgram  # noqa: E402
from repro.storage import SqliteBackend  # noqa: E402
from repro.workloads import (  # noqa: E402
    census_workload,
    client_buy_workload,
    tpch_like_workload,
)
from repro.workloads.tpch_like import TPCH_CONSTRAINTS  # noqa: E402

import layers  # noqa: E402
from calibration import Calibration  # noqa: E402

#: Workload parameters.  ``tiny`` runs the same code paths in seconds
#: (the smoke test); ``full`` is what the benchmark measures.
SIZES = {
    "full": {
        "clientbuy-batch": {"n_clients": 20_000, "inconsistency_ratio": 0.30},
        "census-auto": {"n_households": 4_000, "household_size": 3, "dirty_ratio": 0.3},
        "tpch-sqlite": {"scale_factor": 20, "violation_ratio": 0.01, "instances": 3},
        "tpch-stream": {"scale_factor": 16, "warmup_rounds": 100, "rounds_per_segment": 2_500},
        "service-mix": {"scale_factor": 1, "violation_ratio": 0.05, "jobs_per_session": 60},
    },
    "tiny": {
        "clientbuy-batch": {"n_clients": 300, "inconsistency_ratio": 0.30},
        "census-auto": {"n_households": 100, "household_size": 3, "dirty_ratio": 0.3},
        "tpch-sqlite": {"scale_factor": 0.5, "violation_ratio": 0.02, "instances": 2},
        "tpch-stream": {"scale_factor": 0.5, "warmup_rounds": 2, "rounds_per_segment": 20},
        "service-mix": {"scale_factor": 0.2, "violation_ratio": 0.05, "jobs_per_session": 10},
    },
}

#: End-to-end metric units (names and units match ``BENCHMARK.json``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "repair_p50_s": "s",
    "ops_per_s": "1/s",
    "distance_per_violation": "delta",
    "peak_rss_mb": "MB",
}

#: Fewest timed repairs per batch phase, however slow a repair is.
MIN_REPAIRS = 3
MAX_WORKERS = 2
COMMIT_INTERVAL = 32
SERVICE_CLIENTS = 2
EDITS_PER_COPY = 3
#: Raw seconds of commit rounds between two calibrations of the stream.
STREAM_WINDOW_S = 1.0
#: Relative tolerance on a cover weight against its reference (summation order).
WEIGHT_REL_TOL = 1e-9


@dataclass
class Phase:
    """What one timed loop measured, in calibrated and raw seconds.

    ``latencies`` holds the wall of each unit of repair work (a batch
    repair, a commit round, a job); ``ops`` counts the throughput units
    (repairs, update operations, jobs) completed in ``wall`` seconds.
    """

    latencies: list = field(default_factory=list)
    raw_latencies: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    wall: float = 0.0
    raw_wall: float = 0.0
    ops: int = 0
    distance: float = 0.0
    violations: int = 0
    attempted: int = 0
    failed: int = 0
    layer: dict = field(default_factory=dict)

    def sample(self, raw: float, factor: float) -> None:
        self.latencies.append(raw * factor)
        self.raw_latencies.append(raw)

    def spend(self, raw: float, factor: float) -> None:
        self.wall += raw * factor
        self.raw_wall += raw

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        print(f"check failed: {message}", file=sys.stderr)


@dataclass(frozen=True)
class Reference:
    """The parts of a serial reference repair a timed repair must match.

    ``changes`` must be equal.  ``cover_weight`` is a float sum whose order
    follows the solver's decomposition (per component under ``parallel``,
    in one pass serially), so it may differ from the reference in its last
    bits; it must agree to :data:`WEIGHT_REL_TOL`.
    """

    changes: tuple
    cover_weight: float

    @classmethod
    def of(cls, instance, constraints, **params) -> "Reference":
        """Repair serially and verify ``D' |= IC`` before trusting it."""
        result = repair_database(instance, constraints, **params)
        if not is_consistent(result.repaired, constraints):
            raise SystemExit("reference repair left violations")
        return cls(result.changes, result.cover_weight)

    def mismatch(self, result) -> "str | None":
        if result.changes != self.changes:
            return "repair changes differ from the serial reference"
        if not math.isclose(result.cover_weight, self.cover_weight, rel_tol=WEIGHT_REL_TOL):
            return (
                f"cover weight {result.cover_weight!r} differs from the serial "
                f"reference's {self.cover_weight!r}"
            )
        return None


def _edited(instance, edits):
    """A copy of ``instance`` with ``(relation, key, changes)`` edits applied."""
    copy = instance.copy()
    for relation, key, changes in edits:
        copy.replace_tuple(copy.get(relation, key).replace(changes))
    return copy


# -- batch workloads ---------------------------------------------------------


class BatchWorkload:
    """One repair per unit, each on an input prepared untimed just before."""

    def __init__(self, seed: int, params: dict) -> None:
        self.seed = seed
        self.params = params
        self.index = 0

    def prepare(self):
        """Return ``(unit, raw set-up seconds or None)`` for the next repair."""
        raise NotImplementedError

    def repair(self, unit):
        raise NotImplementedError

    def check(self, unit, result) -> "str | None":
        raise NotImplementedError

    def measure(self, seconds: float, timer: layers.LayerTimer) -> Phase:
        phase = Phase()
        while phase.raw_wall < seconds or phase.attempted < MIN_REPAIRS:
            calibration = Calibration()
            unit, setup_seconds = self.prepare()
            self.index += 1
            gc.collect()
            factor = calibration.factor()
            if setup_seconds is not None:
                phase.setups.append(setup_seconds * factor)
            phase.attempted += 1
            started = time.perf_counter()
            try:
                with timer.recording():
                    result = self.repair(unit)
            except ReproError as error:
                phase.spend(time.perf_counter() - started, calibration.factor())
                phase.fail(f"{type(error).__name__}: {error}")
                continue
            elapsed = time.perf_counter() - started
            factor = calibration.factor()
            phase.sample(elapsed, factor)
            phase.spend(elapsed, factor)
            phase.ops += 1
            phase.distance += result.distance
            phase.violations += result.violations_before
            problem = self.check(unit, result)
            if problem is not None:
                phase.fail(problem)
        return phase


class ClientBuyBatch(BatchWorkload):
    """Serial modified-greedy in memory, a fresh instance per repair.

    The timed call is the serial reference call itself, so repairs run in
    pairs on twins generated independently from one seed (no cached state
    on tuples or columns is shared): both are timed, and the second must
    match the first.
    """

    def generate(self, seed: int):
        return client_buy_workload(
            self.params["n_clients"],
            inconsistency_ratio=self.params["inconsistency_ratio"],
            seed=seed,
        )

    def prepare(self):
        if self.index % 2:
            return self.twin, None
        started = time.perf_counter()
        if self.index == 0:
            small = client_buy_workload(2_000, seed=self.seed)
            repair_database(small.instance, small.constraints)
        unit_seed = self.seed * 1000 + self.index // 2
        pair: dict = {}
        self.twin = (self.generate(unit_seed), pair)
        return (self.generate(unit_seed), pair), time.perf_counter() - started

    def repair(self, unit):
        workload, _ = unit
        return repair_database(workload.instance, workload.constraints)

    def check(self, unit, result):
        workload, pair = unit
        if not is_consistent(result.repaired, workload.constraints):
            return "repaired instance violates the constraints"
        if "reference" not in pair:
            pair["reference"] = Reference(result.changes, result.cover_weight)
            return None
        return pair["reference"].mismatch(result)


class CensusAuto(BatchWorkload):
    """Layer with ``parallel="auto"``, a fresh instance per repair.

    The serial reference runs on a twin generated independently from the
    same seed, so no cached state on tuples or columns is shared with the
    timed input.
    """

    def generate(self, seed: int):
        return census_workload(
            self.params["n_households"],
            household_size=self.params["household_size"],
            dirty_ratio=self.params["dirty_ratio"],
            seed=seed,
        )

    def prepare(self):
        started = time.perf_counter()
        unit_seed = self.seed * 1000 + self.index
        twin = self.generate(unit_seed)
        reference = Reference.of(twin.instance, twin.constraints, algorithm="layer")
        if self.index == 0:
            self.repair((twin, reference))
        workload = self.generate(unit_seed)
        return (workload, reference), time.perf_counter() - started

    def repair(self, unit):
        workload, _ = unit
        return repair_database(
            workload.instance,
            workload.constraints,
            algorithm="layer",
            parallel="auto",
            max_workers=MAX_WORKERS,
        )

    def check(self, unit, result):
        workload, reference = unit
        if not is_consistent(result.repaired, workload.constraints):
            return "repaired instance violates the constraints"
        return reference.mismatch(result)


def schema_config(schema) -> dict:
    """The config-file form of a schema."""
    return {
        "relations": [
            {
                "name": relation.name,
                "key": list(relation.key),
                "attributes": [
                    {
                        "name": attribute.name,
                        "flexible": attribute.is_flexible,
                        "weight": attribute.weight,
                    }
                    for attribute in relation.attributes
                ],
            }
            for relation in schema
        ]
    }


class TpchSqlite(BatchWorkload):
    """The Figure-1 pipeline over sqlite files.

    A few instances are generated, staged into pristine db files and
    repaired in memory for the reference; timed runs cycle over them,
    each on an untimed fresh copy of the pristine file.
    """

    def __init__(self, seed, params, work_dir: Path) -> None:
        super().__init__(seed, params)
        self.work_dir = work_dir
        self.staged: list = []
        self.live = work_dir / "live.db"

    def _stage(self, k: int) -> dict:
        workload = tpch_like_workload(
            self.params["scale_factor"],
            violation_ratio=self.params["violation_ratio"],
            seed=self.seed * 1000 + k,
        )
        pristine = self.work_dir / f"pristine-{k}.db"
        SqliteBackend.from_instance(workload.instance, str(pristine)).close()
        return {
            "pristine": pristine,
            "schema": workload.schema,
            "constraints": workload.constraints,
            "reference": Reference.of(workload.instance, workload.constraints),
            "config": {
                "schema": schema_config(workload.schema),
                "constraints": [
                    line.strip() for line in TPCH_CONSTRAINTS.splitlines() if line.strip()
                ],
                "source": {"backend": "sqlite", "path": str(self.live)},
                "export": {"mode": "update"},
            },
        }

    def prepare(self):
        k = self.index % self.params["instances"]
        setup_seconds = None
        if k == len(self.staged):
            started = time.perf_counter()
            unit = self._stage(k)
            if k == 0:
                shutil.copyfile(unit["pristine"], self.live)
                self.repair(unit)
            self.staged.append(unit)
            setup_seconds = time.perf_counter() - started
        unit = self.staged[k]
        shutil.copyfile(unit["pristine"], self.live)
        return unit, setup_seconds

    def repair(self, unit):
        program = RepairProgram(RepairConfig.from_dict(unit["config"]))
        try:
            return program.run().result
        finally:
            program.backend.close()

    def check(self, unit, result):
        if not is_consistent(result.repaired, unit["constraints"]):
            return "repaired instance violates the constraints"
        problem = unit["reference"].mismatch(result)
        if problem is not None:
            return problem
        return self._export_mismatch(unit["schema"], result.changes)

    def _export_mismatch(self, schema, changes) -> "str | None":
        """Read every repaired cell back from the exported db file."""
        connection = sqlite3.connect(self.live)
        try:
            for change in changes:
                relation = schema.relation(change.ref.relation_name)
                where = " AND ".join(f"{k} = ?" for k in relation.key)
                row = connection.execute(
                    f"SELECT {change.attribute} FROM {relation.name} WHERE {where}",
                    change.ref.key_values,
                ).fetchone()
                if row is None or row[0] != change.new_value:
                    return f"export did not write {change}"
        finally:
            connection.close()
        return None


# -- streaming ---------------------------------------------------------------


def update_stream(instance, seed: int, count: int) -> list:
    """A seeded stream of ``(relation, key, changes)`` updates, half dirty.

    Every dirty value violates a single-tuple constraint whose minimal fix
    does not depend on any other tuple, and each orderkey gets at most one
    out-of-range quantity (so the tq6 self-join never fires).  Under those
    rules commit-round boundaries cannot change the final repair, which is
    what lets the check compare the stream against one cold repair.
    """
    rng = random.Random(seed)
    lineitems = sorted(t.key for t in instance.tuples("Lineitem"))
    customers = sorted(t.key for t in instance.tuples("Customer"))
    first_lines: dict = {}
    for key in lineitems:
        first_lines.setdefault(key[0], key)
    quantity_keys = sorted(first_lines.values())
    rng.shuffle(quantity_keys)
    ops = []
    for _ in range(count):
        draw = rng.random()
        if draw >= 0.5:
            price = rng.randint(100, 99_999)
            ops.append(("Lineitem", rng.choice(lineitems), {"extendedprice": price}))
        elif draw < 0.125 and quantity_keys:
            ops.append(("Lineitem", quantity_keys.pop(), {"quantity": rng.randint(51, 80)}))
        elif draw < 0.25:
            ops.append(("Lineitem", rng.choice(lineitems), {"discount": rng.randint(11, 25)}))
        elif draw < 0.375:
            ops.append(("Lineitem", rng.choice(lineitems), {"shipdelay": rng.randint(121, 200)}))
        else:
            ops.append(("Customer", rng.choice(customers), {"acctbal": -rng.randint(1, 50)}))
    return ops


#: Where the minimal fix puts each dirty value :func:`update_stream` writes:
#: tq1-tq3 cap quantity, discount and shipdelay, tq4 floors acctbal at 0.
_STREAM_FIXES = {
    "quantity": lambda value: min(value, 50),
    "discount": lambda value: min(value, 10),
    "shipdelay": lambda value: min(value, 120),
    "acctbal": lambda value: max(value, 0),
}


def _fixed(attribute: str, value: int) -> int:
    fix = _STREAM_FIXES.get(attribute)
    return value if fix is None else fix(value)


class TpchStream:
    """``StreamingRepairer`` over a consistent TPC-H-like base.

    A run is a series of segments over one base, each a fresh streamer fed
    its own update stream for up to a fixed number of commit rounds (the
    last one stops at the first round after the run's time is spent).
    Building the streamer and its warm-up rounds is the set-up measured
    each time; the bounded length keeps memory (the streamer keeps every
    round's changes) a function of the work and not of how fast it went.
    """

    def __init__(self, seed, params) -> None:
        self.seed = seed
        self.params = params
        self.segment = 0
        self.base = None

    def measure(self, seconds: float, timer: layers.LayerTimer) -> Phase:
        phase = Phase()
        if self.base is None:
            calibration = Calibration()
            started = time.perf_counter()
            self.base = tpch_like_workload(self.params["scale_factor"], seed=self.seed * 1000)
            phase.setups.append((time.perf_counter() - started) * calibration.factor())
        enqueue: list = []
        submitted = coalesced = 0
        while phase.raw_wall < seconds:
            stats = self._segment(seconds, timer, phase, enqueue)
            submitted += stats.total_submitted
            coalesced += stats.coalesced
        phase.layer = {
            "repair.stream_enqueue_s": statistics.fmean(enqueue) if enqueue else 0.0,
            "repair.stream_rounds": len(phase.latencies),
            "repair.stream_coalesced_ratio": coalesced / submitted if submitted else 0.0,
        }
        return phase

    def _segment(self, seconds, timer, phase, enqueue):
        calibration = Calibration()
        started = time.perf_counter()
        segment_seed = self.seed * 1000 + self.segment
        self.segment += 1
        warm = COMMIT_INTERVAL * self.params["warmup_rounds"]
        timed = COMMIT_INTERVAL * self.params["rounds_per_segment"]
        ops = update_stream(self.base.instance, segment_seed, warm + timed)
        streamer = StreamingRepairer(
            self.base.instance,
            self.base.constraints,
            commit_interval=COMMIT_INTERVAL,
            max_pending=None,
        )
        for relation, key, changes in ops[:warm]:
            streamer.update(relation, key, changes)
        gc.collect()
        setup_seconds = time.perf_counter() - started
        phase.setups.append(setup_seconds * calibration.factor())

        rounds = streamer.stats.rounds
        window = {"rounds": [], "enqueue": [], "spent": 0.0}

        def close_window() -> None:
            factor = calibration.factor()
            for wall in window["rounds"]:
                phase.sample(wall, factor)
            enqueue.extend(wall * factor for wall in window["enqueue"])
            phase.spend(window["spent"], factor)
            window.update(rounds=[], enqueue=[], spent=0.0)

        consumed = warm
        try:
            with timer.recording():
                for relation, key, changes in ops[warm:]:
                    before = time.perf_counter()
                    streamer.update(relation, key, changes)
                    elapsed = time.perf_counter() - before
                    consumed += 1
                    window["spent"] += elapsed
                    if streamer.stats.rounds == rounds:
                        window["enqueue"].append(elapsed)
                        continue
                    rounds = streamer.stats.rounds
                    window["rounds"].append(elapsed)
                    phase.distance += streamer.last_result.distance
                    phase.violations += streamer.last_result.violations_before
                    if window["spent"] >= STREAM_WINDOW_S:
                        close_window()
                        if phase.raw_wall >= seconds:
                            break
            if window["spent"]:
                close_window()
        except ReproError as error:
            phase.attempted += consumed - warm
            phase.fail(f"{type(error).__name__}: {error}", consumed - warm)
            return streamer.stats
        phase.attempted += consumed - warm
        phase.ops += consumed - warm
        problem = self._check(ops[:consumed], streamer.instance)
        if problem is not None:
            phase.fail(problem, consumed - warm)
        return streamer.stats

    def _check(self, ops, final) -> "str | None":
        """Every update must end at its minimal fix, and D' |= IC.

        A cold serial repair of the same updates ends at the same instance
        (each violation is one tuple's, fixed on its own), but costs more
        than the timed loop; the closed-form fixes are independent of the
        program and cost one pass over the updates.
        """
        if not is_consistent(final, self.base.constraints):
            return "streamed instance violates the constraints"
        fixed = [
            (relation, key, {name: _fixed(name, value) for name, value in changes.items()})
            for relation, key, changes in ops
        ]
        if final != _edited(self.base.instance, fixed):
            return "streamed instance differs from the minimal fixes of its updates"
        return None


# -- service -----------------------------------------------------------------


class ServiceMix:
    """``RepairService`` with two closed-loop clients, in fixed-size sessions.

    Each session has its own base instance.  Even-numbered jobs resubmit
    the base (plan and violations hit the artifact cache); odd-numbered
    jobs submit a copy of it with a few seeded cell edits, each used once
    (plan hits, violations miss).  The service keeps every job it ran, so
    its memory grows with the jobs served: each session is a fresh
    service running a fixed number of jobs, which keeps peak RSS a
    function of the work and not of how fast it went.
    """

    def __init__(self, seed, params) -> None:
        self.seed = seed
        self.params = params
        self.session = 0

    def measure(self, seconds: float, timer: layers.LayerTimer) -> Phase:
        phase = Phase()
        stats = {"waits": [], "runs": [], "hits": 0.0, "misses": 0.0, "retries": 0}
        while phase.raw_wall < seconds:
            inputs = self._prepare(phase)
            asyncio.run(self._serve(*inputs, timer, phase, stats))
        lookups = stats["hits"] + stats["misses"]
        phase.layer = {
            "service.queue_wait_p50_s": statistics.median(stats["waits"]),
            "service.run_p50_s": statistics.median(stats["runs"]),
            "service.cache_hit_ratio": stats["hits"] / lookups if lookups else 0.0,
            "service.retries": stats["retries"],
            "queue_wait_mean_s": statistics.fmean(stats["waits"]),
        }
        return phase

    def _generate(self, seed):
        return tpch_like_workload(
            self.params["scale_factor"],
            violation_ratio=self.params["violation_ratio"],
            seed=seed,
        )

    def _prepare(self, phase: Phase):
        """Base and edited copies for one service run, each with its reference."""
        calibration = Calibration()
        session_seed = self.seed * 1000 + self.session
        self.session += 1
        walls = []
        started = time.perf_counter()
        workload = self._generate(session_seed)
        twin = self._generate(session_seed).instance
        constraints = workload.constraints
        base = (workload.instance, Reference.of(twin, constraints))
        walls.append(time.perf_counter() - started)

        rng = random.Random(session_seed)
        lineitems = sorted(t.key for t in workload.instance.tuples("Lineitem"))
        customers = sorted(t.key for t in workload.instance.tuples("Customer"))
        copies = []
        for _ in range(self.params["jobs_per_session"] // 2 + 1):
            started = time.perf_counter()
            edits = [_service_edit(rng, lineitems, customers) for _ in range(EDITS_PER_COPY)]
            copies.append(
                (
                    _edited(workload.instance, edits),
                    Reference.of(_edited(twin, edits), constraints),
                )
            )
            walls.append(time.perf_counter() - started)
        factor = calibration.factor()
        phase.setups.extend(wall * factor for wall in walls)
        return constraints, base, copies

    async def _serve(self, constraints, base, copies, timer, phase, stats) -> None:
        jobs = self.params["jobs_per_session"]
        records: list = []
        async with RepairService(workers=MAX_WORKERS) as service:
            # Untimed warm-up: compiles the plan, caches the base violations.
            for instance, _ in (base, copies.pop()):
                view = await service.submit(instance, constraints)
                await service.result(view.id)
            cache_before = service.cache.stats()
            counter = itertools.count()

            async def client() -> None:
                while (n := next(counter)) < jobs:
                    instance, reference = base if n % 2 == 0 else copies[n // 2]
                    before = time.perf_counter()
                    view = await service.submit(instance, constraints)
                    try:
                        result = await service.result(view.id)
                    except ReproError as error:
                        records.append((view.id, None, str(error)))
                        continue
                    elapsed = time.perf_counter() - before
                    # Keep only what the metrics need: results hold instances.
                    outcome = (elapsed, result.distance, result.violations_before)
                    records.append((view.id, outcome, reference.mismatch(result)))

            calibration = Calibration()
            started = time.perf_counter()
            with timer.recording():
                await asyncio.gather(*(client() for _ in range(SERVICE_CLIENTS)))
            wall = time.perf_counter() - started
            factor = calibration.factor()
            phase.spend(wall, factor)
            views = {view.id: view for view in service.jobs()}
            cache_after = service.cache.stats()

        stats["hits"] += cache_after["hits"] - cache_before["hits"]
        stats["misses"] += cache_after["misses"] - cache_before["misses"]
        for job_id, outcome, problem in records:
            phase.attempted += 1
            view = views[job_id]
            stats["retries"] += view.attempts - 1
            if problem is not None:
                phase.fail(f"job {job_id}: {problem}")
            if outcome is None:
                continue
            elapsed, distance, violations = outcome
            phase.sample(elapsed, factor)
            phase.ops += 1
            phase.distance += distance
            phase.violations += violations
            stats["waits"].append((view.started_at - view.submitted_at) * factor)
            stats["runs"].append((view.finished_at - view.started_at) * factor)


def _service_edit(rng, lineitems, customers):
    kind = rng.randrange(3)
    if kind == 0:
        return "Lineitem", rng.choice(lineitems), {"quantity": rng.randint(46, 80)}
    if kind == 1:
        return "Lineitem", rng.choice(lineitems), {"discount": rng.randint(11, 25)}
    return "Customer", rng.choice(customers), {"acctbal": -rng.randint(1, 50)}


# -- metrics -----------------------------------------------------------------


def end_to_end_metrics(phase: Phase) -> dict:
    values = {
        "setup_s": statistics.median(phase.setups),
        "repair_p50_s": statistics.median(phase.latencies),
        "ops_per_s": phase.ops / phase.wall,
        "distance_per_violation": phase.distance / phase.violations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def layer_metrics(untraced: Phase, traced: Phase, timer: layers.LayerTimer) -> dict:
    units = len(traced.latencies)
    # Layer walls are raw; scale them like the phase they were taken in.
    factor = traced.wall / traced.raw_wall
    metrics = {}
    for layer in layers.STAGES:
        metrics[f"{layer}_s"] = (timer.seconds[layer] * factor / units, "s")
    for name in (
        "storage.rows_written",
        "violations.sets",
        "repair.candidate_sets",
        "repair.incidence",
        "setcover.selected",
        "setcover.components",
        "repair.changes",
    ):
        metrics[name] = (timer.counts[name] / units, "count")
    metrics["runtime.workers"] = (timer.workers, "count")
    extra = {
        "repair.stream_enqueue_s": 0.0,
        "repair.stream_rounds": 0,
        "repair.stream_coalesced_ratio": 0.0,
        "service.queue_wait_p50_s": 0.0,
        "service.run_p50_s": 0.0,
        "service.cache_hit_ratio": 0.0,
        "service.retries": 0,
        **traced.layer,
    }
    queue_wait = extra.pop("queue_wait_mean_s", 0.0)
    for name, value in extra.items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    stage_sum = sum(metrics[f"{layer}_s"][0] for layer in layers.STAGES) + queue_wait
    metrics["obs.trace_overhead_ratio"] = (
        statistics.median(traced.latencies) / statistics.median(untraced.latencies) - 1,
        "ratio",
    )
    metrics["obs.stage_gap_ratio"] = (
        stage_sum / statistics.fmean(untraced.latencies) - 1,
        "ratio",
    )
    return metrics


def info(phase: Phase, attempted: int, failed: int) -> dict:
    """Reported beside the metrics, not gated: tail, raw walls, failures."""
    return {
        "units": len(phase.latencies),
        "repair_p95_s": statistics.quantiles(phase.latencies, n=20, method="inclusive")[18],
        "raw_repair_p50_s": statistics.median(phase.raw_latencies),
        "raw_ops_per_s": phase.ops / phase.raw_wall,
        "calibration_factor": phase.wall / phase.raw_wall,
        "fail_ratio": failed / attempted,
    }


def build(name: str, seed: int, params: dict, work_dir: Path):
    if name == "clientbuy-batch":
        return ClientBuyBatch(seed, params)
    if name == "census-auto":
        return CensusAuto(seed, params)
    if name == "tpch-sqlite":
        return TpchSqlite(seed, params, work_dir)
    if name == "tpch-stream":
        return TpchStream(seed, params)
    if name == "service-mix":
        return ServiceMix(seed, params)
    raise SystemExit(f"unknown workload {name!r}")


def run(name: str, seed: int, seconds: float, trace: bool, size: str, work_dir: Path) -> dict:
    workload = build(name, seed, SIZES[size][name], work_dir)
    timer = layers.LayerTimer()
    if trace:
        untraced = workload.measure(seconds / 2, timer)
        with layers.installed(timer):
            traced = workload.measure(seconds / 2, timer)
        phases = (untraced, traced)
    else:
        untraced = workload.measure(seconds, timer)
        phases = (untraced,)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    if not all(phase.latencies for phase in phases):
        raise SystemExit(f"{name}: no repair succeeded ({failed} of {attempted} failed)")
    metrics = (
        layer_metrics(untraced, traced, timer) if trace else end_to_end_metrics(untraced)
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()
        },
        "info": info(untraced, attempted, failed),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()
    try:
        result = run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size, args.work_dir
        )
    except ReproError as error:
        # Set-up repairs run outside the checked loops; report, don't trace back.
        raise SystemExit(f"{args.workload}: {type(error).__name__}: {error}") from None
    print(json.dumps(result))


if __name__ == "__main__":
    main()
