"""Per-layer timing measured from outside the program.

The traced run wraps the public functions through which the pipeline
enters each layer, at the call sites the pipeline uses, and adds up the
wall time and the work counts of every call made while recording is on.
Nothing under ``src/`` changes, and a wrapper only observes: it passes
arguments and results through untouched, so traced repairs stay
byte-identical to untraced ones (each traced repair is checked against
its untraced reference like any other).

Only call sites are patched, never the module that defines a function:
process-pool workers pickle solver functions by their defining module's
name, and a wrapper there would no longer pickle.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

DETECT = "violations.detect"
VERIFY = "violations.verify"
REDUCE = "repair.reduce"
SOLVE = "setcover.solve"
APPLY = "repair.apply"
LOAD = "storage.load"
EXPORT = "storage.export"
DIGEST = "service.digest"
CACHE = "service.cache"
REPLAY = "repair.stream_replay"

#: Layers whose times make up one unit of repair work, in pipeline order.
STAGES = (LOAD, DIGEST, CACHE, REPLAY, DETECT, REDUCE, SOLVE, APPLY, VERIFY, EXPORT)

#: (module, attribute, layer): where the pipeline calls into each layer.
#: ``get_solver`` is special-cased: the solver it returns is what runs.
CALL_SITES = (
    ("repro.repair.engine", "find_all_violations", DETECT),
    ("repro.repair.engine", "is_consistent", VERIFY),
    ("repro.repair.engine", "build_repair_problem", REDUCE),
    ("repro.repair.engine", "get_solver", SOLVE),
    ("repro.repair.engine", "solve_by_components", SOLVE),
    ("repro.repair.engine", "apply_cover", APPLY),
    ("repro.repair.incremental", "find_violations_involving", DETECT),
    ("repro.repair.incremental", "find_all_violations", VERIFY),
    ("repro.repair.incremental", "is_consistent", VERIFY),
    ("repro.repair.incremental", "build_repair_problem", REDUCE),
    ("repro.repair.incremental", "get_solver", SOLVE),
    ("repro.repair.incremental", "solve_by_components", SOLVE),
    ("repro.repair.incremental", "apply_cover", APPLY),
    ("repro.plan.runtime", "planned_find_all_violations", DETECT),
    ("repro.storage.sqlite", "SqliteBackend.load_instance", LOAD),
    ("repro.storage.sqlite", "SqliteBackend.export_repair", EXPORT),
    ("repro.service.runtime", "instance_digest", DIGEST),
    ("repro.service.cache", "ArtifactCache.get", CACHE),
    ("repro.service.cache", "ArtifactCache.put", CACHE),
    ("repro.repair.incremental", "IncrementalRepairer.insert", REPLAY),
    ("repro.repair.incremental", "IncrementalRepairer.update", REPLAY),
    ("repro.repair.incremental", "IncrementalRepairer.delete", REPLAY),
)

#: Per-layer metric -> (end-to-end metric it should move, workload where
#: it should move it).  Every other workload predicts no change.
LAYER_MAP = {
    "storage.load_s": ("repair_p50_s", "tpch-sqlite"),
    "storage.export_s": ("repair_p50_s", "tpch-sqlite"),
    "storage.rows_written": ("repair_p50_s", "tpch-sqlite"),
    "violations.detect_s": ("repair_p50_s", "tpch-sqlite, tpch-stream"),
    "violations.sets": ("repair_p50_s", "tpch-sqlite, tpch-stream"),
    "violations.verify_s": ("repair_p50_s", "tpch-sqlite"),
    "repair.reduce_s": ("repair_p50_s", "clientbuy-batch"),
    "repair.candidate_sets": ("repair_p50_s", "clientbuy-batch"),
    "repair.incidence": ("repair_p50_s", "clientbuy-batch"),
    "setcover.solve_s": ("repair_p50_s", "census-auto"),
    "setcover.selected": ("repair_p50_s", "census-auto"),
    "setcover.components": ("repair_p50_s", "census-auto"),
    "runtime.workers": ("repair_p50_s", "census-auto"),
    "repair.apply_s": ("repair_p50_s", "clientbuy-batch, census-auto"),
    "repair.changes": ("repair_p50_s", "clientbuy-batch, census-auto"),
    "repair.stream_enqueue_s": ("ops_per_s", "tpch-stream"),
    "repair.stream_replay_s": ("repair_p50_s, ops_per_s", "tpch-stream"),
    "repair.stream_rounds": ("ops_per_s", "tpch-stream"),
    "repair.stream_coalesced_ratio": ("ops_per_s", "tpch-stream"),
    "service.digest_s": ("repair_p50_s, ops_per_s", "service-mix"),
    "service.cache_s": ("repair_p50_s, ops_per_s", "service-mix"),
    "service.queue_wait_p50_s": ("repair_p50_s, ops_per_s", "service-mix"),
    "service.run_p50_s": ("repair_p50_s, ops_per_s", "service-mix"),
    "service.cache_hit_ratio": ("repair_p50_s, ops_per_s", "service-mix"),
    "service.retries": ("repair_p50_s, ops_per_s", "service-mix"),
    "obs.trace_overhead_ratio": ("all", "every workload"),
    "obs.stage_gap_ratio": ("all", "every workload"),
}


class LayerTimer:
    """Thread-safe totals of layer wall time and work counts.

    Calls are recorded only inside :meth:`recording`, so set-up work and
    correctness checks that reach the same functions are not counted.
    """

    def __init__(self) -> None:
        self.seconds: "defaultdict[str, float]" = defaultdict(float)
        self.counts: "defaultdict[str, int]" = defaultdict(int)
        self.workers = 1
        self.enabled = False
        self._lock = threading.Lock()

    @contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def add(self, layer: str, seconds: float, result, args, kwargs) -> None:
        counts = _work_counts(layer, result, args, kwargs)
        with self._lock:
            self.seconds[layer] += seconds
            for name, value in counts.items():
                self.counts[name] += value
            executor = kwargs.get("executor")
            if layer == SOLVE and executor is not None and executor.is_parallel:
                self.workers = max(self.workers, executor.workers)

    def timed(self, layer: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            started = time.perf_counter()
            result = function(*args, **kwargs)
            self.add(layer, time.perf_counter() - started, result, args, kwargs)
            return result

        return wrapper

    def timed_solver_lookup(self, get_solver):
        @functools.wraps(get_solver)
        def wrapper(*args, **kwargs):
            return self.timed(SOLVE, get_solver(*args, **kwargs))

        return wrapper


def _work_counts(layer: str, result, args, kwargs) -> "dict[str, int]":
    """Work done by one call, read off its arguments and result."""
    if layer == DETECT:
        return {"violations.sets": len(result)}
    if layer == REDUCE:
        return {"repair.candidate_sets": len(result.setcover.sets)}
    if layer == SOLVE:
        return {
            "setcover.selected": len(result.selected),
            "setcover.components": int(result.stats.get("components", 1)),
            "repair.incidence": int(result.stats.get("incidence", 0)),
        }
    if layer == APPLY:
        return {"repair.changes": len(result[1])}
    if layer == EXPORT:
        # One UPDATE per changed cell in the in-place export mode.
        return {"storage.rows_written": len(args[1].changes)}
    return {}


@contextmanager
def installed(timer: LayerTimer):
    """Patch every call site in :data:`CALL_SITES`; restore them on exit."""
    originals = []
    try:
        for module_name, attribute, layer in CALL_SITES:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            function = getattr(owner, name)
            originals.append((owner, name, function))
            if name == "get_solver":
                setattr(owner, name, timer.timed_solver_lookup(function))
            else:
                setattr(owner, name, timer.timed(layer, function))
        yield
    finally:
        for owner, name, function in reversed(originals):
            setattr(owner, name, function)
