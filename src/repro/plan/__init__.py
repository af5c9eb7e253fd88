"""Static constraint-program compilation (``repro compile``).

A compiler from ``(schema, constraint set, engine availability)`` to a
serializable, content-fingerprinted
:class:`~repro.plan.program.CompiledProgram`: the paper's static
properties (locality, the max-frequency bound ``f``, tractable engine
classes) are all derivable before any data loads, so they are derived
*once* and the runtime executes from the artifact -
``repair_database(plan=...)``,
:class:`~repro.repair.incremental.IncrementalRepairer` and
:class:`~repro.repair.streaming.StreamingRepairer` skip per-call
re-analysis, and an on-disk cache (:class:`~repro.plan.cache.PlanCache`)
makes the artifact durable across processes.

Hard contract: planned and unplanned runs produce **byte-identical**
repairs (property-tested across detection engines and solvers), and a plan
whose fingerprint no longer matches the live inputs is refused with
:class:`~repro.exceptions.StalePlanError` - never silently applied.
"""

from repro.exceptions import PlanError, StalePlanError
from repro.plan.cache import PlanCache, default_cache_dir
from repro.plan.compiler import compile_program, default_availability
from repro.plan.explain import render_plan_text
from repro.plan.program import (
    DOWNGRADED,
    ELIMINATED,
    PLAN_FORMAT_VERSION,
    STALE,
    CompiledProgram,
    EnginePlan,
    SolverPlan,
    program_fingerprint,
)
from repro.plan.runtime import planned_find_all_violations

__all__ = [
    "DOWNGRADED",
    "ELIMINATED",
    "PLAN_FORMAT_VERSION",
    "STALE",
    "CompiledProgram",
    "EnginePlan",
    "PlanCache",
    "PlanError",
    "SolverPlan",
    "StalePlanError",
    "compile_program",
    "default_availability",
    "default_cache_dir",
    "planned_find_all_violations",
    "program_fingerprint",
    "render_plan_text",
]
