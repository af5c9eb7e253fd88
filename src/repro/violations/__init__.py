"""Violation-set detection and inconsistency measures (Definition 2.4)."""

from repro.violations.detector import (
    ViolationSet,
    engine_chain,
    find_all_violations,
    find_violations,
    find_violations_involving,
    is_consistent,
    resolve_engine,
    violations_of_tuple,
)
from repro.violations.degree import (
    InconsistencyProfile,
    degree_of_database,
    degree_of_tuple,
    inconsistency_profile,
)
from repro.violations.kernels import ENGINES, kernel_witnesses
from repro.violations.pushdown import (
    bind_backend,
    bound_backend,
    pushdown_ready,
    pushdown_requirements,
    unbind_backend,
)

__all__ = [
    "ENGINES",
    "bind_backend",
    "bound_backend",
    "kernel_witnesses",
    "pushdown_ready",
    "pushdown_requirements",
    "resolve_engine",
    "unbind_backend",
    "ViolationSet",
    "engine_chain",
    "find_all_violations",
    "find_violations",
    "find_violations_involving",
    "is_consistent",
    "violations_of_tuple",
    "InconsistencyProfile",
    "degree_of_database",
    "degree_of_tuple",
    "inconsistency_profile",
]
