"""Parallel-execution runtime for the repair pipeline.

The pipeline's two hot stages fan out over independent work items —
violation detection over constraints, set-cover solving over connected
components — and this package provides the shared machinery: an
:class:`Executor` with ``serial`` / ``process`` / ``auto`` backends,
:class:`ExecutionPolicy` for configuring it, LPT :func:`balanced_chunks`
batching, and the picklable worker functions the process backend runs.

Every backend preserves input order and produces byte-identical results;
see DESIGN.md ("Parallel runtime") for backend selection guidance.
"""

from repro.runtime.executor import (
    BACKENDS,
    ExecutionPolicy,
    Executor,
    as_executor,
    balanced_chunks,
)

__all__ = [
    "BACKENDS",
    "ExecutionPolicy",
    "Executor",
    "as_executor",
    "balanced_chunks",
]
