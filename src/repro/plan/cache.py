"""On-disk plan cache keyed by content fingerprint + engine availability.

Cache layout: one JSON artifact per ``(fingerprint, availability)``
pair, named ``<fingerprint>-<availability_signature>.json`` under the
cache directory.  The directory resolves, in order, from the explicit
argument, the ``REPRO_PLAN_CACHE`` environment variable,
``$XDG_CACHE_HOME/repro/plans``, and ``~/.cache/repro/plans``.

Hits and misses surface as :mod:`repro.obs` counters (``plan_cache_hits``
/ ``plan_cache_misses`` / ``plan_cache_stale``) - by default on the
active tracer's metrics registry (with tracing off the null registry
swallows them at zero cost); a long-lived owner like the
:mod:`repro.service` job runtime can instead pass its own
:class:`~repro.obs.metrics.MetricsRegistry` at construction so counters
accumulate across jobs rather than per traced run.  A cached file whose
embedded fingerprint disagrees
with the requested one (hand-edited, corrupted, truncated) counts as
*stale* (``LINT062``) and is treated as a miss - it is never applied.
"""

from __future__ import annotations

import os
from pathlib import Path

from typing import Sequence

from repro.constraints.denial import DenialConstraint
from repro.exceptions import PlanError
from repro.model.schema import Schema
from repro.obs import current_tracer
from repro.obs.metrics import MetricsRegistry
from repro.plan.compiler import compile_program, default_availability
from repro.plan.program import (
    CompiledProgram,
    availability_signature,
    program_fingerprint,
)


def default_cache_dir() -> Path:
    """The plan-cache directory the environment resolves to."""
    override = os.environ.get("REPRO_PLAN_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "plans"


class PlanCache:
    """A small content-addressed store of compiled plans.

    ``metrics`` fixes the registry the hit/miss/stale counters land in;
    by default each lookup reports to whatever tracer is active at call
    time.
    """

    def __init__(
        self,
        directory: "str | os.PathLike[str] | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_cache_dir()
        )
        self._metrics = metrics

    @property
    def metrics(self) -> "MetricsRegistry":
        """The registry lookups report to (owned or the active tracer's)."""
        if self._metrics is not None:
            return self._metrics
        return current_tracer().metrics

    def path_for(self, fingerprint: str, availability_sig: str) -> Path:
        """Where the artifact for one cache key lives."""
        return self.directory / f"{fingerprint}-{availability_sig}.json"

    def load(
        self,
        schema: Schema,
        constraints: Sequence[DenialConstraint],
    ) -> CompiledProgram | None:
        """A cached plan for the live inputs, or ``None`` on a miss."""
        metrics = self.metrics
        availability = default_availability()
        fingerprint = program_fingerprint(schema, tuple(constraints))
        path = self.path_for(fingerprint, availability_signature(availability))
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            metrics.counter("plan_cache_misses").inc()
            return None
        try:
            program = CompiledProgram.from_json(text)
        except PlanError:
            metrics.counter("plan_cache_stale").inc()
            metrics.counter("plan_cache_misses").inc()
            return None
        if program.fingerprint != fingerprint:
            # LINT062: the file content no longer matches its key.
            metrics.counter("plan_cache_stale").inc()
            metrics.counter("plan_cache_misses").inc()
            return None
        metrics.counter("plan_cache_hits").inc()
        return program

    def store(self, program: CompiledProgram) -> Path:
        """Persist a compiled plan; atomic within the cache directory."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(
            program.fingerprint, program.availability_signature
        )
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(program.to_json(), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def get_or_compile(
        self,
        schema: Schema,
        constraints: Sequence[DenialConstraint],
        *,
        strict: bool = False,
    ) -> "tuple[CompiledProgram, bool]":
        """``(program, hit)``: load from cache or compile and store.

        Strict compilation failures propagate as
        :class:`~repro.exceptions.PlanError` and nothing is stored; a
        cached (necessarily non-strict-validated) plan is re-checked
        against the strict gate so ``strict=True`` callers never
        receive a plan a strict compile would have refused.
        """
        cached = self.load(schema, constraints)
        if cached is not None:
            executed = {e.label for e in cached.executed_entries}
            conditional = [
                d
                for d in cached.lint.by_code("LINT050")
                if d.constraint in executed
            ]
            if strict and conditional:
                compile_program(
                    schema, constraints, strict=True
                )  # raises PlanError with the structured diagnostics
            return cached, True
        program = compile_program(schema, constraints, strict=strict)
        self.store(program)
        return program, False
