"""The end-to-end repair program (the architecture of Figure 1).

``RepairProgram`` wires the boxes of the paper's Figure 1 together:

1. the *configuration parser* (:class:`RepairConfig`) has already read the
   schema, constraints, flexible attributes, and export mode;
2. the *database connectivity* component opens the configured backend;
3. the *mapping component* loads the data into main memory and builds the
   MWSCP instance (Definition 3.1);
4. the *MWSCP solver* runs the configured approximation algorithm;
5. the mapping component reconstructs the repair and the chosen *export
   mode* persists it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cardinality.engine import DeletionRepairResult, cardinality_repair
from repro.exceptions import ConfigError, LintError
from repro.model.instance import DatabaseInstance
from repro.obs import write_trace
from repro.repair.engine import repair_database
from repro.repair.result import RepairResult
from repro.storage.base import Backend
from repro.storage.csvdir import CsvBackend
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite import SqliteBackend
from repro.system.config import RepairConfig


@dataclass(frozen=True)
class ProgramReport:
    """What one run of the repair program did.

    ``result`` is always the attribute-update result (for deletion-based
    semantics, the inner result over ``D#``); ``deletion`` carries the
    projected tuple-deletion outcome when ``repair_semantics`` was
    ``delete`` or ``mixed``.
    """

    config: RepairConfig
    result: RepairResult
    export_note: str
    deletion: DeletionRepairResult | None = None
    trace: Any = None
    trace_note: str | None = None
    streaming_note: str | None = None
    plan_note: str | None = None

    def summary(self) -> str:
        """Human-readable run report."""
        lines = [self.result.summary()]
        if self.deletion is not None:
            lines.append(f"semantics        : {self.config.repair_semantics}")
            lines.append(f"tuples deleted   : {self.deletion.deletions}")
        if self.streaming_note is not None:
            lines.append(f"streaming        : {self.streaming_note}")
        if self.plan_note is not None:
            lines.append(f"plan             : {self.plan_note}")
        lines.append(f"export           : {self.export_note}")
        if self.trace_note is not None:
            lines.append(f"trace            : {self.trace_note}")
        return "\n".join(lines)


class RepairProgram:
    """One configured instance of the repair system."""

    def __init__(self, config: RepairConfig, backend: Backend | None = None) -> None:
        self.config = config
        self.backend = backend if backend is not None else self._open_backend()

    def _open_backend(self) -> Backend:
        source = self.config.source
        if source["backend"] == "sqlite":
            return SqliteBackend(source["path"])
        if source["backend"] == "duckdb":
            from repro.storage.duckdb import DuckDBBackend

            return DuckDBBackend(source["path"])
        if source["backend"] == "csv":
            return CsvBackend(source["directory"])
        rows = source.get("rows", {})
        if not isinstance(rows, dict):
            raise ConfigError("memory source 'rows' must be an object")
        normalized = {
            name: [tuple(row) for row in relation_rows]
            for name, relation_rows in rows.items()
        }
        return MemoryBackend.from_rows(self.config.schema, normalized)

    def load(self) -> DatabaseInstance:
        """Database-connectivity step: pull the instance into memory."""
        return self.backend.load_instance(self.config.schema)

    def preflight(self) -> None:
        """Run the static constraint linter before touching any data.

        Raises :class:`~repro.exceptions.LintError` (with the full
        :class:`~repro.lint.diagnostics.LintReport` attached as
        ``report``) when diagnostics at or above the configured
        ``lint.fail_on`` severity exist.
        """
        from repro.lint.analyzer import lint_constraints

        report = lint_constraints(self.config.schema, self.config.constraints)
        if report.gated(self.config.lint_fail_on):
            worst = report.max_severity
            raise LintError(
                f"constraint lint preflight failed: {len(report)} "
                f"diagnostic(s), worst severity "
                f"{worst.value if worst else 'none'} "
                f"(gate: {self.config.lint_fail_on})",
                report=report,
            )

    def compile_plan(self) -> "tuple[Any, str] | tuple[None, None]":
        """Compile (or cache-load) the static plan the ``plan`` block asks for.

        Returns ``(plan, note)``; ``(None, None)`` when plan compilation
        is disabled or does not apply (deletion-based semantics rewrite
        the constraint set per run, so a precompiled artifact of the
        configured constraints would never match).  Strict-compilation
        failures propagate as :class:`~repro.exceptions.PlanError`.
        """
        if not self.config.plan_enabled:
            return None, None
        if self.config.repair_semantics in ("delete", "mixed"):
            return None, None
        from repro.plan import PlanCache

        cache = PlanCache(self.config.plan_cache_dir)
        program, hit = cache.get_or_compile(
            self.config.schema,
            self.config.constraints,
            strict=self.config.plan_strict,
        )
        note = (
            f"{program.fingerprint[:12]} "
            f"({'cache hit' if hit else 'compiled'}, "
            f"{len(program.executed_entries)} executed, "
            f"{len(program.skipped_entries)} eliminated)"
        )
        return program, note

    def run(self, export: bool = True) -> ProgramReport:
        """Execute the full pipeline; ``export=False`` is a dry run."""
        if self.config.lint_preflight:
            self.preflight()
        plan, plan_note = self.compile_plan()
        instance = self.load()
        if self.config.repair_semantics in ("delete", "mixed"):
            return self._run_deletion(instance, export)
        if self.config.streaming_enabled:
            return self._run_streaming(instance, export, plan, plan_note)

        result = repair_database(
            instance,
            self.config.constraints,
            algorithm=self.config.algorithm,
            metric=self.config.metric,
            parallel=self.config.runtime_backend,
            engine=self.config.detection_engine,
            trace=self.config.trace_enabled,
            plan=plan,
        )
        if export:
            note = self.backend.export_repair(
                result, self.config.export_mode, self.config.export_destination
            )
        else:
            note = "dry run (no export)"
        trace, trace_note = self._emit_trace(result.trace)
        return ProgramReport(
            config=self.config,
            result=result,
            export_note=note,
            trace=trace,
            trace_note=trace_note,
            plan_note=plan_note,
        )

    def _run_streaming(
        self,
        instance: DatabaseInstance,
        export: bool,
        plan: Any = None,
        plan_note: str | None = None,
    ) -> ProgramReport:
        """Streaming semantics: feed the loaded rows through the pipeline.

        Rows stream as inserts into an (initially empty) working instance
        through :class:`~repro.repair.streaming.StreamingRepairer`'s
        bounded commit queue; every ``commit_interval`` operations a
        Δ-anchored repair round runs, so memory and per-round latency
        stay proportional to the delta rather than the database.  A
        full queue under the ``"error"`` backpressure policy surfaces as
        :class:`~repro.exceptions.BackpressureError` (the CLI prints it
        and exits non-zero); the default ``"block"`` policy drains a
        round instead.  The aggregate result's ``changes`` are relative
        to the loaded (source) content, so the normal cell-update export
        applies.
        """
        from repro.repair.streaming import StreamingRepairer

        streamer = StreamingRepairer(
            DatabaseInstance(self.config.schema),
            self.config.constraints,
            max_pending=self.config.streaming_max_pending,
            commit_interval=self.config.streaming_commit_interval,
            backpressure=self.config.streaming_backpressure,
            trace=self.config.trace_enabled,
            algorithm=self.config.algorithm,
            metric=self.config.metric,
            parallel=self.config.runtime_backend,
            engine=self.config.detection_engine,
            plan=plan,
        )
        for relation in self.config.schema:
            for tup in instance.tuples(relation.name):
                streamer.insert(relation.name, tup.values)
        streamer.flush()
        result = streamer.aggregate_result()
        if export:
            note = self.backend.export_repair(
                result, self.config.export_mode, self.config.export_destination
            )
        else:
            note = "dry run (no export)"
        trace, trace_note = self._emit_trace(
            streamer.finish_trace() if self.config.trace_enabled else None
        )
        stats = streamer.stats
        streaming_note = (
            f"{stats.total_submitted} ops in {stats.rounds} round(s), "
            f"{stats.coalesced} coalesced, "
            f"{stats.backpressure_blocks} backpressure block(s)"
        )
        return ProgramReport(
            config=self.config,
            result=result,
            export_note=note,
            trace=trace,
            trace_note=trace_note,
            streaming_note=streaming_note,
            plan_note=plan_note,
        )

    def _run_deletion(
        self, instance: DatabaseInstance, export: bool
    ) -> ProgramReport:
        """Deletion-based semantics: Section 5's reduction, snapshot export.

        Deletions shrink relations, so the export uses the backends'
        snapshot path (table rewrite / new tables / text dump) instead of
        per-cell updates.
        """
        deletion = cardinality_repair(
            instance,
            self.config.constraints,
            algorithm=self.config.algorithm,
            mode=self.config.repair_semantics,      # "delete" | "mixed"
            table_weights=self.config.table_weights or None,
            metric=self.config.metric,
            parallel=self.config.runtime_backend,
            engine=self.config.detection_engine,
            trace=self.config.trace_enabled,
        )
        if export:
            note = self.backend.export_snapshot(
                deletion.repaired,
                self.config.export_mode,
                self.config.export_destination,
            )
        else:
            note = "dry run (no export)"
        trace, trace_note = self._emit_trace(deletion.trace)
        return ProgramReport(
            config=self.config,
            result=deletion.inner,
            export_note=note,
            deletion=deletion,
            trace=trace,
            trace_note=trace_note,
        )

    def _emit_trace(self, trace) -> "tuple[Any, str | None]":
        """Write the finished trace to the configured file, if any."""
        if trace is None:
            return None, None
        if self.config.trace_out is None:
            return trace, f"recorded ({len(trace)} spans, not written)"
        path = write_trace(trace, self.config.trace_out, self.config.trace_format)
        return trace, f"written to {path} ({self.config.trace_format})"
