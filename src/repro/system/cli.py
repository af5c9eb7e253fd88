"""Command-line entry points: ``repro-repair``, ``repro lint``, ``repro trace``.

``repro-repair <config.json>`` runs the Figure-1 pipeline from a
configuration file and prints the repair summary.  ``--dry-run`` skips the
export step; ``--algorithm`` and ``--metric`` override the configured
choices; ``--changes`` also prints each cell update.  ``--trace`` records
the run with the observability layer (:mod:`repro.obs`) and prints the
span tree; ``--trace-out FILE`` writes it (``--trace-format``: ``chrome``
for ``chrome://tracing`` / Perfetto, ``json`` for the lossless native
form, ``tree`` for the text report).  ``--stream`` (with
``--max-pending`` / ``--commit-interval``) runs the pipeline in
streaming-repair mode (see :mod:`repro.repair.streaming`).

``repro lint`` runs the static constraint analyzer (:mod:`repro.lint`)
over the ``(schema, constraints)`` of one or more configuration files
and/or bundled workloads - no database instance is loaded.  Exit code 0
means no diagnostics at or above ``--fail-on``; 1 means the gate fired;
2 means a usage or configuration error.

``repro compile`` runs the static constraint-program compiler
(:mod:`repro.plan`) over the same sources: canonicalization, per-
constraint engine classification and cost ranking, and solver
pre-selection - all before any data loads.  ``--out FILE`` saves the
fingerprinted artifact, ``--strict`` exits 1 when any constraint's
kernel/pushdown execution is data-dependent (LINT050/051), and
``--cache`` routes through the on-disk plan cache.  ``repro
explain-plan`` renders a plan (from a config, workload, or saved
artifact) as a ``constraint -> engine chain -> cost -> diagnostics``
table.

``repro serve`` runs a batch of repair jobs through the
repair-as-a-service runtime (:mod:`repro.service`): bounded admission,
per-job timeouts, retry with backoff, and a shared artifact cache, with
deterministic ``--inject-kill`` / ``--inject-stall`` /
``--inject-poison`` fault hooks for the concurrency stress harness.
Exit code 0 means every job reached a terminal state (with
``--expect-clean``: every job succeeded).

``repro trace <file>`` replays a saved trace (native or Chrome format)
as an aggregated summary table - count, wall, CPU, p50/p99 and share
per span name; ``--tree`` prints the full span tree instead, and
``--latency`` the commit-latency distribution of a streaming run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, Sequence

from repro.exceptions import ReproError
from repro.setcover.decompose import BACKENDS
from repro.system.config import RepairConfig
from repro.system.pipeline import RepairProgram


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-repair",
        description=(
            "Approximate attribute-update repairs of inconsistent databases "
            "(Lopatenko & Bravo, ICDE 2007)."
        ),
    )
    parser.add_argument("config", help="path to the JSON configuration file")
    parser.add_argument(
        "--algorithm",
        help="override the configured set-cover algorithm "
        "(greedy, modified-greedy, layer, modified-layer, exact)",
    )
    parser.add_argument(
        "--metric", help="override the configured distance metric (l1, l2, l0)"
    )
    parser.add_argument(
        "--semantics",
        choices=["update", "delete", "mixed"],
        help="override the repair semantics: attribute updates (Section 3), "
        "minimum tuple deletions (Section 5), or the combined mode",
    )
    parser.add_argument(
        "--parallel",
        choices=BACKENDS,
        help="override the configured runtime backend: 'auto' solves the "
        "set cover per connected component, 'serial' solves it whole; "
        "every stage runs in-process either way",
    )
    parser.add_argument(
        "--engine",
        choices=["auto", "kernel", "interpreted", "pushdown"],
        help="override the violation-detection engine: the columnar NumPy "
        "kernel, the interpreted enumeration, the SQL pushdown engine "
        "(runs the violation queries inside a SQL source backend), or "
        "auto (pushdown for backend-resident instances, else kernel when "
        "NumPy is available; results are identical in every case)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="run the pipeline in streaming-repair mode: rows are fed "
        "through a bounded, coalescing commit queue "
        "(StreamingRepairer) instead of being repaired in one batch; "
        "requires update semantics",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        metavar="N",
        help="streaming queue bound before backpressure engages "
        "(implies --stream; default 1024)",
    )
    parser.add_argument(
        "--commit-interval",
        type=int,
        metavar="N",
        help="streamed operations per auto-committed repair round "
        "(implies --stream; default 256)",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="enable static plan compilation for this run (equivalent to "
        "\"plan\": true in the configuration): the constraint program is "
        "compiled (or loaded from the plan cache) before any data loads "
        "and the repair executes from the plan",
    )
    parser.add_argument(
        "--plan-cache-dir",
        metavar="DIR",
        help="plan cache directory (implies --plan; default: "
        "$REPRO_PLAN_CACHE or ~/.cache/repro/plans)",
    )
    parser.add_argument(
        "--profile-only",
        action="store_true",
        help="print the inconsistency profile and exit without repairing",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="compute the repair but do not export it",
    )
    parser.add_argument(
        "--changes",
        action="store_true",
        help="print every cell update of the repair",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record the run with the observability layer and print the "
        "span tree (detect/reduce/solve/apply/verify stages, "
        "per-constraint and per-solver spans, metrics)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the recorded trace to FILE (implies --trace)",
    )
    parser.add_argument(
        "--trace-format",
        choices=["chrome", "json", "tree"],
        help="trace file format for --trace-out (default: chrome)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        config = RepairConfig.from_file(args.config)
        overrides = {}
        if args.algorithm:
            overrides["algorithm"] = args.algorithm
        if args.metric:
            overrides["metric"] = args.metric
        if args.semantics:
            overrides["repair_semantics"] = args.semantics
        if args.parallel:
            overrides["runtime_backend"] = args.parallel
        if args.engine:
            overrides["detection_engine"] = args.engine
        if args.stream or args.max_pending is not None or args.commit_interval is not None:
            overrides["streaming_enabled"] = True
        if args.max_pending is not None:
            if args.max_pending < 1:
                print("error: --max-pending must be >= 1", file=sys.stderr)
                return 1
            overrides["streaming_max_pending"] = args.max_pending
        if args.commit_interval is not None:
            if args.commit_interval < 1:
                print("error: --commit-interval must be >= 1", file=sys.stderr)
                return 1
            overrides["streaming_commit_interval"] = args.commit_interval
        if args.plan or args.plan_cache_dir:
            overrides["plan_enabled"] = True
        if args.plan_cache_dir:
            overrides["plan_cache_dir"] = args.plan_cache_dir
        if args.trace or args.trace_out or args.trace_format:
            overrides["trace_enabled"] = True
        if args.trace_out:
            overrides["trace_out"] = args.trace_out
        if args.trace_format:
            overrides["trace_format"] = args.trace_format
        if overrides:
            config = dataclasses.replace(config, **overrides)
        program = RepairProgram(config)
        if args.profile_only:
            from repro.violations import inconsistency_profile

            profile = inconsistency_profile(program.load(), config.constraints)
            print(profile)
            print(f"degree histogram : {profile.degree_histogram}")
            return 0
        report = program.run(export=not args.dry_run)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(report.summary())
    if args.changes:
        for change in report.result.changes:
            print(f"  {change}")
        if report.deletion is not None:
            for tup in report.deletion.deleted:
                print(f"  deleted {tup!r}")
    if args.trace and report.trace is not None:
        from repro.obs import render_tree

        print(render_tree(report.trace))
    return 0


def _lint_workload_sources() -> dict[str, Callable[[], tuple]]:
    """Bundled workloads as lazy ``(schema, constraints)`` factories.

    Only static schema builders and constraint text are used - no
    :class:`~repro.model.instance.DatabaseInstance` is ever constructed.
    """
    from repro.constraints.parser import parse_denials
    from repro.workloads.census import CENSUS_CONSTRAINTS, census_schema
    from repro.workloads.clientbuy import (
        CLIENT_BUY_CONSTRAINTS,
        client_buy_schema,
    )
    from repro.workloads.finance import FINANCE_CONSTRAINTS, finance_schema
    from repro.workloads.paperdemo import (
        PAPER_CONSTRAINTS,
        PUB_CONSTRAINT,
        paper_pub_schema,
    )

    from repro.workloads.tpch_like import TPCH_CONSTRAINTS, tpch_like_schema

    return {
        "clientbuy": lambda: (
            client_buy_schema(),
            parse_denials(CLIENT_BUY_CONSTRAINTS),
        ),
        "finance": lambda: (
            finance_schema(),
            parse_denials(FINANCE_CONSTRAINTS),
        ),
        "census": lambda: (
            census_schema(),
            parse_denials(CENSUS_CONSTRAINTS),
        ),
        "paperdemo": lambda: (
            paper_pub_schema(),
            parse_denials(PAPER_CONSTRAINTS + PUB_CONSTRAINT),
        ),
        "tpch": lambda: (
            tpch_like_schema(),
            parse_denials(TPCH_CONSTRAINTS),
        ),
    }


LINT_WORKLOADS = ("clientbuy", "finance", "census", "paperdemo", "tpch")


def build_lint_parser() -> argparse.ArgumentParser:
    """The ``repro lint`` argparse parser (exposed for tests and docs)."""
    from repro.lint.analyzer import PASSES

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static analysis of denial-constraint sets: satisfiability, "
            "redundancy, locality, approximation-bound prediction, and "
            "kernel compilability - without loading any data."
        ),
    )
    parser.add_argument(
        "configs",
        nargs="*",
        metavar="CONFIG",
        help="JSON configuration files whose (schema, constraints) to lint",
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=LINT_WORKLOADS,
        default=None,
        help="also lint a bundled workload's constraint set (repeatable)",
    )
    parser.add_argument(
        "--pass",
        action="append",
        dest="passes",
        choices=PASSES,
        default=None,
        help="run only the named pass (repeatable; default: all passes)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--fail-on",
        choices=["error", "warning", "info", "never"],
        default="error",
        help="minimum severity that makes the exit code 1 (default: error)",
    )
    return parser


def lint_main(argv: Sequence[str] | None = None) -> int:
    """``repro lint`` entry point; returns the process exit code.

    0 = no gated diagnostics, 1 = diagnostics at or above ``--fail-on``,
    2 = usage or configuration error.
    """
    from repro.lint.analyzer import lint_constraints
    from repro.lint.reporters import render_text

    args = build_lint_parser().parse_args(argv)
    workloads = args.workload or []
    if not args.configs and not workloads:
        print(
            "error: nothing to lint - pass a config file or --workload",
            file=sys.stderr,
        )
        return 2

    sources: list[tuple[str, Callable[[], tuple]]] = []
    factories = _lint_workload_sources()
    for name in workloads:
        sources.append((f"workload:{name}", factories[name]))
    for path in args.configs:
        def _from_config(path: str = path) -> tuple:
            config = RepairConfig.from_file(path)
            return config.schema, config.constraints

        sources.append((path, _from_config))

    gate_fired = False
    json_documents = []
    for source_name, factory in sources:
        try:
            schema, constraints = factory()
            report = lint_constraints(schema, constraints, passes=args.passes)
        except ReproError as error:
            print(f"error: {source_name}: {error}", file=sys.stderr)
            return 2
        if report.gated(args.fail_on):
            gate_fired = True
        if args.format == "json":
            json_documents.append({"source": source_name, **report.to_dict()})
        else:
            print(f"== {source_name} ==")
            print(render_text(report))
    if args.format == "json":
        print(json.dumps(json_documents, indent=2))
    return 1 if gate_fired else 0


def _plan_sources(
    configs: Sequence[str], workloads: Sequence[str]
) -> "list[tuple[str, Callable[[], tuple]]]":
    """``(name, factory)`` pairs for compile/explain-plan inputs."""
    sources: list[tuple[str, Callable[[], tuple]]] = []
    factories = _lint_workload_sources()
    for name in workloads:
        sources.append((f"workload:{name}", factories[name]))
    for path in configs:
        def _from_config(path: str = path) -> tuple:
            config = RepairConfig.from_file(path)
            return config.schema, config.constraints
        sources.append((path, _from_config))
    return sources


def build_compile_parser() -> argparse.ArgumentParser:
    """The ``repro compile`` argparse parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro compile",
        description=(
            "Compile (schema, constraints) into a fingerprinted "
            "CompiledProgram plan artifact: canonicalization, static "
            "engine classification and cost ranking, solver "
            "pre-selection - without loading any data."
        ),
    )
    parser.add_argument(
        "configs",
        nargs="*",
        metavar="CONFIG",
        help="JSON configuration files whose (schema, constraints) to compile",
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=LINT_WORKLOADS,
        default=None,
        help="also compile a bundled workload's constraint set (repeatable)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any constraint is not statically compilable "
        "(its kernel/pushdown execution is data-dependent, LINT050/051)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the compiled artifact to FILE (single source only)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="store/reuse the artifact through the on-disk plan cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="plan cache directory (implies --cache; default: "
        "$REPRO_PLAN_CACHE or ~/.cache/repro/plans)",
    )
    return parser


def compile_main(argv: Sequence[str] | None = None) -> int:
    """``repro compile`` entry point; returns the process exit code.

    0 = every source compiled, 1 = strict compilation refused a source
    (statically non-compilable constraint) or compilation failed, 2 =
    usage or configuration error.
    """
    from repro.exceptions import PlanError
    from repro.plan import PlanCache, compile_program, render_plan_text

    args = build_compile_parser().parse_args(argv)
    workloads = args.workload or []
    if not args.configs and not workloads:
        print(
            "error: nothing to compile - pass a config file or --workload",
            file=sys.stderr,
        )
        return 2
    sources = _plan_sources(args.configs, workloads)
    if args.out and len(sources) != 1:
        print(
            "error: --out needs exactly one source", file=sys.stderr
        )
        return 2

    use_cache = args.cache or args.cache_dir is not None
    cache = PlanCache(args.cache_dir) if use_cache else None
    failed = False
    json_documents = []
    for source_name, factory in sources:
        try:
            schema, constraints = factory()
            if cache is not None:
                program, hit = cache.get_or_compile(
                    schema, constraints, strict=args.strict
                )
            else:
                program, hit = (
                    compile_program(schema, constraints, strict=args.strict),
                    False,
                )
        except PlanError as error:
            print(f"error: {source_name}: {error}", file=sys.stderr)
            for diagnostic in error.diagnostics:
                print(f"  {diagnostic.code}  {diagnostic.message}", file=sys.stderr)
            failed = True
            continue
        except ReproError as error:
            print(f"error: {source_name}: {error}", file=sys.stderr)
            return 2
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(program.to_json())
        if args.format == "json":
            json_documents.append({"source": source_name, **program.to_dict()})
        else:
            cached = " (cache hit)" if hit else ""
            print(f"== {source_name}{cached} ==")
            print(render_plan_text(program))
    if args.format == "json":
        print(json.dumps(json_documents, indent=2))
    return 1 if failed else 0


def build_explain_plan_parser() -> argparse.ArgumentParser:
    """The ``repro explain-plan`` argparse parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro explain-plan",
        description=(
            "Render a compiled plan as a table: constraint -> engine "
            "chain -> static cost estimate -> diagnostics.  Input is a "
            "saved artifact (--plan), a configuration file, or a bundled "
            "workload (compiled on the fly)."
        ),
    )
    parser.add_argument(
        "configs",
        nargs="*",
        metavar="CONFIG",
        help="JSON configuration files whose plan to explain",
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=LINT_WORKLOADS,
        default=None,
        help="explain a bundled workload's plan (repeatable)",
    )
    parser.add_argument(
        "--plan",
        metavar="FILE",
        action="append",
        default=None,
        help="explain a saved plan artifact (from `repro compile --out`)",
    )
    return parser


def explain_plan_main(argv: Sequence[str] | None = None) -> int:
    """``repro explain-plan`` entry point; returns the process exit code."""
    from repro.exceptions import PlanError
    from repro.plan import CompiledProgram, compile_program, render_plan_text

    args = build_explain_plan_parser().parse_args(argv)
    workloads = args.workload or []
    plans = args.plan or []
    if not args.configs and not workloads and not plans:
        print(
            "error: nothing to explain - pass a config file, --workload, "
            "or --plan",
            file=sys.stderr,
        )
        return 2
    try:
        for path in plans:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    program = CompiledProgram.from_json(handle.read())
            except OSError as error:
                print(f"error: {path}: {error}", file=sys.stderr)
                return 2
            print(f"== {path} ==")
            print(render_plan_text(program))
        for source_name, factory in _plan_sources(args.configs, workloads):
            schema, constraints = factory()
            program = compile_program(schema, constraints)
            print(f"== {source_name} ==")
            print(render_plan_text(program))
    except PlanError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


#: Workloads ``repro serve`` can instantiate with data (seeded builders).
SERVE_WORKLOADS = ("clientbuy", "tpch")


def _serve_workload(name: str, size: int, seed: int):
    """Build one seeded workload instance for the service harness."""
    if name == "clientbuy":
        from repro.workloads import client_buy_workload

        return client_buy_workload(
            n_clients=size, inconsistency_ratio=0.3, seed=seed
        )
    from repro.workloads import tpch_like_workload

    return tpch_like_workload(
        scale_factor=max(1, size // 50), violation_ratio=0.05, seed=seed
    )


def _parse_fault_specs(kills, stalls, poisons):
    """Translate ``--inject-*`` specs into a :class:`ScriptedFaults`.

    ``--inject-kill SEQ:STAGE[:N]`` (N defaults to 1),
    ``--inject-stall SEQ:STAGE:SECONDS``, ``--inject-poison SEQ:KIND``.
    Raises ``ValueError`` with a usable message on malformed specs.
    """
    from repro.service import NO_FAULTS, ScriptedFaults

    if not kills and not stalls and not poisons:
        return NO_FAULTS
    kill: dict = {}
    for spec in kills or ():
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"--inject-kill expects SEQ:STAGE[:N], got {spec!r}")
        kill[(int(parts[0]), parts[1])] = int(parts[2]) if len(parts) == 3 else 1
    stall: dict = {}
    for spec in stalls or ():
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"--inject-stall expects SEQ:STAGE:SECONDS, got {spec!r}"
            )
        stall[(int(parts[0]), parts[1])] = float(parts[2])
    poison: dict = {}
    for spec in poisons or ():
        parts = spec.split(":")
        if len(parts) != 2:
            raise ValueError(f"--inject-poison expects SEQ:KIND, got {spec!r}")
        poison[int(parts[0])] = parts[1]
    return ScriptedFaults(kill=kill, stall=stall, poison=poison)


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` argparse parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the repair-as-a-service job runtime over a batch of "
            "repair jobs: bounded admission, per-job timeouts with "
            "cooperative cancellation, retry with backoff, and a shared "
            "artifact cache (compiled plans, lint reports, detected "
            "violations) across jobs.  Deterministic fault injection "
            "(--inject-*) drives the concurrency stress harness."
        ),
    )
    parser.add_argument(
        "config",
        nargs="?",
        help="JSON configuration file providing (schema, constraints, "
        "source) for the jobs; alternatively use --workload",
    )
    parser.add_argument(
        "--workload",
        choices=SERVE_WORKLOADS,
        help="run jobs over a bundled seeded workload instead of a config",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        metavar="N",
        help="number of repair jobs to submit (default 4)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="concurrent service workers (default: the config's "
        "service.workers, else 2)",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=60,
        metavar="N",
        help="workload size knob for --workload (clients / rows-ish; "
        "default 60)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        metavar="N",
        help="base RNG seed for --workload data generation (default 7)",
    )
    parser.add_argument(
        "--distinct-data",
        action="store_true",
        help="give every job its own seeded instance (seed+i) instead of "
        "sharing one instance across jobs - exercises the data-token "
        "keying of the artifact cache",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        metavar="SECONDS",
        help="per-job wall budget; exceeding it cancels the job "
        "cooperatively and marks it timed-out",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        metavar="N",
        help="queue admission bound (default: unbounded)",
    )
    parser.add_argument(
        "--backpressure",
        choices=["block", "error"],
        help="policy when the queue is at --max-pending: block the "
        "submitter or reject with BackpressureError (default block)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        metavar="N",
        help="retry budget for transient worker crashes (default 2)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        metavar="SECONDS",
        help="base backoff between retries, doubled per attempt "
        "(default 0.05)",
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        metavar="N",
        help="artifact cache bound (default 256)",
    )
    parser.add_argument(
        "--trace-jobs",
        action="store_true",
        help="record a per-job trace (printable via job ids in --format "
        "json output)",
    )
    parser.add_argument(
        "--inject-kill",
        action="append",
        metavar="SEQ:STAGE[:N]",
        help="kill job SEQ's worker the first N times it reaches STAGE "
        "(start/plan/detect/repair/finish; repeatable)",
    )
    parser.add_argument(
        "--inject-stall",
        action="append",
        metavar="SEQ:STAGE:SECONDS",
        help="stall job SEQ at STAGE for SECONDS (cancel-aware; "
        "repeatable)",
    )
    parser.add_argument(
        "--inject-poison",
        action="append",
        metavar="SEQ:KIND",
        help="poison the KIND artifact (plan/lint/violations) job SEQ "
        "published, so the next reader refuses it (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--expect-clean",
        action="store_true",
        help="exit 1 unless every job succeeded (stress-gate mode; "
        "without it, fault-induced failures are reported but exit 0)",
    )
    return parser


def serve_main(argv: Sequence[str] | None = None) -> int:
    """``repro serve`` entry point; returns the process exit code.

    0 = batch completed (all jobs terminal; with ``--expect-clean``, all
    succeeded), 1 = gate fired or service error, 2 = usage error.
    """
    from repro.service import JobRequest, run_jobs

    args = build_serve_parser().parse_args(argv)
    if bool(args.config) == bool(args.workload):
        print(
            "error: pass exactly one of CONFIG or --workload",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.size < 1:
        print("error: --size must be >= 1", file=sys.stderr)
        return 2
    try:
        faults = _parse_fault_specs(
            args.inject_kill, args.inject_stall, args.inject_poison
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        params: dict = {}
        if args.workload:
            options = {
                "workers": 2,
                "max_pending": None,
                "backpressure": "block",
                "job_timeout": None,
                "max_retries": 2,
                "retry_backoff": 0.05,
                "cache_entries": 256,
                "trace_jobs": False,
            }
            def job_source(i: int):
                seed = args.seed + i if args.distinct_data else args.seed
                workload = _serve_workload(args.workload, args.size, seed)
                return workload.instance, tuple(workload.constraints)
        else:
            config = RepairConfig.from_file(args.config)
            options = config.service_options()
            program = RepairProgram(config)
            instance = program.load()
            constraints = config.constraints
            params = {
                "algorithm": config.algorithm,
                "metric": config.metric,
                "engine": config.detection_engine,
            }
            if config.runtime_backend != "serial":
                params["parallel"] = config.runtime_backend
            def job_source(i: int):
                return instance, constraints
        if args.workers is not None:
            options["workers"] = args.workers
        if args.job_timeout is not None:
            options["job_timeout"] = args.job_timeout
        if args.max_pending is not None:
            options["max_pending"] = args.max_pending
        if args.backpressure is not None:
            options["backpressure"] = args.backpressure
        if args.retries is not None:
            options["max_retries"] = args.retries
        if args.retry_backoff is not None:
            options["retry_backoff"] = args.retry_backoff
        if args.cache_entries is not None:
            options["cache_entries"] = args.cache_entries
        if args.trace_jobs:
            options["trace_jobs"] = True

        requests = []
        for i in range(args.jobs):
            instance, constraints = job_source(i)
            requests.append(
                JobRequest(instance, constraints, params=params, label=f"job{i}")
            )
        views, service = run_jobs(requests, faults=faults, **options)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    by_status: dict = {}
    for view in views:
        by_status[view.status] = by_status.get(view.status, 0) + 1
    stats = service.cache.stats()
    if args.format == "json":
        document = {
            "jobs": [view.to_dict() for view in views],
            "by_status": by_status,
            "cache": stats,
        }
        print(json.dumps(document, indent=2))
    else:
        for view in views:
            line = f"{view.id}  {view.status:10s} attempts={view.attempts}"
            if view.error is not None:
                line += f"  [{view.error.code}] {view.error.message}"
            print(line)
        summary = ", ".join(
            f"{count} {status}" for status, count in sorted(by_status.items())
        )
        print(f"-- {len(views)} job(s): {summary}")
        print(
            f"-- artifact cache: {stats['hits']:.0f} hit(s), "
            f"{stats['misses']:.0f} miss(es), "
            f"{stats['evictions']:.0f} eviction(s), "
            f"{stats['poisoned']:.0f} poisoned"
        )
    non_terminal = [v for v in views if not v.terminal]
    if non_terminal:
        print(
            f"error: {len(non_terminal)} job(s) never reached a terminal "
            "state",
            file=sys.stderr,
        )
        return 1
    if args.expect_clean and by_status.get("succeeded", 0) != len(views):
        print("error: --expect-clean and not every job succeeded", file=sys.stderr)
        return 1
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    """The ``repro trace`` argparse parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Replay a saved repair trace (native repro-trace JSON or "
            "Chrome trace-event format) as an aggregated summary table."
        ),
    )
    parser.add_argument("file", help="path to the saved trace file")
    parser.add_argument(
        "--tree",
        action="store_true",
        help="print the full span tree instead of the summary table",
    )
    parser.add_argument(
        "--latency",
        action="store_true",
        help="print the commit-latency distribution (count, mean, p50, "
        "p99, max per commit-pipeline span) instead of the summary table",
    )
    return parser


def trace_main(argv: Sequence[str] | None = None) -> int:
    """``repro trace`` entry point; returns the process exit code."""
    from repro.obs import format_latency, format_summary, load_trace, render_tree

    args = build_trace_parser().parse_args(argv)
    try:
        trace = load_trace(args.file)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.latency:
        print(format_latency(trace))
    elif args.tree:
        print(render_tree(trace))
    else:
        print(format_summary(trace))
    return 0


def repro_main(argv: Sequence[str] | None = None) -> int:
    """``repro <subcommand>`` dispatcher.

    Subcommands: ``repair``, ``lint``, ``compile``, ``explain-plan``,
    ``serve``, ``trace``.
    """
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments or arguments[0] in ("-h", "--help"):
        print(
            "usage: repro {repair,lint,compile,explain-plan,serve,trace} ...\n\n"
            "subcommands:\n"
            "  repair        run the Figure-1 repair pipeline (see repro-repair)\n"
            "  lint          statically analyze a constraint set\n"
            "  compile       compile constraints into a fingerprinted plan\n"
            "  explain-plan  render a compiled plan as a table\n"
            "  serve         run a batch of jobs through the repair service\n"
            "  trace         summarize a saved repair trace",
            file=sys.stderr if arguments == [] else sys.stdout,
        )
        return 2 if not arguments else 0
    subcommand, rest = arguments[0], arguments[1:]
    if subcommand == "repair":
        return main(rest)
    if subcommand == "lint":
        return lint_main(rest)
    if subcommand == "compile":
        return compile_main(rest)
    if subcommand == "explain-plan":
        return explain_plan_main(rest)
    if subcommand == "serve":
        return serve_main(rest)
    if subcommand == "trace":
        return trace_main(rest)
    print(
        f"error: unknown subcommand {subcommand!r}; "
        "choose 'repair', 'lint', 'compile', 'explain-plan', 'serve', "
        "or 'trace'",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":
    sys.exit(main())
