"""The configuration file of the repair program (Figure 1).

The paper: *"The configuration file contains information about the schema
of the database, the integrity constraints, the flexible/non-flexible
attributes, database repair mode (update, insert into a new database, dump
into text file)."*  We use JSON::

    {
      "schema": {
        "relations": [
          {
            "name": "Client",
            "key": ["id"],
            "attributes": [
              {"name": "id"},
              {"name": "a", "flexible": true, "weight": 1.0},
              {"name": "c", "flexible": true, "weight": 1.0}
            ]
          }
        ]
      },
      "constraints": [
        "ic1: NOT(Client(id, a, c), a < 18, c > 50)"
      ],
      "algorithm": "modified-greedy",
      "metric": "l1",
      "runtime": {"backend": "auto", "engine": "auto"},
      "source": {"backend": "sqlite", "path": "clients.db"},
      "export": {"mode": "update"}
    }

``source.backend`` is ``sqlite`` or ``duckdb`` (with ``path``), ``csv``
(with ``directory``), or ``memory`` (with inline ``rows``);
``export.mode`` is ``update`` / ``insert`` / ``dump`` (the latter with
``destination``).  The optional ``runtime`` block picks the
``backend`` (``serial``, or ``auto`` to solve per connected component,
see :data:`~repro.setcover.decompose.BACKENDS`), plus the
violation-detection ``engine``
(``auto`` / ``kernel`` / ``interpreted`` / ``pushdown``, see
:func:`repro.violations.detector.engine_chain`); it defaults to the
serial pipeline with the ``auto`` engine, which tries ``pushdown``
first for instances loaded from a SQL source backend; ``"engine":
"pushdown"`` alone is in-database detection (a retired top-level
detection key gets a hint naming ``runtime.engine``).  Unknown keys at
the top level and in the ``runtime``, ``runtime.streaming``, ``lint``,
``plan`` and ``service`` blocks are rejected with a
:class:`~repro.exceptions.ConfigError` naming the valid ones.

``runtime.trace`` switches on the observability layer
(:mod:`repro.obs`): either a boolean, or an object
``{"enabled": true, "out": "trace.json", "format": "chrome"}`` naming a
file the finished trace is written to (``format``: ``chrome`` /
``json`` / ``tree``).  Without ``out`` the program still records the
trace and attaches it to its report.

``runtime.streaming`` switches the pipeline into sustained streaming
repair (:class:`repro.repair.streaming.StreamingRepairer`): either a
boolean, or an object ``{"enabled": true, "max_pending": 1024,
"commit_interval": 256, "backpressure": "block"}``.  Rows
from the source are streamed through a bounded, coalescing commit queue
instead of being repaired in one batch; requires the ``update`` repair
semantics.

The optional ``service`` block (``true`` or ``{"enabled": true,
"workers": 4, "max_pending": 64, "backpressure": "block",
"job_timeout": 30.0, "max_retries": 2, "retry_backoff": 0.05,
"cache_entries": 256, "trace_jobs": false}``) configures the
repair-as-a-service job runtime (:mod:`repro.service`, the ``repro
serve`` subcommand): worker concurrency, queue admission (the streaming
layer's ``block``/``error`` policies), the default per-job timeout and
retry budget, and the shared artifact-cache bound.

The optional ``lint`` block (``{"preflight": true, "fail_on": "error"}``)
makes the pipeline run the static constraint analyzer
(:mod:`repro.lint`) before loading any data and abort with a
:class:`~repro.exceptions.LintError` when the report contains
diagnostics at or above the ``fail_on`` severity (``error`` / ``warning``
/ ``info``; ``never`` reports without gating).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.constraints.denial import DenialConstraint
from repro.constraints.parser import parse_denials
from repro.exceptions import ConfigError, ConstraintParseError, SchemaError
from repro.fixes.distance import get_metric
from repro.model.schema import Attribute, AttributeRole, Relation, Schema
from repro.setcover.decompose import BACKENDS
from repro.setcover.solvers import SOLVERS
from repro.storage.base import ExportMode
from repro.violations.kernels import ENGINES as _VALID_ENGINES

_TOP_LEVEL_KEYS = {
    "schema", "constraints", "algorithm", "metric", "source", "export",
    "repair_semantics", "table_weights", "runtime", "lint", "plan", "service",
}

_VALID_SEMANTICS = ("update", "delete", "mixed")

_VALID_LINT_GATES = ("error", "warning", "info", "never")


@dataclass(frozen=True)
class RepairConfig:
    """Parsed and validated repair-program configuration.

    ``repair_semantics`` selects between the paper's attribute-update
    repairs (``update``, Section 3), minimum-cardinality tuple deletions
    (``delete``, Section 5), and the conclusion's combined mode
    (``mixed``); ``table_weights`` sets the per-relation deletion weights
    ``α_{δ_R}`` for the deletion-based modes.  ``runtime_backend`` /
    ``detection_engine`` pick the per-component solve and the
    violation-detection engine (the JSON ``runtime`` block).
    """

    schema: Schema
    constraints: tuple[DenialConstraint, ...]
    algorithm: str = "modified-greedy"
    metric: str = "l1"
    source: Mapping[str, Any] = field(default_factory=dict)
    export_mode: ExportMode = ExportMode.UPDATE
    export_destination: str | None = None
    repair_semantics: str = "update"
    table_weights: Mapping[str, float] = field(default_factory=dict)
    runtime_backend: str = "serial"
    detection_engine: str = "auto"
    trace_enabled: bool = False
    trace_out: str | None = None
    trace_format: str = "chrome"
    streaming_enabled: bool = False
    streaming_max_pending: int | None = 1024
    streaming_commit_interval: int | None = 256
    streaming_backpressure: str = "block"
    lint_preflight: bool = False
    lint_fail_on: str = "error"
    plan_enabled: bool = False
    plan_cache_dir: str | None = None
    plan_strict: bool = False
    service_enabled: bool = False
    service_workers: int = 2
    service_max_pending: int | None = None
    service_backpressure: str = "block"
    service_job_timeout: float | None = None
    service_max_retries: int = 2
    service_retry_backoff: float = 0.05
    service_cache_entries: int = 256
    service_trace_jobs: bool = False

    def service_options(self) -> "dict[str, Any]":
        """The ``service`` block as :class:`repro.service.RepairService`
        constructor keywords (``enabled`` excluded)."""
        return {
            "workers": self.service_workers,
            "max_pending": self.service_max_pending,
            "backpressure": self.service_backpressure,
            "job_timeout": self.service_job_timeout,
            "max_retries": self.service_max_retries,
            "retry_backoff": self.service_retry_backoff,
            "cache_entries": self.service_cache_entries,
            "trace_jobs": self.service_trace_jobs,
        }

    # -- parsing ------------------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path) -> "RepairConfig":
        """Load a JSON configuration file."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise ConfigError(f"cannot read config file {path}: {error}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigError(f"config file {path} is not valid JSON: {error}")
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RepairConfig":
        """Build a config from a parsed JSON object."""
        if not isinstance(data, Mapping):
            raise ConfigError("configuration root must be a JSON object")
        unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
        if any("detection" in key for key in unknown):
            # The retired top-level detection switch and look-alikes.
            raise ConfigError(
                f"unknown top-level key(s) {unknown}: violation detection "
                'is chosen by runtime.engine ("pushdown" runs it inside the '
                'source database; "auto" tries that first)'
            )
        _reject_unknown("top-level", data, _TOP_LEVEL_KEYS)

        schema = _parse_schema(data.get("schema"))
        constraints = _parse_constraints(data.get("constraints"), schema)

        algorithm = data.get("algorithm", "modified-greedy")
        if algorithm not in SOLVERS:
            raise ConfigError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(SOLVERS)}"
            )
        metric = data.get("metric", "l1")
        try:
            get_metric(metric)
        except Exception as error:
            raise ConfigError(str(error))

        source = data.get("source", {"backend": "memory", "rows": {}})
        if not isinstance(source, Mapping) or "backend" not in source:
            raise ConfigError("source must be an object with a 'backend' key")
        if source["backend"] not in ("memory", "sqlite", "csv", "duckdb"):
            raise ConfigError(
                f"unknown source backend {source['backend']!r}"
            )
        if source["backend"] in ("sqlite", "duckdb") and "path" not in source:
            raise ConfigError(f"{source['backend']} source needs a 'path'")
        if source["backend"] == "csv" and "directory" not in source:
            raise ConfigError("csv source needs a 'directory'")

        semantics = data.get("repair_semantics", "update")
        if semantics not in _VALID_SEMANTICS:
            raise ConfigError(
                f"repair_semantics must be one of {_VALID_SEMANTICS}, "
                f"got {semantics!r}"
            )
        table_weights = data.get("table_weights", {})
        if not isinstance(table_weights, Mapping):
            raise ConfigError("table_weights must be an object")
        for relation_name, weight in table_weights.items():
            if relation_name not in schema:
                raise ConfigError(
                    f"table_weights names unknown relation {relation_name!r}"
                )
            if not isinstance(weight, (int, float)) or weight <= 0:
                raise ConfigError(
                    f"table_weights[{relation_name!r}] must be positive"
                )
        if semantics == "update" and table_weights:
            raise ConfigError(
                "table_weights only applies to delete/mixed repair_semantics"
            )

        runtime = data.get("runtime", {})
        if not isinstance(runtime, Mapping):
            raise ConfigError("runtime must be an object")
        _reject_unknown(
            "runtime",
            runtime,
            {"backend", "engine", "trace", "streaming"},
        )
        runtime_backend = runtime.get("backend", "serial")
        if runtime_backend not in BACKENDS:
            raise ConfigError(
                f"runtime.backend must be one of {BACKENDS}, "
                f"got {runtime_backend!r}"
            )
        detection_engine = runtime.get("engine", "auto")
        if detection_engine not in _VALID_ENGINES:
            raise ConfigError(
                f"runtime.engine must be one of {_VALID_ENGINES}, "
                f"got {detection_engine!r}"
            )
        trace_enabled, trace_out, trace_format = _parse_trace(
            runtime.get("trace", False)
        )
        streaming = _parse_streaming(runtime.get("streaming", False))
        if streaming[0] and semantics != "update":
            raise ConfigError(
                "runtime.streaming requires repair_semantics='update' "
                "(delete/mixed semantics repair whole-instance, not deltas)"
            )

        lint = data.get("lint", {})
        if not isinstance(lint, Mapping):
            raise ConfigError("lint must be an object")
        _reject_unknown("lint", lint, {"preflight", "fail_on"})
        lint_preflight = lint.get("preflight", False)
        if not isinstance(lint_preflight, bool):
            raise ConfigError(
                f"lint.preflight must be a boolean, got {lint_preflight!r}"
            )
        lint_fail_on = lint.get("fail_on", "error")
        if lint_fail_on not in _VALID_LINT_GATES:
            raise ConfigError(
                f"lint.fail_on must be one of {_VALID_LINT_GATES}, "
                f"got {lint_fail_on!r}"
            )

        plan = _parse_plan(data.get("plan", False))
        service = _parse_service(data.get("service", False))

        export = data.get("export", {"mode": "update"})
        if not isinstance(export, Mapping):
            raise ConfigError("export must be an object")
        try:
            export_mode = ExportMode.from_name(export.get("mode", "update"))
        except ValueError as error:
            raise ConfigError(str(error))
        destination = export.get("destination")
        if export_mode is ExportMode.DUMP_TEXT and not destination:
            raise ConfigError("dump export mode needs a 'destination'")

        return cls(
            schema=schema,
            constraints=constraints,
            algorithm=algorithm,
            metric=metric,
            source=dict(source),
            export_mode=export_mode,
            export_destination=destination,
            repair_semantics=semantics,
            table_weights=dict(table_weights),
            runtime_backend=runtime_backend,
            detection_engine=detection_engine,
            trace_enabled=trace_enabled,
            trace_out=trace_out,
            trace_format=trace_format,
            streaming_enabled=streaming[0],
            streaming_max_pending=streaming[1],
            streaming_commit_interval=streaming[2],
            streaming_backpressure=streaming[3],
            lint_preflight=lint_preflight,
            lint_fail_on=lint_fail_on,
            plan_enabled=plan[0],
            plan_cache_dir=plan[1],
            plan_strict=plan[2],
            **service,
        )


def _reject_unknown(block: str, data: Mapping[str, Any], known: set[str]) -> None:
    """Raise :class:`ConfigError` naming any key of ``block`` not in ``known``."""
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"unknown {block} key(s) {sorted(unknown)}; "
            f"choose from {sorted(known)}"
        )


def _parse_plan(data: Any) -> "tuple[bool, str | None, bool]":
    """Validate the ``plan`` block (bool or object form).

    ``true`` enables plan compilation with the default on-disk cache;
    the object form is ``{"enabled": bool, "cache_dir": str | null,
    "strict": bool}``.  ``cache_dir`` overrides the cache location
    (``null`` keeps the ``REPRO_PLAN_CACHE`` / ``~/.cache/repro/plans``
    resolution); ``strict`` refuses to run when any constraint is not
    statically compilable (see :mod:`repro.plan.compiler`).
    """
    if isinstance(data, bool):
        return data, None, False
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"plan must be a boolean or an object, got {data!r}"
        )
    _reject_unknown("plan", data, {"enabled", "cache_dir", "strict"})
    enabled = data.get("enabled", True)
    if not isinstance(enabled, bool):
        raise ConfigError(f"plan.enabled must be a boolean, got {enabled!r}")
    cache_dir = data.get("cache_dir")
    if cache_dir is not None and not isinstance(cache_dir, str):
        raise ConfigError(
            f"plan.cache_dir must be a string or null, got {cache_dir!r}"
        )
    strict = data.get("strict", False)
    if not isinstance(strict, bool):
        raise ConfigError(f"plan.strict must be a boolean, got {strict!r}")
    return enabled, cache_dir, strict


def _parse_service(data: Any) -> "dict[str, Any]":
    """Validate the ``service`` block (bool or object form).

    The object form configures the :mod:`repro.service` job runtime::

        {"enabled": true, "workers": 4, "max_pending": 64,
         "backpressure": "block", "job_timeout": 30.0,
         "max_retries": 2, "retry_backoff": 0.05,
         "cache_entries": 256, "trace_jobs": false}

    ``max_pending``/``backpressure`` reuse the streaming layer's
    admission semantics; ``job_timeout`` (seconds, ``null`` = none) is
    the default per-job budget; ``cache_entries`` bounds the shared
    :class:`~repro.service.cache.ArtifactCache`.
    """
    from repro.repair.streaming import BACKPRESSURE_POLICIES

    defaults: "dict[str, Any]" = {
        "service_enabled": False,
        "service_workers": 2,
        "service_max_pending": None,
        "service_backpressure": "block",
        "service_job_timeout": None,
        "service_max_retries": 2,
        "service_retry_backoff": 0.05,
        "service_cache_entries": 256,
        "service_trace_jobs": False,
    }
    if isinstance(data, bool):
        defaults["service_enabled"] = data
        return defaults
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"service must be a boolean or an object, got {data!r}"
        )
    _reject_unknown(
        "service",
        data,
        {
            "enabled",
            "workers",
            "max_pending",
            "backpressure",
            "job_timeout",
            "max_retries",
            "retry_backoff",
            "cache_entries",
            "trace_jobs",
        },
    )

    def boolean(key: str, default: bool) -> bool:
        value = data.get(key, default)
        if not isinstance(value, bool):
            raise ConfigError(f"service.{key} must be a boolean, got {value!r}")
        return value

    def positive_int(key: str, default: int | None, nullable: bool = False):
        value = data.get(key, default)
        if value is None and nullable:
            return None
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            null = " or null" if nullable else ""
            raise ConfigError(
                f"service.{key} must be a positive integer{null}, got {value!r}"
            )
        return value

    defaults["service_enabled"] = boolean("enabled", True)
    defaults["service_workers"] = positive_int("workers", 2)
    defaults["service_max_pending"] = positive_int(
        "max_pending", None, nullable=True
    )
    defaults["service_cache_entries"] = positive_int("cache_entries", 256)
    backpressure = data.get("backpressure", "block")
    if backpressure not in BACKPRESSURE_POLICIES:
        raise ConfigError(
            f"service.backpressure must be one of {BACKPRESSURE_POLICIES}, "
            f"got {backpressure!r}"
        )
    defaults["service_backpressure"] = backpressure
    job_timeout = data.get("job_timeout")
    if job_timeout is not None and (
        isinstance(job_timeout, bool)
        or not isinstance(job_timeout, (int, float))
        or job_timeout <= 0
    ):
        raise ConfigError(
            f"service.job_timeout must be a positive number or null, "
            f"got {job_timeout!r}"
        )
    defaults["service_job_timeout"] = (
        float(job_timeout) if job_timeout is not None else None
    )
    max_retries = data.get("max_retries", 2)
    if isinstance(max_retries, bool) or not isinstance(max_retries, int) or max_retries < 0:
        raise ConfigError(
            f"service.max_retries must be a non-negative integer, "
            f"got {max_retries!r}"
        )
    defaults["service_max_retries"] = max_retries
    retry_backoff = data.get("retry_backoff", 0.05)
    if (
        isinstance(retry_backoff, bool)
        or not isinstance(retry_backoff, (int, float))
        or retry_backoff < 0
    ):
        raise ConfigError(
            f"service.retry_backoff must be a non-negative number, "
            f"got {retry_backoff!r}"
        )
    defaults["service_retry_backoff"] = float(retry_backoff)
    defaults["service_trace_jobs"] = boolean("trace_jobs", False)
    return defaults


def _parse_trace(data: Any) -> tuple[bool, str | None, str]:
    """Validate the ``runtime.trace`` block (bool or object form)."""
    from repro.obs import TRACE_FORMATS

    if isinstance(data, bool):
        return data, None, "chrome"
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"runtime.trace must be a boolean or an object, got {data!r}"
        )
    enabled = data.get("enabled", True)
    if not isinstance(enabled, bool):
        raise ConfigError(
            f"runtime.trace.enabled must be a boolean, got {enabled!r}"
        )
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"runtime.trace.out must be a string, got {out!r}")
    format = data.get("format", "chrome")
    if format not in TRACE_FORMATS:
        raise ConfigError(
            f"runtime.trace.format must be one of {TRACE_FORMATS}, "
            f"got {format!r}"
        )
    return enabled, out, format


def _parse_streaming(data: Any) -> tuple[bool, int | None, int | None, str]:
    """Validate the ``runtime.streaming`` block (bool or object form).

    Returns ``(enabled, max_pending, commit_interval, backpressure)``;
    the object form accepts e.g. ``{"enabled": true, "max_pending": 512,
    "commit_interval": 64, "backpressure": "error"}``.
    """
    from repro.repair.streaming import BACKPRESSURE_POLICIES

    if isinstance(data, bool):
        return data, 1024, 256, "block"
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"runtime.streaming must be a boolean or an object, got {data!r}"
        )
    _reject_unknown(
        "runtime.streaming",
        data,
        {"enabled", "max_pending", "commit_interval", "backpressure"},
    )
    enabled = data.get("enabled", True)
    if not isinstance(enabled, bool):
        raise ConfigError(
            f"runtime.streaming.enabled must be a boolean, got {enabled!r}"
        )
    def positive_or_none(key: str, default: int | None) -> int | None:
        value = data.get(key, default)
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, int) or value < 1
        ):
            raise ConfigError(
                f"runtime.streaming.{key} must be a positive integer or "
                f"null, got {value!r}"
            )
        return value
    max_pending = positive_or_none("max_pending", 1024)
    commit_interval = positive_or_none("commit_interval", 256)
    backpressure = data.get("backpressure", "block")
    if backpressure not in BACKPRESSURE_POLICIES:
        raise ConfigError(
            f"runtime.streaming.backpressure must be one of "
            f"{BACKPRESSURE_POLICIES}, got {backpressure!r}"
        )
    return enabled, max_pending, commit_interval, backpressure


def _parse_schema(data: Any) -> Schema:
    if not isinstance(data, Mapping) or "relations" not in data:
        raise ConfigError("config needs schema.relations")
    relations = []
    for entry in data["relations"]:
        if not isinstance(entry, Mapping):
            raise ConfigError("each relation must be an object")
        for required in ("name", "key", "attributes"):
            if required not in entry:
                raise ConfigError(f"relation is missing {required!r}")
        attributes = []
        for attribute in entry["attributes"]:
            if isinstance(attribute, str):
                attributes.append(Attribute.hard(attribute))
                continue
            if not isinstance(attribute, Mapping) or "name" not in attribute:
                raise ConfigError(
                    f"bad attribute spec in relation {entry['name']!r}: "
                    f"{attribute!r}"
                )
            role = (
                AttributeRole.FLEXIBLE
                if attribute.get("flexible", False)
                else AttributeRole.HARD
            )
            try:
                attributes.append(
                    Attribute(
                        attribute["name"], role, float(attribute.get("weight", 1.0))
                    )
                )
            except (SchemaError, ValueError) as error:
                raise ConfigError(str(error))
        try:
            relations.append(Relation(entry["name"], attributes, entry["key"]))
        except SchemaError as error:
            raise ConfigError(str(error))
    try:
        return Schema(relations)
    except SchemaError as error:
        raise ConfigError(str(error))


def _parse_constraints(data: Any, schema: Schema) -> tuple[DenialConstraint, ...]:
    if not isinstance(data, list) or not data:
        raise ConfigError("config needs a non-empty 'constraints' list")
    try:
        constraints = parse_denials([str(line) for line in data])
    except ConstraintParseError as error:
        raise ConfigError(f"bad constraint: {error}")
    for constraint in constraints:
        try:
            constraint.validate(schema)
        except Exception as error:
            raise ConfigError(str(error))
    return tuple(constraints)
