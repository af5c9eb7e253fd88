"""The :class:`CompiledProgram` artifact and its content fingerprint.

A compiled program is the *static* half of a repair run: everything the
engine can derive from ``(schema, constraint set, engine availability)``
alone, frozen into a serializable artifact so that per-call re-analysis
(lint passes, locality checking, engine classification, solver
pre-selection) happens once per configuration instead of once per
``repair_database`` call.

The artifact is keyed by a **content fingerprint**: a SHA-256 digest
over the canonical JSON form of the schema and the constraint list (in
order - violation output order follows constraint order, so order is
semantic).  Engine *availability* (NumPy importable, pushdown assumed)
deliberately stays **out** of the fingerprint: it keys the on-disk cache
separately (:mod:`repro.plan.cache`), so a dependency flip invalidates
cached engine chains without pretending the constraint program itself
changed.

A plan handed to the runtime is validated with :meth:`CompiledProgram.
require_match` - a fingerprint mismatch raises
:class:`~repro.exceptions.StalePlanError` (code ``LINT062``), never
silently applies a stale plan.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.constraints.denial import DenialConstraint
from repro.exceptions import PlanError, StalePlanError
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.model.schema import Schema
from repro.violations.detector import AUTO_CHAIN

#: Serialization format version; bumped on incompatible artifact changes.
PLAN_FORMAT_VERSION = 1

#: Plan provenance codes (continuing the stable ``LINTxxx`` space).
ELIMINATED = "LINT060"  # constraint eliminated by plan (dead body)
DOWNGRADED = "LINT061"  # plan dropped a statically unavailable engine
STALE = "LINT062"       # plan fingerprint / cache entry is stale

#: Entry actions.
EXECUTE = "execute"
SKIP = "skip"


def schema_document(schema: Schema) -> dict[str, Any]:
    """Canonical JSON form of a schema (order-preserving, role-complete)."""
    return {
        "relations": [
            {
                "name": relation.name,
                "key": list(relation.key),
                "attributes": [
                    {
                        "name": attribute.name,
                        "role": attribute.role.value,
                        "weight": attribute.weight,
                    }
                    for attribute in relation.attributes
                ],
            }
            for relation in schema
        ]
    }


def constraint_documents(
    constraints: Sequence[DenialConstraint],
) -> list[dict[str, str]]:
    """Canonical JSON form of a constraint list (order is semantic)."""
    return [
        {"name": constraint.name, "text": str(constraint)}
        for constraint in constraints
    ]


def fingerprint_document(
    schema: Schema, constraints: Sequence[DenialConstraint]
) -> dict[str, Any]:
    """Everything the fingerprint covers, as one JSON document."""
    return {
        "version": PLAN_FORMAT_VERSION,
        "schema": schema_document(schema),
        "constraints": constraint_documents(constraints),
    }


def canonical_json(document: Mapping[str, Any]) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def program_fingerprint(
    schema: Schema, constraints: Iterable[DenialConstraint]
) -> str:
    """Stable SHA-256 hex digest of ``(schema, constraints)``."""
    document = fingerprint_document(schema, tuple(constraints))
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


def availability_signature(availability: Mapping[str, bool]) -> str:
    """Short digest of an engine-availability map (cache key component)."""
    payload = canonical_json({k: bool(v) for k, v in availability.items()})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class EnginePlan:
    """The static verdict for one constraint.

    ``engines`` is the detector's ``auto`` engine chain under the
    compile-time availability (:func:`repro.violations.detector.
    engine_chain`, most to least preferred), so it always ends in
    ``"interpreted"`` for executed entries; it documents the run, which
    walks the same ladder with or without a plan.  ``conditional`` names
    chain engines whose execution is data-dependent (``LINT050`` /
    ``LINT051``): statically admissible, but the runtime may refuse
    them.  ``cost`` carries the static estimate shown by ``repro
    explain-plan`` (atom count, join arity, selectivity class,
    per-engine scores).
    """

    index: int
    label: str
    text: str
    action: str
    engines: tuple[str, ...]
    conditional: tuple[str, ...]
    cost: Mapping[str, Any]
    predicted_frequency: int

    @property
    def executed(self) -> bool:
        """True when the runtime runs this constraint's detection."""
        return self.action == EXECUTE

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "text": self.text,
            "action": self.action,
            "engines": list(self.engines),
            "conditional": list(self.conditional),
            "cost": dict(self.cost),
            "predicted_frequency": self.predicted_frequency,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EnginePlan":
        return cls(
            index=int(data["index"]),
            label=str(data["label"]),
            text=str(data["text"]),
            action=str(data["action"]),
            engines=tuple(str(e) for e in data["engines"]),
            conditional=tuple(str(e) for e in data["conditional"]),
            cost=dict(data["cost"]),
            predicted_frequency=int(data["predicted_frequency"]),
        )


@dataclass(frozen=True)
class SolverPlan:
    """Static solver and decomposition pre-selection.

    ``predicted_max_frequency`` the static bound on the MWSC element
    frequency ``f`` (the layer algorithm's approximation factor);
    ``locality_ok`` whether the Section-2 locality conditions all hold,
    letting the runtime skip ``check_local_set`` re-analysis;
    ``decomposition`` the pre-selected solving strategy over connected
    components.
    """

    predicted_max_frequency: int
    locality_ok: bool
    decomposition: str = "connected-components"

    def to_dict(self) -> dict[str, Any]:
        return {
            "predicted_max_frequency": self.predicted_max_frequency,
            "locality_ok": self.locality_ok,
            "decomposition": self.decomposition,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverPlan":
        return cls(
            predicted_max_frequency=int(data["predicted_max_frequency"]),
            locality_ok=bool(data["locality_ok"]),
            decomposition=str(data.get("decomposition", "connected-components")),
        )


def stale_plan_error(
    expected: str, actual: str, *, context: str = ""
) -> StalePlanError:
    """Build the structured refusal for a fingerprint mismatch."""
    suffix = f" ({context})" if context else ""
    diagnostic = Diagnostic(
        code=STALE,
        severity=Severity.ERROR,
        constraint=None,
        message=(
            "compiled plan is stale: fingerprint "
            f"{expected[:12]}… does not match the live schema/constraints "
            f"fingerprint {actual[:12]}…{suffix}"
        ),
        details={"expected": expected, "actual": actual},
        suggestion="recompile the plan with `repro compile`",
    )
    return StalePlanError(
        diagnostic.message,
        expected=expected,
        actual=actual,
        diagnostics=(diagnostic,),
    )


@dataclass(frozen=True)
class CompiledProgram:
    """The serializable result of static constraint-program compilation.

    ``entries`` has one :class:`EnginePlan` per input constraint, in
    input order (dead constraints are present with ``action="skip"`` so
    indices line up); ``solver`` the static solver pre-selection;
    ``lint`` the full lint report the compiler ran; ``provenance`` the
    plan-added diagnostics (``LINT060``/``LINT061``).
    """

    fingerprint: str
    availability: Mapping[str, bool]
    entries: tuple[EnginePlan, ...]
    solver: SolverPlan
    lint: LintReport = field(compare=False)
    provenance: tuple[Diagnostic, ...] = ()
    version: int = PLAN_FORMAT_VERSION

    # -- structure -----------------------------------------------------------

    @property
    def executed_entries(self) -> tuple[EnginePlan, ...]:
        """Entries the runtime actually detects (dead ones skipped)."""
        return tuple(e for e in self.entries if e.executed)

    @property
    def skipped_entries(self) -> tuple[EnginePlan, ...]:
        """Entries statically eliminated from execution."""
        return tuple(e for e in self.entries if not e.executed)

    @property
    def availability_signature(self) -> str:
        """Cache-key component for the availability map."""
        return availability_signature(self.availability)

    def entry(self, index: int) -> EnginePlan:
        """The entry for the ``index``-th input constraint."""
        return self.entries[index]

    # -- validation ----------------------------------------------------------

    def require_match(
        self, schema: Schema, constraints: Sequence[DenialConstraint]
    ) -> None:
        """Refuse to apply this plan to anything but its own inputs.

        Raises :class:`~repro.exceptions.StalePlanError` (``LINT062``)
        when the live ``(schema, constraints)`` fingerprint differs from
        the one this program was compiled from, and
        :class:`~repro.exceptions.PlanError` on a structural mismatch
        (entry count vs. constraint count - a corrupted artifact).
        """
        actual = program_fingerprint(schema, tuple(constraints))
        if actual != self.fingerprint:
            raise stale_plan_error(self.fingerprint, actual)
        if len(self.entries) != len(tuple(constraints)):
            raise PlanError(
                f"corrupt plan: {len(self.entries)} entries for "
                f"{len(tuple(constraints))} constraints despite matching "
                "fingerprint"
            )

    def executed_constraints(
        self, constraints: Sequence[DenialConstraint]
    ) -> tuple[DenialConstraint, ...]:
        """The caller's constraint objects this plan executes, in order."""
        return tuple(constraints[e.index] for e in self.executed_entries)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "availability": {k: bool(v) for k, v in self.availability.items()},
            "entries": [entry.to_dict() for entry in self.entries],
            "solver": self.solver.to_dict(),
            "lint": self.lint.to_dict(),
            "provenance": [d.to_dict() for d in self.provenance],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CompiledProgram":
        version = int(data.get("version", -1))
        if version != PLAN_FORMAT_VERSION:
            raise PlanError(
                f"unsupported plan format version {version} "
                f"(this build reads version {PLAN_FORMAT_VERSION})"
            )
        program = cls(
            fingerprint=str(data["fingerprint"]),
            availability={
                str(k): bool(v) for k, v in dict(data["availability"]).items()
            },
            entries=tuple(
                EnginePlan.from_dict(entry) for entry in data["entries"]
            ),
            solver=SolverPlan.from_dict(data["solver"]),
            lint=LintReport.from_dict(data["lint"]),
            provenance=tuple(
                Diagnostic.from_dict(d) for d in data.get("provenance", ())
            ),
            version=version,
        )
        for entry in program.executed_entries:
            chain = entry.engines
            if chain[-1:] != ("interpreted",) or not set(chain) <= set(AUTO_CHAIN):
                raise PlanError(
                    f"corrupt plan: {entry.label} has engine chain {list(chain)}; "
                    f"an executed chain names engines from {list(AUTO_CHAIN)} "
                    "and ends in 'interpreted'"
                )
        return program

    @classmethod
    def from_json(cls, text: str) -> "CompiledProgram":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise PlanError(f"unreadable plan artifact: {error}") from error
        if not isinstance(data, dict):
            raise PlanError("unreadable plan artifact: not a JSON object")
        return cls.from_dict(data)
