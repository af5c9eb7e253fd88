"""Human-readable rendering of compiled plans (``repro explain-plan``)."""

from __future__ import annotations

from typing import Any

from repro.plan.program import CompiledProgram


def _format_cost(cost: "dict[str, Any]") -> str:
    """Compact one-line cost summary: signals plus estimated work."""
    return (
        f"atoms={cost.get('atoms', '?')} "
        f"joins={cost.get('join_arity', '?')} "
        f"class={cost.get('selectivity_class', '?')} "
        f"work={cost.get('work', '?')}"
    )


def render_plan_text(program: CompiledProgram) -> str:
    """The explain-plan table: constraint → engine → cost → diagnostics.

    One row per input constraint (skipped entries render with engine
    ``-``), followed by the solver pre-selection and the provenance /
    lint diagnostic counts.
    """
    rows: list[tuple[str, str, str, str]] = []
    diag_by_label: dict[str, list[str]] = {}
    for diagnostic in (*program.provenance, *program.lint):
        if diagnostic.constraint:
            diag_by_label.setdefault(diagnostic.constraint, []).append(
                diagnostic.code
            )
    for entry in program.entries:
        engine = "->".join(entry.engines) if entry.engines else "-"
        if entry.conditional:
            engine += " (conditional: " + ",".join(entry.conditional) + ")"
        codes = sorted(set(diag_by_label.get(entry.label, [])))
        rows.append(
            (
                entry.label,
                engine if entry.executed else f"- ({entry.action})",
                _format_cost(dict(entry.cost)),
                ",".join(codes) if codes else "-",
            )
        )
    headers = ("constraint", "engine", "cost", "diagnostics")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(4)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(4)),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(4)))
    lines.append("")
    lines.append(f"fingerprint : {program.fingerprint}")
    lines.append(
        "availability: "
        + ", ".join(
            f"{name}={'yes' if ok else 'no'}"
            for name, ok in sorted(program.availability.items())
        )
    )
    lines.append(
        f"solver      : predicted_f={program.solver.predicted_max_frequency} "
        f"locality_ok={program.solver.locality_ok} "
        f"decomposition={program.solver.decomposition}"
    )
    lines.append(
        f"entries     : {len(program.executed_entries)} executed, "
        f"{len(program.skipped_entries)} eliminated"
    )
    lines.append(
        f"diagnostics : {len(program.provenance)} plan, "
        f"{len(program.lint)} lint"
    )
    return "\n".join(lines)
