"""The static compiler: elimination, downgrades, strict gate, solver plan."""

from __future__ import annotations

import pytest

from repro import parse_denials, repair_database
from repro.exceptions import PlanError
from repro.model.columnar import kernel_available
from repro.plan import (
    DOWNGRADED,
    ELIMINATED,
    compile_program,
    compiler,
    default_availability,
)
from repro.workloads.clientbuy import (
    CLIENT_BUY_CONSTRAINTS,
    client_buy_schema,
    client_buy_workload,
)
from repro.workloads.tpch_like import TPCH_CONSTRAINTS, tpch_like_schema

#: ic_dead's body needs a < 10 and a > 20 simultaneously - unsatisfiable,
#: so its violation set is empty on every instance.  (The opposing
#: bounds that make it dead also trip locality condition (c) for the
#: whole set, so parity comparisons pass ``check_locality=False``.)
DEAD_CONSTRAINT = "ic_dead: NOT(Client(id, a, c), a < 10, a > 20)\n"

#: ic_cond orders over the hard Buy.id column: kernel/pushdown
#: compilability is data-dependent (LINT050/051).
CONDITIONAL_CONSTRAINT = "ic_cond: NOT(Buy(x, i, p), Buy(y, i2, p2), x < y, p > 30)\n"


class TestElimination:
    def test_dead_constraint_skipped_with_provenance(self):
        schema = client_buy_schema()
        constraints = parse_denials(CLIENT_BUY_CONSTRAINTS + DEAD_CONSTRAINT)
        program = compile_program(schema, constraints)
        assert len(program.entries) == 3
        dead = program.entry(2)
        assert not dead.executed
        assert dead.engines == ()
        assert [e.label for e in program.executed_entries] == ["ic1", "ic2"]
        codes = [d.code for d in program.provenance]
        assert ELIMINATED in codes
        eliminated = next(d for d in program.provenance if d.code == ELIMINATED)
        assert eliminated.constraint == "ic_dead"

    def test_elimination_is_byte_identical(self, make_clientbuy):
        """The hard contract: repairing with the plan (dead constraint
        skipped) equals repairing without it, change for change."""
        workload = make_clientbuy(40, inconsistency_ratio=0.5, seed=3)
        constraints = parse_denials(CLIENT_BUY_CONSTRAINTS + DEAD_CONSTRAINT)
        program = compile_program(workload.schema, constraints)
        assert program.solver.locality_ok is False
        unplanned = repair_database(
            workload.instance, constraints, check_locality=False
        )
        planned = repair_database(
            workload.instance, constraints, check_locality=False, plan=program
        )
        assert planned.changes == unplanned.changes
        assert planned.repaired == unplanned.repaired
        assert planned.cover_weight == unplanned.cover_weight
        assert planned.violations_before == unplanned.violations_before

    def test_subsumed_constraints_keep_executing(self):
        """LINT020/021 removal preserves coverage, not byte parity, so
        the compiler must NOT eliminate subsumed or duplicate
        constraints."""
        schema = client_buy_schema()
        text = (
            "s2: NOT(Client(id, a, c), a < 18, c > 50)\n"
            "s1: NOT(Client(id, a, c), a < 10, c > 60)\n"
        )
        constraints = parse_denials(text)
        program = compile_program(schema, constraints)
        assert [e.label for e in program.executed_entries] == ["s2", "s1"]
        # the advisory lint diagnostic is still visible in the plan
        assert program.lint.by_code("LINT020")


class TestEngineClassification:
    def test_chains_ranked_and_end_interpreted(self, monkeypatch):
        monkeypatch.setattr(compiler, "kernel_available", lambda: True)
        schema = client_buy_schema()
        constraints = parse_denials(CLIENT_BUY_CONSTRAINTS)
        program = compile_program(schema, constraints)
        for entry in program.executed_entries:
            assert entry.engines == ("pushdown", "kernel", "interpreted")
            assert entry.cost["work"] > 0
            scores = entry.cost["scores"]
            assert scores["pushdown"] < scores["kernel"] < scores["interpreted"]

    def test_unavailable_kernel_dropped_with_lint061(self, monkeypatch):
        monkeypatch.setattr(compiler, "kernel_available", lambda: False)
        schema = client_buy_schema()
        constraints = parse_denials(CLIENT_BUY_CONSTRAINTS)
        program = compile_program(schema, constraints)
        for entry in program.executed_entries:
            assert "kernel" not in entry.engines
            assert entry.engines[-1] == "interpreted"
        downgrades = [d for d in program.provenance if d.code == DOWNGRADED]
        assert len(downgrades) == len(program.executed_entries)
        assert all(d.details["engine"] == "kernel" for d in downgrades)

    def test_no_engines_available_still_interpreted(self, monkeypatch):
        monkeypatch.setattr(
            compiler,
            "default_availability",
            lambda: {"kernel": False, "pushdown": False},
        )
        schema = client_buy_schema()
        constraints = parse_denials(CLIENT_BUY_CONSTRAINTS)
        program = compile_program(schema, constraints)
        for entry in program.executed_entries:
            assert entry.engines == ("interpreted",)

    def test_conditional_constraint_marked(self, monkeypatch):
        monkeypatch.setattr(compiler, "kernel_available", lambda: True)
        schema = client_buy_schema()
        constraints = parse_denials(CONDITIONAL_CONSTRAINT)
        program = compile_program(schema, constraints)
        (entry,) = program.executed_entries
        assert set(entry.conditional) == {"kernel", "pushdown"}
        # conditional engines stay in the chain: fallback preserved
        assert entry.engines == ("pushdown", "kernel", "interpreted")

    def test_default_availability_probes_environment(self):
        availability = default_availability()
        assert availability["kernel"] == kernel_available()
        assert availability["pushdown"] is True


class TestStrict:
    def test_strict_refuses_conditional(self):
        schema = client_buy_schema()
        constraints = parse_denials(
            CLIENT_BUY_CONSTRAINTS + CONDITIONAL_CONSTRAINT
        )
        with pytest.raises(PlanError, match="strict compilation failed") as exc:
            compile_program(schema, constraints, strict=True)
        diagnostics = exc.value.diagnostics
        assert [d.constraint for d in diagnostics] == ["ic_cond"]
        assert all(d.code == DOWNGRADED for d in diagnostics)

    def test_strict_accepts_unconditional(self):
        schema = client_buy_schema()
        constraints = parse_denials(CLIENT_BUY_CONSTRAINTS)
        program = compile_program(schema, constraints, strict=True)
        assert all(e.conditional == () for e in program.executed_entries)

    def test_environment_gap_is_not_a_strict_failure(self, monkeypatch):
        """A missing optional dependency says nothing about the
        constraint; strict only gates data-dependent classification."""
        monkeypatch.setattr(compiler, "kernel_available", lambda: False)
        schema = client_buy_schema()
        constraints = parse_denials(CLIENT_BUY_CONSTRAINTS)
        compile_program(schema, constraints, strict=True)

    def test_tpch_tq6_blocks_strict(self):
        schema = tpch_like_schema()
        constraints = parse_denials(TPCH_CONSTRAINTS)
        with pytest.raises(PlanError) as exc:
            compile_program(schema, constraints, strict=True)
        assert [d.constraint for d in exc.value.diagnostics] == ["tq6"]

    def test_invalid_constraint_always_refused(self):
        schema = client_buy_schema()
        constraints = parse_denials("bad: NOT(Nowhere(x), x > 1)")
        with pytest.raises(PlanError, match="LINT001"):
            compile_program(schema, constraints)


class TestSolverPlan:
    def test_solver_pre_resolution(self):
        schema = client_buy_schema()
        constraints = parse_denials(CLIENT_BUY_CONSTRAINTS)
        program = compile_program(schema, constraints)
        assert program.solver.locality_ok is True
        assert program.solver.decomposition == "connected-components"
        assert program.solver.predicted_max_frequency >= 1

    def test_locality_violation_recorded(self):
        schema = client_buy_schema()
        constraints = parse_denials("l1: NOT(Client(id, a, c), a = 70)")
        program = compile_program(schema, constraints)
        assert program.solver.locality_ok is False

    def test_dead_entries_do_not_raise_the_f_bound(self):
        schema = client_buy_schema()
        with_dead = compile_program(
            schema, parse_denials(CLIENT_BUY_CONSTRAINTS + DEAD_CONSTRAINT)
        )
        without = compile_program(schema, parse_denials(CLIENT_BUY_CONSTRAINTS))
        assert (
            with_dead.solver.predicted_max_frequency
            == without.solver.predicted_max_frequency
        )
