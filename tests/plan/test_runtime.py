"""Planned detection: chain execution, runtime refusal fallback, decomposition."""

from __future__ import annotations

import pytest

from repro import parse_denials, repair_database
from repro.exceptions import KernelError, PlanError
from repro.obs.trace import Tracer
from repro.plan import compile_program, planned_find_all_violations
from repro.plan.runtime import effective_chain, planned_find_violations
from repro.violations.detector import find_all_violations
from repro.workloads.clientbuy import CLIENT_BUY_CONSTRAINTS, client_buy_workload


@pytest.fixture(scope="module")
def workload():
    return client_buy_workload(60, inconsistency_ratio=0.5, seed=7)


class TestEffectiveChain:
    def test_pushdown_dropped_off_backend(self, workload):
        """A memory instance can never serve pushdown; the step is
        removed statically instead of refusing once per round."""
        chain = ("pushdown", "kernel", "interpreted")
        assert effective_chain(chain, workload.instance) == (
            "kernel",
            "interpreted",
        )

    def test_chain_without_pushdown_untouched(self, workload):
        chain = ("kernel", "interpreted")
        assert effective_chain(chain, workload.instance) == chain


class TestPlannedFindViolations:
    def test_agrees_with_unplanned_detection(self, workload):
        program = compile_program(workload.schema, workload.constraints)
        expected = find_all_violations(workload.instance, workload.constraints)
        got = planned_find_all_violations(
            workload.instance, workload.constraints, program
        )
        assert got == expected

    def test_empty_chain_is_a_corrupt_plan(self, workload):
        with pytest.raises(PlanError, match="empty"):
            planned_find_violations(
                workload.instance, workload.constraints[0], ("pushdown",)
            )

    def test_runtime_refusal_falls_through_and_is_recorded(
        self, workload, monkeypatch
    ):
        """An engine that refuses at execution time falls through to the
        next chain entry; the downgrade lands on the
        ``plan_engine_downgrades`` counter."""
        import repro.plan.runtime as runtime_module

        real = runtime_module.find_violations

        def refusing_kernel(instance, constraint, max_violations, engine):
            if engine == "kernel":
                raise KernelError("synthetic refusal")
            return real(instance, constraint, max_violations, engine)

        monkeypatch.setattr(runtime_module, "find_violations", refusing_kernel)
        constraint = workload.constraints[0]
        expected = real(workload.instance, constraint, None, "interpreted")
        tracer = Tracer()
        with tracer.activate():
            got = planned_find_violations(
                workload.instance, constraint, ("kernel", "interpreted")
            )
        assert got == expected
        downgrades = tracer.metrics.counter(
            "plan_engine_downgrades",
            constraint=constraint.label,
            engine="kernel",
        )
        assert downgrades.value == 1

    def test_last_engine_refusal_propagates(self, workload, monkeypatch):
        """Only earlier chain entries absorb refusals; a refusal from
        the final engine is a real error, not silence."""
        import repro.plan.runtime as runtime_module

        def always_refuse(instance, constraint, max_violations, engine):
            raise KernelError("synthetic refusal")

        monkeypatch.setattr(runtime_module, "find_violations", always_refuse)
        with pytest.raises(KernelError):
            planned_find_violations(
                workload.instance, workload.constraints[0], ("kernel",)
            )


class TestPlannedParallel:
    @pytest.mark.parametrize("backend", ["auto"])
    def test_parallel_matches_serial(self, workload, backend):
        """A planned repair solved per component matches the planned serial one."""
        program = compile_program(workload.schema, workload.constraints)
        serial = repair_database(workload.instance, workload.constraints, plan=program)
        parallel = repair_database(
            workload.instance, workload.constraints, plan=program, parallel=backend
        )
        assert parallel.violations_before == serial.violations_before
        assert parallel.changes == serial.changes
        assert parallel.repaired == serial.repaired

    def test_skipped_entries_never_detected(self, workload):
        dead = parse_denials(
            "ic_dead: NOT(Client(id, a, c), a < 10, a > 20)"
        )
        constraints = tuple(workload.constraints) + tuple(dead)
        program = compile_program(workload.schema, constraints)
        assert len(program.skipped_entries) == 1
        got = planned_find_all_violations(
            workload.instance, constraints, program
        )
        assert got == find_all_violations(
            workload.instance, workload.constraints
        )
