"""Planned detection: dead-constraint filter, the shared engine ladder, decomposition."""

from __future__ import annotations

import pytest

from repro import parse_denials, repair_database
from repro.exceptions import KernelError, PlanError, PushdownError
from repro.obs.trace import Tracer
from repro.plan import CompiledProgram, compile_program, planned_find_all_violations
from repro.storage import SqliteBackend
from repro.violations import detector
from repro.violations.detector import engine_chain, find_all_violations
from repro.workloads.clientbuy import client_buy_workload


@pytest.fixture(scope="module")
def workload():
    return client_buy_workload(60, inconsistency_ratio=0.5, seed=7)


def _downgrades(tracer: Tracer, constraint, engine: str) -> int:
    return tracer.metrics.counter(
        "engine_downgrades", constraint=constraint.label, engine=engine
    ).value


class TestEffectiveChain:
    def test_pushdown_dropped_off_backend(self, workload):
        """A memory instance can never serve pushdown; the step is
        left out of the chain instead of refusing once per round."""
        program = compile_program(workload.schema, workload.constraints)
        assert program.entries[0].engines[0] == "pushdown"
        tracer = Tracer()
        with tracer.activate():
            planned_find_all_violations(
                workload.instance, workload.constraints, program
            )
        for constraint in workload.constraints:
            assert _downgrades(tracer, constraint, "pushdown") == 0

    def test_chain_without_pushdown_untouched(self):
        assert engine_chain(pushdown=False, kernel=True) == (
            "kernel",
            "interpreted",
        )


class TestPlannedFindViolations:
    def test_agrees_with_unplanned_detection(self, workload):
        program = compile_program(workload.schema, workload.constraints)
        expected = find_all_violations(workload.instance, workload.constraints)
        got = planned_find_all_violations(
            workload.instance, workload.constraints, program
        )
        assert got == expected

    def test_empty_chain_is_a_corrupt_plan(self, workload):
        """A hand-edited artifact with an empty executed chain is
        refused when it is loaded, before any run uses it."""
        data = compile_program(workload.schema, workload.constraints).to_dict()
        data["entries"][0]["engines"] = []
        with pytest.raises(PlanError, match="corrupt plan"):
            CompiledProgram.from_dict(data)

    def test_runtime_refusal_falls_through_and_is_recorded(
        self, workload, monkeypatch
    ):
        """An engine that refuses at execution time falls through to the
        next chain entry; the downgrade lands on the
        ``engine_downgrades`` counter."""

        def refusing_pushdown(*args, **kwargs):
            raise PushdownError("synthetic refusal")

        program = compile_program(workload.schema, workload.constraints)
        expected = find_all_violations(
            workload.instance, workload.constraints, engine="interpreted"
        )
        monkeypatch.setattr(detector, "pushdown_used_sets", refusing_pushdown)
        tracer = Tracer()
        with SqliteBackend.from_instance(workload.instance) as backend:
            loaded = backend.load_instance(workload.schema)
            with tracer.activate():
                got = planned_find_all_violations(
                    loaded, workload.constraints, program
                )
        assert got == expected
        for constraint in workload.constraints:
            assert _downgrades(tracer, constraint, "pushdown") == 1

    def test_last_engine_refusal_propagates(self, workload, monkeypatch):
        """Only earlier chain entries absorb refusals; a refusal from
        the final engine is a real error, not silence."""

        def refusing_kernel(*args, **kwargs):
            raise KernelError("synthetic refusal")

        program = compile_program(workload.schema, workload.constraints)
        monkeypatch.setattr(detector, "kernel_witnesses", refusing_kernel)
        with pytest.raises(KernelError):
            planned_find_all_violations(
                workload.instance, workload.constraints, program, engine="kernel"
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
