"""The CompiledProgram artifact: fingerprint, round-trip, stale refusal."""

from __future__ import annotations

import json

import pytest

from repro.constraints.parser import parse_denials
from repro.exceptions import PlanError, StalePlanError
from repro.plan import (
    PLAN_FORMAT_VERSION,
    STALE,
    CompiledProgram,
    compile_program,
    compiler,
    program_fingerprint,
)
from repro.plan.program import availability_signature
from repro.workloads.clientbuy import CLIENT_BUY_CONSTRAINTS, client_buy_schema
from repro.workloads.finance import FINANCE_CONSTRAINTS, finance_schema


def _clientbuy():
    return client_buy_schema(), parse_denials(CLIENT_BUY_CONSTRAINTS)


class TestFingerprint:
    def test_stable_across_calls(self):
        schema, constraints = _clientbuy()
        assert program_fingerprint(schema, constraints) == program_fingerprint(
            schema, constraints
        )

    def test_sha256_hex(self):
        schema, constraints = _clientbuy()
        fingerprint = program_fingerprint(schema, constraints)
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # raises if not hex

    def test_constraint_order_is_semantic(self):
        """Violation output order follows constraint order, so swapping
        two constraints is a different program."""
        schema, constraints = _clientbuy()
        assert len(constraints) >= 2
        swapped = (constraints[1], constraints[0]) + tuple(constraints[2:])
        assert program_fingerprint(schema, constraints) != program_fingerprint(
            schema, swapped
        )

    def test_different_schema_different_fingerprint(self):
        _, constraints = _clientbuy()
        a = program_fingerprint(client_buy_schema(), constraints)
        b = program_fingerprint(finance_schema(), constraints)
        assert a != b

    def test_dropping_a_constraint_changes_it(self):
        schema, constraints = _clientbuy()
        assert program_fingerprint(schema, constraints) != program_fingerprint(
            schema, constraints[:-1]
        )

    def test_availability_not_in_fingerprint(self, monkeypatch):
        """A dependency flip re-keys the cache, not the program."""
        schema, constraints = _clientbuy()
        monkeypatch.setattr(compiler, "kernel_available", lambda: True)
        with_kernel = compile_program(schema, constraints)
        monkeypatch.setattr(compiler, "kernel_available", lambda: False)
        without = compile_program(schema, constraints)
        assert with_kernel.fingerprint == without.fingerprint
        assert (
            with_kernel.availability_signature != without.availability_signature
        )

    def test_availability_signature_is_short_and_stable(self):
        sig = availability_signature({"kernel": True, "pushdown": False})
        assert sig == availability_signature(
            {"pushdown": False, "kernel": True}
        )
        assert len(sig) == 12


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        schema, constraints = _clientbuy()
        program = compile_program(schema, constraints)
        restored = CompiledProgram.from_json(program.to_json())
        assert restored.fingerprint == program.fingerprint
        assert restored.entries == program.entries
        assert restored.solver == program.solver
        assert dict(restored.availability) == dict(program.availability)
        assert restored.version == PLAN_FORMAT_VERSION
        # the lint report is compare=False; check its payload separately
        assert restored.lint.to_dict() == program.lint.to_dict()

    def test_round_tripped_plan_still_validates(self):
        schema, constraints = _clientbuy()
        program = compile_program(schema, constraints)
        CompiledProgram.from_json(program.to_json()).require_match(
            schema, constraints
        )

    def test_unknown_version_refused(self):
        schema, constraints = _clientbuy()
        data = compile_program(schema, constraints).to_dict()
        data["version"] = PLAN_FORMAT_VERSION + 1
        with pytest.raises(PlanError, match="version"):
            CompiledProgram.from_dict(data)

    def test_missing_version_refused(self):
        schema, constraints = _clientbuy()
        data = compile_program(schema, constraints).to_dict()
        del data["version"]
        with pytest.raises(PlanError, match="version"):
            CompiledProgram.from_dict(data)

    def test_garbage_json_refused(self):
        with pytest.raises(PlanError, match="unreadable"):
            CompiledProgram.from_json("{not json")

    def test_non_object_json_refused(self):
        with pytest.raises(PlanError, match="unreadable"):
            CompiledProgram.from_json(json.dumps([1, 2, 3]))


class TestRequireMatch:
    def test_matching_inputs_pass(self):
        schema, constraints = _clientbuy()
        compile_program(schema, constraints).require_match(schema, constraints)

    def test_stale_plan_refused_with_structured_error(self):
        """A plan compiled for different constraints never applies
        silently: StalePlanError carries both fingerprints and a
        LINT062 diagnostic."""
        schema, constraints = _clientbuy()
        program = compile_program(schema, constraints)
        live = constraints[:-1]
        with pytest.raises(StalePlanError) as excinfo:
            program.require_match(schema, live)
        error = excinfo.value
        assert error.expected == program.fingerprint
        assert error.actual == program_fingerprint(schema, live)
        assert error.expected != error.actual
        codes = [d.code for d in error.diagnostics]
        assert codes == [STALE]
        assert error.diagnostics[0].details["expected"] == error.expected

    def test_schema_drift_is_stale_too(self):
        schema, constraints = _clientbuy()
        program = compile_program(schema, constraints)
        with pytest.raises(StalePlanError):
            program.require_match(finance_schema(), constraints)

    def test_entry_structure(self):
        schema, constraints = _clientbuy()
        program = compile_program(schema, constraints)
        assert len(program.entries) == len(constraints)
        for index, entry in enumerate(program.entries):
            assert entry.index == index
            assert entry.label == constraints[index].label
            assert entry.engines[-1] == "interpreted"
            assert entry.executed
