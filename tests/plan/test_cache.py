"""The on-disk plan cache: keying, hit/miss/stale counters, strict re-check."""

from __future__ import annotations

import json

import pytest

from repro import parse_denials
from repro.exceptions import PlanError
from repro.obs.trace import Tracer
from repro.plan import PlanCache, compile_program, compiler, default_cache_dir
from repro.workloads.clientbuy import CLIENT_BUY_CONSTRAINTS, client_buy_schema
from repro.workloads.finance import FINANCE_CONSTRAINTS, finance_schema


@pytest.fixture
def inputs():
    return client_buy_schema(), parse_denials(CLIENT_BUY_CONSTRAINTS)


def _counter(tracer: Tracer, name: str) -> float:
    return tracer.metrics.counter(name).value


class TestCacheKeying:
    def test_path_embeds_fingerprint_and_availability(self, tmp_path, inputs):
        schema, constraints = inputs
        cache = PlanCache(tmp_path)
        program, hit = cache.get_or_compile(schema, constraints)
        assert not hit
        path = cache.path_for(
            program.fingerprint, program.availability_signature
        )
        assert path.exists()
        assert path.parent == tmp_path
        assert path.name.startswith(program.fingerprint)

    def test_availability_flip_is_a_different_key(
        self, tmp_path, inputs, monkeypatch
    ):
        schema, constraints = inputs
        cache = PlanCache(tmp_path)
        monkeypatch.setattr(compiler, "kernel_available", lambda: True)
        cache.get_or_compile(schema, constraints)
        monkeypatch.setattr(compiler, "kernel_available", lambda: False)
        _, hit = cache.get_or_compile(schema, constraints)
        assert not hit  # same program, different availability -> recompile
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_default_dir_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "explicit"))
        assert default_cache_dir() == tmp_path / "explicit"
        monkeypatch.delenv("REPRO_PLAN_CACHE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro" / "plans"


class TestHitMissCounters:
    def test_miss_then_hit(self, tmp_path, inputs):
        schema, constraints = inputs
        cache = PlanCache(tmp_path)
        tracer = Tracer()
        with tracer.activate():
            first, hit_first = cache.get_or_compile(schema, constraints)
            second, hit_second = cache.get_or_compile(schema, constraints)
        assert (hit_first, hit_second) == (False, True)
        assert first.fingerprint == second.fingerprint
        assert first.entries == second.entries
        assert _counter(tracer, "plan_cache_misses") == 1
        assert _counter(tracer, "plan_cache_hits") == 1
        assert _counter(tracer, "plan_cache_stale") == 0

    def test_different_programs_do_not_collide(self, tmp_path, inputs):
        schema, constraints = inputs
        cache = PlanCache(tmp_path)
        cache.get_or_compile(schema, constraints)
        other, hit = cache.get_or_compile(
            finance_schema(), parse_denials(FINANCE_CONSTRAINTS)
        )
        assert not hit
        _, hit_again = cache.get_or_compile(schema, constraints)
        assert hit_again

    def test_counters_silent_without_tracer(self, tmp_path, inputs):
        schema, constraints = inputs
        cache = PlanCache(tmp_path)
        cache.get_or_compile(schema, constraints)  # NullMetrics: no error
        _, hit = cache.get_or_compile(schema, constraints)
        assert hit


class TestStaleEntries:
    def test_tampered_fingerprint_is_stale_never_applied(
        self, tmp_path, inputs
    ):
        schema, constraints = inputs
        cache = PlanCache(tmp_path)
        program, _ = cache.get_or_compile(schema, constraints)
        path = cache.path_for(
            program.fingerprint, program.availability_signature
        )
        payload = json.loads(path.read_text())
        payload["fingerprint"] = "0" * 64
        path.write_text(json.dumps(payload))

        tracer = Tracer()
        with tracer.activate():
            reloaded, hit = cache.get_or_compile(schema, constraints)
        assert not hit  # stale entry = miss; recompiled fresh
        assert reloaded.fingerprint == program.fingerprint
        assert _counter(tracer, "plan_cache_stale") == 1
        assert _counter(tracer, "plan_cache_misses") == 1

    def test_corrupt_json_is_stale(self, tmp_path, inputs):
        schema, constraints = inputs
        cache = PlanCache(tmp_path)
        program, _ = cache.get_or_compile(schema, constraints)
        path = cache.path_for(
            program.fingerprint, program.availability_signature
        )
        path.write_text("{truncated")
        tracer = Tracer()
        with tracer.activate():
            reloaded, hit = cache.get_or_compile(schema, constraints)
        assert not hit
        assert reloaded.fingerprint == program.fingerprint
        assert _counter(tracer, "plan_cache_stale") == 1

    def test_future_version_is_stale(self, tmp_path, inputs):
        schema, constraints = inputs
        cache = PlanCache(tmp_path)
        program, _ = cache.get_or_compile(schema, constraints)
        path = cache.path_for(
            program.fingerprint, program.availability_signature
        )
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        _, hit = cache.get_or_compile(schema, constraints)
        assert not hit


class TestStrictThroughCache:
    CONDITIONAL = "ic_cond: NOT(Buy(x, i, p), Buy(y, i2, p2), x < y, p > 30)\n"

    def test_cached_conditional_plan_recheck(self, tmp_path):
        """A non-strict compile may cache a conditional plan; a later
        strict request must still refuse it."""
        schema = client_buy_schema()
        constraints = parse_denials(CLIENT_BUY_CONSTRAINTS + self.CONDITIONAL)
        cache = PlanCache(tmp_path)
        _, hit = cache.get_or_compile(schema, constraints, strict=False)
        assert not hit
        with pytest.raises(PlanError, match="strict compilation failed"):
            cache.get_or_compile(schema, constraints, strict=True)

    def test_strict_failure_stores_nothing(self, tmp_path):
        schema = client_buy_schema()
        constraints = parse_denials(self.CONDITIONAL)
        cache = PlanCache(tmp_path)
        with pytest.raises(PlanError):
            cache.get_or_compile(schema, constraints, strict=True)
        assert list(tmp_path.glob("*.json")) == []

    def test_strict_hit_on_unconditional_plan(self, tmp_path):
        schema = client_buy_schema()
        constraints = parse_denials(CLIENT_BUY_CONSTRAINTS)
        cache = PlanCache(tmp_path)
        cache.get_or_compile(schema, constraints, strict=False)
        _, hit = cache.get_or_compile(schema, constraints, strict=True)
        assert hit


def test_store_round_trips_byte_identically(tmp_path, inputs):
    schema, constraints = inputs
    program = compile_program(schema, constraints)
    cache = PlanCache(tmp_path)
    path = cache.store(program)
    loaded = cache.load(schema, constraints)
    assert loaded is not None
    assert loaded.to_json() == program.to_json()
    assert path.read_text(encoding="utf-8") == program.to_json()
