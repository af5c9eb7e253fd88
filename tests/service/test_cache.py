"""ArtifactCache: keying, LRU bounds, integrity, poison refusal."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import PoisonedArtifactError
from repro.obs.metrics import MetricsRegistry
from repro.plan import compile_program
from repro.service import (
    COLUMNAR,
    JOIN_INDEX,
    LINT,
    PLAN,
    VIOLATIONS,
    ArtifactCache,
)
from repro.violations.detector import find_all_violations


@pytest.fixture
def cache():
    return ArtifactCache(max_entries=4, metrics=MetricsRegistry())


class TestKeying:
    def test_miss_then_hit(self, cache):
        assert cache.get(COLUMNAR, "fp1", "d1") is None
        cache.put(COLUMNAR, "fp1", {"x": 1}, "d1")
        assert cache.get(COLUMNAR, "fp1", "d1") == {"x": 1}

    def test_data_token_distinguishes_entries(self, cache):
        cache.put(COLUMNAR, "fp1", "for-d1", "d1")
        assert cache.get(COLUMNAR, "fp1", "d2") is None
        assert cache.get(COLUMNAR, "fp1", "d1") == "for-d1"

    def test_plan_and_lint_are_data_independent(self, cache):
        """Plans/lint depend only on (schema, constraints): the data
        token is dropped from their key, so every instance shares them."""
        sentinel = object()
        cache.put(COLUMNAR, "fp", sentinel, "")  # digest-free kind
        assert cache.key_for(PLAN, "fp", "d1") == cache.key_for(PLAN, "fp", "d2")
        assert cache.key_for(LINT, "fp", "d1") == (LINT, "fp", "")
        assert cache.key_for(VIOLATIONS, "fp", "d1") != cache.key_for(
            VIOLATIONS, "fp", "d2"
        )

    def test_kind_distinguishes_entries(self, cache):
        cache.put(COLUMNAR, "fp", "columnar-value")
        assert cache.get(JOIN_INDEX, "fp") is None

    def test_counters(self, cache):
        cache.get(COLUMNAR, "fp")
        cache.put(COLUMNAR, "fp", 1)
        cache.get(COLUMNAR, "fp")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1


class TestLRU:
    def test_eviction_at_bound(self, cache):
        for i in range(6):
            cache.put(COLUMNAR, f"fp{i}", i)
        assert len(cache) == 4
        assert cache.get(COLUMNAR, "fp0") is None
        assert cache.get(COLUMNAR, "fp5") == 5
        assert cache.stats()["evictions"] == 2

    def test_get_refreshes_recency(self, cache):
        for i in range(4):
            cache.put(COLUMNAR, f"fp{i}", i)
        cache.get(COLUMNAR, "fp0")  # refresh the oldest
        cache.put(COLUMNAR, "fp4", 4)
        assert cache.get(COLUMNAR, "fp0") == 0
        assert cache.get(COLUMNAR, "fp1") is None

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)

    def test_invalidate_and_clear(self, cache):
        cache.put(COLUMNAR, "fp", 1)
        assert cache.invalidate(COLUMNAR, "fp") is True
        assert cache.invalidate(COLUMNAR, "fp") is False
        cache.put(COLUMNAR, "fp", 1)
        cache.clear()
        assert len(cache) == 0


class TestIntegrity:
    def test_poisoned_entry_refused_and_evicted(self, cache):
        cache.put(COLUMNAR, "fp", "value")
        assert cache.poison(COLUMNAR, "fp") is True
        with pytest.raises(PoisonedArtifactError) as excinfo:
            cache.get(COLUMNAR, "fp")
        assert excinfo.value.kind == COLUMNAR
        # Refused once, evicted: afterwards it is a plain miss.
        assert cache.get(COLUMNAR, "fp") is None
        assert cache.stats()["poisoned"] == 1

    def test_poison_missing_entry_is_noop(self, cache):
        assert cache.poison(COLUMNAR, "nope") is False

    def test_plan_digest_roundtrip(self, cache, small_clientbuy):
        program = compile_program(
            small_clientbuy.schema, small_clientbuy.constraints
        )
        cache.put(PLAN, program.fingerprint, program)
        assert cache.get(PLAN, program.fingerprint) is program

    def test_poisoned_plan_refused(self, cache, small_clientbuy):
        program = compile_program(
            small_clientbuy.schema, small_clientbuy.constraints
        )
        cache.put(PLAN, program.fingerprint, program)
        cache.poison(PLAN, program.fingerprint)
        with pytest.raises(PoisonedArtifactError):
            cache.get(PLAN, program.fingerprint)

    def test_violations_digest_roundtrip(self, cache, small_clientbuy):
        violations = find_all_violations(
            small_clientbuy.instance, small_clientbuy.constraints
        )
        cache.put(VIOLATIONS, "fp", violations, "d1")
        assert cache.get(VIOLATIONS, "fp", "d1") == violations


@pytest.fixture
def columns(small_clientbuy):
    """A kernel-built violations view (NumPy required)."""
    pytest.importorskip("numpy")
    from repro.violations.columns import ViolationColumns

    violations = find_all_violations(
        small_clientbuy.instance, small_clientbuy.constraints, engine="kernel"
    )
    assert isinstance(violations, ViolationColumns) and len(violations) > 1
    return violations


@pytest.fixture
def count_violation_sets(monkeypatch):
    """A live count of ``ViolationSet`` constructions."""
    from repro.violations.columns import ViolationSet

    built = [0]
    original = ViolationSet.__init__

    def spy(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(ViolationSet, "__init__", spy)
    return built


class TestColumnarViolations:
    """A ``ViolationColumns`` value is digested from its slot form."""

    def test_put_and_get_build_no_violation_sets(
        self, cache, columns, count_violation_sets
    ):
        cache.put(VIOLATIONS, "fp", columns, "d1")
        for _ in range(3):
            assert cache.get(VIOLATIONS, "fp", "d1") is columns
        assert count_violation_sets[0] == 0

    def test_service_jobs_build_no_violation_sets(
        self, make_clientbuy, count_violation_sets
    ):
        pytest.importorskip("numpy")
        from repro.service import SUCCEEDED, JobRequest, run_jobs

        workload = make_clientbuy(2000)
        request = JobRequest(workload.instance, tuple(workload.constraints))
        views, service = run_jobs([request] * 3, workers=1)
        assert all(view.status == SUCCEEDED for view in views)
        assert service.cache.stats()["hits"] >= 4
        assert count_violation_sets[0] == 0

    def test_digest_is_stable_and_content_bound(self, columns, small_clientbuy):
        from repro.service.cache import default_digest

        again = find_all_violations(
            small_clientbuy.instance, small_clientbuy.constraints, engine="kernel"
        )
        assert default_digest(VIOLATIONS, columns) == default_digest(VIOLATIONS, again)
        plain = tuple(columns)
        assert default_digest(VIOLATIONS, plain) == default_digest(
            VIOLATIONS, tuple(again)
        )

    def _assert_refused(self, cache, columns, corrupt):
        cache.put(VIOLATIONS, "fp", columns, "d1")
        corrupt(columns)
        with pytest.raises(PoisonedArtifactError) as excinfo:
            cache.get(VIOLATIONS, "fp", "d1")
        assert excinfo.value.kind == VIOLATIONS
        assert cache.get(VIOLATIONS, "fp", "d1") is None  # evicted

    def test_flipped_slot_refused(self, cache, columns):
        def flip(view):
            row = view.slots[0]
            row[0] = (row[0] + 1) % len(view.tuples)

        self._assert_refused(cache, columns, flip)

    def test_swapped_member_refused(self, cache, columns):
        def swap(view):
            members = list(view.tuples)
            victim = members[0]
            flexible = next(
                a.name for a in victim.relation.attributes if a.is_flexible
            )
            members[0] = victim.replace({flexible: victim[flexible] + 1})
            view.tuples = tuple(members)

        self._assert_refused(cache, columns, swap)

    def test_swapped_constraint_refused(self, cache, columns, small_clientbuy):
        def swap(view):
            others = [c for c in small_clientbuy.constraints if c != view.constraints[0]]
            view.constraints = (others[0],) + view.constraints[1:]

        self._assert_refused(cache, columns, swap)

    def test_renamed_constraint_refused(self, cache, columns):
        from repro.constraints.denial import DenialConstraint

        def rename(view):
            first = view.constraints[0]
            renamed = DenialConstraint(
                first.relation_atoms,
                first.builtins,
                first.variable_comparisons,
                name=first.name + "-other",
            )
            view.constraints = (renamed,) + view.constraints[1:]

        self._assert_refused(cache, columns, rename)

    def test_same_name_other_text_refused(self, cache, columns, small_clientbuy):
        from repro.constraints.denial import DenialConstraint

        def retext(view):
            first = view.constraints[0]
            other = next(c for c in small_clientbuy.constraints if c != first)
            impostor = DenialConstraint(
                other.relation_atoms,
                other.builtins,
                other.variable_comparisons,
                name=first.name,
            )
            view.constraints = (impostor,) + view.constraints[1:]

        self._assert_refused(cache, columns, retext)

    def test_changed_bounds_refused(self, cache, columns):
        def shift(view):
            bounds = list(view.bounds)
            bounds[1] += 1 if bounds[1] < bounds[-1] else -1
            view.bounds = tuple(bounds)

        self._assert_refused(cache, columns, shift)


class TestThreadSafety:
    def test_concurrent_put_get_respects_bound(self):
        cache = ArtifactCache(max_entries=8, metrics=MetricsRegistry())
        errors = []

        def worker(base: int) -> None:
            try:
                for i in range(50):
                    cache.put(COLUMNAR, f"fp{base}-{i % 10}", i)
                    cache.get(COLUMNAR, f"fp{base}-{i % 10}")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8
