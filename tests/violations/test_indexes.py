"""Unit tests for the persistent join-index cache."""

import pytest

from repro import find_all_violations
from repro.violations.detector import find_violations_involving
from repro.violations.indexes import JoinIndexCache
from repro.workloads import client_buy_workload


@pytest.fixture
def setup():
    workload = client_buy_workload(30, inconsistency_ratio=0.0, seed=5)
    instance = workload.instance.copy()
    cache = JoinIndexCache(instance)
    return workload, instance, cache


class TestLazyBuild:
    def test_index_built_on_first_get(self, setup):
        workload, instance, cache = setup
        assert cache.built_signatures == ()
        index = cache.get(("Client", (0,)))
        assert cache.built_signatures == (("Client", (0,)),)
        # one bucket per client id, each with the single client tuple.
        assert len(index) == instance.count("Client")

    def test_composite_positions(self, setup):
        _workload, instance, cache = setup
        index = cache.get(("Buy", (0, 1)))
        total = sum(len(bucket) for bucket in index.values())
        assert total == instance.count("Buy")

    def test_getitem_raises_for_unknown_relation(self, setup):
        _w, _i, cache = setup
        assert cache.get(("Nope", (0,))) is None
        with pytest.raises(KeyError):
            cache[("Nope", (0,))]

    def test_check_consistent_on_fresh_cache(self, setup):
        _w, _i, cache = setup
        cache.get(("Client", (0,)))
        cache.check_consistent()


class TestMaintenance:
    def test_insert_updates_built_indexes(self, setup):
        _workload, instance, cache = setup
        cache.get(("Client", (0,)))
        tup = instance.insert_row("Client", (999, 30, 10))
        cache.notify_insert(tup)
        cache.check_consistent()
        assert cache.get(("Client", (0,)))[(999,)] == [tup]

    def test_remove_updates_built_indexes(self, setup):
        _workload, instance, cache = setup
        cache.get(("Client", (0,)))
        removed = instance.delete("Client", (3,))
        cache.notify_remove(removed)
        cache.check_consistent()
        assert (3,) not in cache.get(("Client", (0,)))

    def test_replace_updates_built_indexes(self, setup):
        _workload, instance, cache = setup
        cache.get(("Client", (1,)))           # index on age position
        old = instance.get("Client", (4,))
        new = old.replace(a=55)
        instance.replace_tuple(new)
        cache.notify_replace(old, new)
        cache.check_consistent()

    def test_replace_moves_tuple_between_buckets(self, setup):
        _workload, instance, cache = setup
        index = cache.get(("Client", (1,)))
        old = instance.get("Client", (4,))
        new = old.replace(a=123)              # a fresh, unoccupied age bucket
        instance.replace_tuple(new)
        cache.notify_replace(old, new)
        assert index[(123,)] == [new]
        assert new not in index.get((old.values[1],), [])
        cache.check_consistent()

    def test_notify_replacements_batch(self, setup):
        _workload, instance, cache = setup
        cache.get(("Client", (1,)))
        cache.get(("Client", (2,)))           # two signatures, both maintained
        pairs = []
        for key in [(2,), (5,), (7,)]:
            old = instance.get("Client", key)
            new = old.replace(a=old.values[1] + 100, c=old.values[2] + 100)
            instance.replace_tuple(new)
            pairs.append((old, new))
        cache.notify_replacements(pairs)
        cache.check_consistent()
        index = cache.get(("Client", (1,)))
        for old, new in pairs:
            assert new in index[(new.values[1],)]

    def test_check_consistent_detects_missed_replace(self, setup):
        _workload, instance, cache = setup
        cache.get(("Client", (1,)))
        old = instance.get("Client", (4,))
        instance.replace_tuple(old.replace(a=200))
        with pytest.raises(AssertionError):   # mutation without notify_replace
            cache.check_consistent()

    def test_unbuilt_indexes_need_no_maintenance(self, setup):
        _workload, instance, cache = setup
        tup = instance.insert_row("Client", (999, 30, 10))
        cache.notify_insert(tup)              # nothing built: no-op
        cache.check_consistent()
        # index built afterwards sees the new tuple anyway.
        assert (999,) in cache.get(("Client", (0,)))

    def test_remove_of_unknown_tuple_is_noop(self, setup):
        workload, instance, cache = setup
        cache.get(("Client", (0,)))
        ghost = workload.instance.get("Client", (0,)).replace(a=77)
        cache.notify_remove(ghost)            # value mismatch: tolerated
        # bucket for key (0,) still holds the real tuple.
        assert cache.get(("Client", (0,)))[(0,)]


class TestInterleavedCommitRounds:
    """The cache survives interleaved streaming commit rounds warm.

    Each round mutates different relations through different operation
    kinds (snapshotting and snapshot-free applies take different index
    maintenance paths); after every round the built indexes must still
    match the live instance exactly.
    """

    def _rounds(self, **kwargs):
        from repro import StreamingRepairer

        workload = client_buy_workload(30, inconsistency_ratio=0.0, seed=5)
        streamer = StreamingRepairer(
            workload.instance, workload.constraints, commit_interval=None, **kwargs
        )
        cache = streamer._repairer._join_indexes
        # round 1: joins force index builds (minor client + expensive buy).
        streamer.update("Client", (0,), a=15, c=60)
        streamer.insert("Buy", (0, 90, 99))
        streamer.flush()
        assert cache.built_signatures
        cache.check_consistent()
        # round 2: clean traffic on the *other* relation, no repair.
        streamer.update("Client", (1,), c=12)
        streamer.flush()
        cache.check_consistent()
        # round 3: delete + reinsert (replace path) and a fresh violation.
        victim = next(iter(workload.instance.tuples("Buy")))
        streamer.delete("Buy", victim.key)
        streamer.insert("Buy", victim.key + (99,))
        streamer.update("Client", (victim.key[0],), a=16, c=55)
        streamer.flush()
        cache.check_consistent()
        return streamer, cache, workload

    def test_serial_snapshot_free_rounds_keep_indexes_consistent(self):
        streamer, cache, workload = self._rounds()
        from repro import is_consistent

        assert is_consistent(streamer.instance, workload.constraints)

    def test_snapshotting_rounds_keep_indexes_consistent(self):
        # the apply-swap path: instance objects are replaced per round,
        # so the cache must have been rebound, not rebuilt.
        streamer, cache, _workload = self._rounds(snapshot_results=True)
        before = cache.built_signatures
        streamer.update("Client", (3,), a=15)
        streamer.insert("Buy", (3, 90, 99))
        streamer.flush()
        cache.check_consistent()
        assert set(before) <= set(cache.built_signatures)


class TestDetectorIntegration:
    def test_anchored_detection_with_cache_matches_full(self):
        workload = client_buy_workload(40, inconsistency_ratio=0.0, seed=6)
        instance = workload.instance.copy()
        cache = JoinIndexCache(instance)
        minor = instance.insert_row("Client", (777, 15, 90))
        buy = instance.insert_row("Buy", (777, 0, 99))
        cache.notify_insert(minor)
        cache.notify_insert(buy)

        anchored = find_violations_involving(
            instance, workload.constraints, [minor, buy], raw_indexes=cache
        )
        full = find_all_violations(instance, workload.constraints)
        as_labels = lambda vs: {
            (v.constraint.name, frozenset(t.ref for t in v)) for v in vs
        }
        assert as_labels(anchored) == as_labels(full)
        # the join constraint actually exercised the cache.
        assert cache.built_signatures
