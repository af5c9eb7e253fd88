"""Unit tests for columnar snapshot reuse across instances and commit rounds.

The lineage logic of :class:`ColumnarStore` (which copy may take its
source's snapshot, the per-instance registry) is pure bookkeeping and is
tested *without* NumPy by planting sentinel snapshots; the tests that
build, derive and compare real snapshots and drive repairs are gated on
the kernel extra.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import StreamingRepairer, repair_database
from repro.exceptions import KeyViolationError, ReproError
from repro.model.columnar import (
    ColumnarRelation,
    ColumnarStore,
    derive_snapshots,
    kernel_available,
    store_for,
)
from repro.model.tuples import Tuple
from repro.obs import Tracer
from repro.violations.detector import find_violations
from repro.workloads import client_buy_workload, random_detection_workload

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="NumPy not installed (repro[kernel] extra)"
)


@pytest.fixture
def workload():
    return client_buy_workload(20, inconsistency_ratio=0.0, seed=2)


def plant(store: ColumnarStore, instance, relation_name: str, marker: object):
    """Install a sentinel snapshot keyed to the instance's live version."""
    store._snapshots[relation_name] = (
        instance.data_version(relation_name),
        marker,
    )


def bump(instance, relation_name: str) -> None:
    """Replace one tuple by an equal new tuple object."""
    tup = instance.tuples(relation_name)[0]
    instance.replace_tuple(Tuple(tup.relation, tup.values))


class TestStoreBookkeeping:
    def test_store_for_is_stable_per_instance(self, workload):
        instance = workload.instance.copy()
        assert store_for(instance) is store_for(instance)
        assert store_for(instance) is not store_for(workload.instance)

    def test_untouched_copy_shares_source_snapshot(self, workload):
        source = workload.instance.copy()
        plant(store_for(source), source, "Client", "client-snap")
        plant(store_for(source), source, "Buy", "buy-snap")
        copy = source.copy()                 # version counters restart at 0
        store = store_for(copy)
        assert store.relation(copy, "Client") == "client-snap"
        assert store.relation(copy, "Buy") == "buy-snap"
        assert store.cached_relations == ("Client", "Buy")

    def test_copy_of_changed_source_does_not_derive(self, workload):
        source = workload.instance.copy()
        copy = source.copy()
        plant(store_for(source), source, "Client", "stale")
        bump(source, "Client")               # the source moved on
        plant(store_for(source), source, "Client", "client-snap")
        assert copy.copy_source("Client") is None
        assert store_for(copy).derive(copy, "Client") is None
        assert store_for(copy).cached_relations == ()

    def test_insert_or_delete_stops_derivation(self, workload):
        source = workload.instance.copy()
        plant(store_for(source), source, "Client", "client-snap")
        plant(store_for(source), source, "Buy", "buy-snap")
        copy = source.copy()
        copy.insert_row("Client", (10_000, 20, 30))
        doomed = copy.tuples("Buy")[0]
        copy.delete("Buy", doomed.key)
        assert copy.replaced_rows("Client") is None
        assert copy.replaced_rows("Buy") is None
        assert store_for(copy).derive(copy, "Client") is None
        assert store_for(copy).derive(copy, "Buy") is None

    def test_same_tuples_share_source_snapshot(self, workload):
        source = workload.instance.copy()
        plant(store_for(source), source, "Client", "client-snap")
        copy = source.copy()
        copy.replace_tuple(copy.tuples("Client")[3])   # the same object
        assert copy.data_version("Client") == 1
        assert copy.replaced_rows("Client") == []
        assert store_for(copy).relation(copy, "Client") == "client-snap"

    def test_lineage_stays_out_of_pickles(self, workload):
        import pickle

        source = workload.instance.copy()
        copy = source.copy()
        copy.canonical_tuples("Client")
        state = copy.__getstate__()
        assert "_lineage" not in state and "_orders" not in state
        clone = pickle.loads(pickle.dumps(copy))
        assert clone == copy
        assert clone.copy_source("Client") is None


# -- real snapshots ------------------------------------------------------------


def _cells(array) -> list:
    """Object-array cells with their types: ``True`` and ``1`` differ."""
    return [(type(value), repr(value)) for value in array]


def assert_same_snapshot(derived: ColumnarRelation, cold: ColumnarRelation):
    """Equal on every read the kernels make, position by position."""
    import numpy as np

    assert derived.tuples == cold.tuples
    assert all(map(lambda a, b: a is b, derived.tuples, cold.tuples))
    arity = len(cold.tuples[0].values) if cold.tuples else 0
    for position in range(arity):
        assert _cells(derived.column(position)) == _cells(cold.column(position))
        for read in (derived.numeric, derived.exact_ints):
            mine = read(position)
            theirs = getattr(cold, read.__name__)(position)
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert mine.dtype == theirs.dtype == np.int64
                assert mine.tolist() == theirs.tolist()
    rows = np.arange(len(cold), dtype=np.int64)
    assert derived.ref_order(rows).tolist() == cold.ref_order(rows).tolist()
    for row, tup in enumerate(cold.tuples):
        assert derived.row_of(tup) == cold.row_of(tup) == row


def cold_snapshot(instance, relation_name: str) -> ColumnarRelation:
    return ColumnarRelation(relation_name, instance.tuples(relation_name))


def warm(instance, relation_name: str, positions=(0, 1, 2)) -> ColumnarRelation:
    """The instance's store snapshot with some positions cached."""
    snapshot = store_for(instance).relation(instance, relation_name)
    for position in positions:
        snapshot.column(position)
        snapshot.numeric(position)
    return snapshot


def _outcome(instance, constraint, engine):
    try:
        return find_violations(instance, constraint, engine=engine)
    except (ReproError, TypeError) as error:
        return type(error)


#: Flexible values a replacement may write: small, bool, beyond int64.
_FLEX = st.one_of(
    st.integers(-3, 70),
    st.booleans(),
    st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**70), 10**30]),
)

#: Keys a new Client row may carry: ints, and floats (non-int values that
#: still compare with the int keys the constraints order).
_NEW_KEY = st.one_of(st.integers(40, 60), st.sampled_from([40.5, -1.5, 7.25]))

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("copy"), st.booleans()),
        st.tuples(st.just("replace"), st.sampled_from(["Client", "Buy"]),
                  st.integers(0, 200), _FLEX),
        st.tuples(st.just("replace-many"), st.sampled_from(["Client", "Buy"]),
                  st.lists(st.integers(0, 200), min_size=1, max_size=6), _FLEX),
        st.tuples(st.just("bool-key"), st.integers(0, 1)),
        st.tuples(st.just("insert"), _NEW_KEY, _FLEX),
        st.tuples(st.just("delete"), st.sampled_from(["Client", "Buy"]),
                  st.integers(0, 200)),
        st.tuples(st.just("drop-sources")),
        st.tuples(st.just("check")),
    ),
    max_size=14,
)


@needs_kernel
class TestDerivedSnapshots:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 3), ops=_OPS)
    def test_derived_equals_cold_build(self, seed, ops):
        workload = random_detection_workload(seed, n_clients=12)
        instance = workload.instance
        sources = []                       # keep copy sources alive
        for op, *args in ops + [("check",)]:
            try:
                self._apply(instance, op, args)
            except KeyViolationError:
                pass
            if op == "copy":
                if args[0]:
                    for name in ("Client", "Buy"):
                        warm(instance, name)
                sources.append(instance)
                instance = instance.copy()
            elif op == "drop-sources":
                sources.clear()
                gc.collect()
            elif op == "check":
                self._check(instance, workload.constraints)

    @staticmethod
    def _apply(instance, op, args):
        if op in ("replace", "replace-many", "delete"):
            relation_name = args[0]
            tuples = instance.tuples(relation_name)
            if not tuples:
                return
            if op == "delete":
                instance.delete(relation_name, tuples[args[1] % len(tuples)].key)
                return
            rows = [args[1]] if op == "replace" else args[1]
            position = 2 if relation_name == "Buy" else 1 + rows[0] % 2
            picked = {tuples[row % len(tuples)].key: tuples[row % len(tuples)]
                      for row in rows}
            new = []
            for tup in picked.values():
                values = list(tup.values)
                values[position] = args[2]
                new.append(Tuple(tup.relation, values))
            if op == "replace":
                instance.replace_tuple(new[0])
            else:
                instance.replace_tuples(relation_name, new)
        elif op == "bool-key":
            key = (args[0],)
            if instance.contains_key("Client", key):
                old = instance.get("Client", key)
                values = list(old.values)
                values[0] = bool(args[0])
                instance.replace_tuple(Tuple(old.relation, values))
        elif op == "insert":
            instance.insert_row("Client", (args[0], args[1], 5))

    @staticmethod
    def _check(instance, constraints):
        store = store_for(instance)
        for name in ("Client", "Buy"):
            assert_same_snapshot(
                store.relation(instance, name), cold_snapshot(instance, name)
            )
        fresh = type(instance)(instance.schema)
        for tup in instance.all_tuples():
            fresh.insert(tup)              # same tuples, cold snapshots
        for constraint in constraints:
            assert _outcome(instance, constraint, "kernel") == _outcome(
                fresh, constraint, "kernel"
            )

    def test_patch_touches_only_changed_positions(self):
        source = random_detection_workload(1, n_clients=30).instance
        snapshot = warm(source, "Client")
        copy = source.copy()
        victim = copy.tuples("Client")[4]
        copy.replace_tuple(victim.replace(a=victim["a"] + 1))
        derived = store_for(copy).relation(copy, "Client")
        assert derived is not snapshot
        for position in (0, 2):            # id and c: unchanged, shared
            assert derived.column(position) is snapshot.column(position)
            assert derived.numeric(position) is snapshot.numeric(position)
        assert derived.numeric(1) is not snapshot.numeric(1)
        assert derived.numeric(1)[4] == victim["a"] + 1
        assert snapshot.numeric(1)[4] == victim["a"]     # source untouched
        assert_same_snapshot(derived, cold_snapshot(copy, "Client"))

    def test_bool_replacement_leaves_the_exact_path(self):
        source = random_detection_workload(1, n_clients=30).instance
        snapshot = warm(source, "Client")
        assert snapshot.exact_ints(1) is not None
        copy = source.copy()
        victim = copy.get("Client", (1,))
        copy.replace_tuple(Tuple(victim.relation, (True, True, victim["c"])))
        derived = store_for(copy).relation(copy, "Client")
        assert derived.exact_ints(0) is None and derived.exact_ints(1) is None
        assert derived.numeric(1) is not None   # bools still count as ints
        assert_same_snapshot(derived, cold_snapshot(copy, "Client"))

    def test_misses_count_built_and_derived(self):
        source = random_detection_workload(1, n_clients=30).instance
        warm(source, "Client")
        copy = source.copy()
        bump(copy, "Client")
        bump(copy, "Buy")
        tracer = Tracer()
        with tracer.activate():
            store_for(copy).relation(copy, "Client")
            store_for(copy).relation(copy, "Buy")
        counter = tracer.metrics.counter
        assert counter(
            "columnar_cache_misses", relation="Client", kind="derived"
        ).value == 1
        assert counter(
            "columnar_cache_misses", relation="Buy", kind="built"
        ).value == 1

    def test_repair_never_scans_the_repaired_copy_at_verify(self, monkeypatch):
        workload = client_buy_workload(2000, inconsistency_ratio=0.3, seed=4)
        scanned = []
        original_scan = ColumnarRelation._scan
        original_column = ColumnarRelation.column

        def scan(self, position):
            scanned.append(self)
            return original_scan(self, position)

        def column(self, position):
            if position not in self._columns:
                scanned.append(self)
            return original_column(self, position)

        monkeypatch.setattr(ColumnarRelation, "_scan", scan)
        monkeypatch.setattr(ColumnarRelation, "column", column)
        result = repair_database(
            workload.instance, workload.constraints, parallel="serial",
            engine="kernel",
        )
        assert result.verified and result.changes
        repaired = store_for(result.repaired)
        snapshots = [repaired.relation(result.repaired, name)
                     for name in ("Client", "Buy")]
        assert scanned                      # detection did scan the input
        assert not any(s is snapshot for s in scanned for snapshot in snapshots)

    def test_threads_derive_while_source_positions_fill(self):
        source = random_detection_workload(2, n_clients=40).instance
        store_for(source).relation(source, "Client")   # no position cached
        copies = []
        for row in (3, 7):
            copy = source.copy()
            victim = copy.tuples("Client")[row]
            copy.replace_tuple(victim.replace(c=victim["c"] + 100))
            copies.append(copy)
        barrier = threading.Barrier(3)
        filled = threading.Event()
        errors = []
        derived = {0: [], 1: []}

        def fill():
            barrier.wait()
            for _ in range(300):
                snapshot = cold_snapshot(source, "Client")
                store_for(source)._snapshots["Client"] = (
                    source.data_version("Client"), snapshot
                )
                for position in (2, 0, 1):
                    snapshot.numeric(position)
                    snapshot.column(position)
            filled.set()

        def derive(index):
            barrier.wait()
            copy = copies[index]
            try:
                while True:                # until the filler is done
                    derived[index].append(store_for(copy).derive(copy, "Client"))
                    if filled.is_set():
                        break
            except Exception as error:     # pragma: no cover - the failure
                errors.append(error)

        threads = [threading.Thread(target=fill)] + [
            threading.Thread(target=derive, args=(index,)) for index in (0, 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)        # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for index, copy in enumerate(copies):
            cold = cold_snapshot(copy, "Client")
            assert derived[index]
            for snapshot in derived[index][::50]:
                assert_same_snapshot(snapshot, cold)

    def test_copy_cold_builds_once_its_source_is_gone(self):
        source = random_detection_workload(1, n_clients=30).instance
        warm(source, "Client")
        copy = source.copy()
        bump(copy, "Client")
        assert copy.copy_source("Client") is not None
        del source
        gc.collect()
        assert copy.copy_source("Client") is None
        tracer = Tracer()
        with tracer.activate():
            snapshot = store_for(copy).relation(copy, "Client")
        assert tracer.metrics.counter(
            "columnar_cache_misses", relation="Client", kind="built"
        ).value == 1
        assert_same_snapshot(snapshot, cold_snapshot(copy, "Client"))


@needs_kernel
class TestSnapshotReuseAcrossRounds:
    """Warm snapshots survive interleaved streaming commit rounds.

    Snapshot-free rounds keep the instance object and only bump the
    mutated relation's version (rebuild exactly that one); snapshotting
    rounds swap instance objects, and the repaired copy derives its
    snapshots from the outgoing instance's before that one is dropped.
    """

    def _violating_round(self, streamer):
        streamer.update("Client", (0,), a=15, c=60)
        result = streamer.flush()
        assert result.changes                 # a repair actually applied

    def test_snapshot_free_round_reuses_untouched_relation(self, workload):
        streamer = StreamingRepairer(workload.instance, workload.constraints)
        live = streamer._repairer._instance
        store = store_for(live)
        client_snap = store.relation(live, "Client")
        buy_snap = store.relation(live, "Buy")
        self._violating_round(streamer)
        assert streamer._repairer._instance is live
        assert store.relation(live, "Buy") is buy_snap
        assert store.relation(live, "Client") is not client_snap

    def test_snapshotting_round_transfers_store_across_swap(self, workload):
        streamer = StreamingRepairer(
            workload.instance, workload.constraints, snapshot_results=True
        )
        old = streamer._repairer._instance
        buy_snap = store_for(old).relation(old, "Buy")
        self._violating_round(streamer)
        new = streamer._repairer._instance
        assert new is not old                 # the apply swapped instances
        del old
        gc.collect()                          # derived while old was alive
        assert store_for(new).cached_relations == ("Buy",)
        assert store_for(new).relation(new, "Buy") is buy_snap

    def test_derive_snapshots_patches_every_warm_relation(self, workload):
        old = workload.instance.copy()
        warm(old, "Client")
        buy_snap = warm(old, "Buy")
        new = old.copy()
        bump(new, "Client")
        derive_snapshots(new)
        del old
        gc.collect()
        store = store_for(new)
        assert store.cached_relations == ("Client", "Buy")
        assert store.relation(new, "Buy") is buy_snap
        assert_same_snapshot(
            store.relation(new, "Client"), cold_snapshot(new, "Client")
        )

    def test_interleaved_rounds_stay_warm(self, workload):
        streamer = StreamingRepairer(workload.instance, workload.constraints)
        live = streamer._repairer._instance
        store = store_for(live)
        buy_snap = store.relation(live, "Buy")
        for client in range(3):               # several rounds, Client-only
            streamer.update("Client", (client,), a=15, c=60 + client)
            streamer.flush()
            assert store.relation(live, "Buy") is buy_snap
