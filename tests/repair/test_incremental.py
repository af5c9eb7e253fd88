"""Unit tests for incremental repair over staged update batches."""

import pytest

from repro import IncrementalRepairer, RepairError, is_consistent
from repro.violations.detector import find_violations_involving
from repro.violations.indexes import JoinIndexCache
from repro.workloads import client_buy_workload


@pytest.fixture
def repairer(small_clientbuy):
    return IncrementalRepairer(
        small_clientbuy.instance, small_clientbuy.constraints
    )


class TestInitialization:
    def test_inconsistent_input_repaired_by_default(self, small_clientbuy):
        repairer = IncrementalRepairer(
            small_clientbuy.instance, small_clientbuy.constraints
        )
        assert is_consistent(repairer.instance, small_clientbuy.constraints)

    def test_inconsistent_input_rejected_when_asked(self, small_clientbuy):
        with pytest.raises(RepairError):
            IncrementalRepairer(
                small_clientbuy.instance,
                small_clientbuy.constraints,
                repair_initial=False,
            )

    def test_consistent_input_untouched(self, small_clientbuy):
        from repro import repair_database

        clean = repair_database(
            small_clientbuy.instance, small_clientbuy.constraints
        ).repaired
        repairer = IncrementalRepairer(
            clean, small_clientbuy.constraints, repair_initial=False
        )
        assert repairer.instance == clean

    def test_non_local_constraints_rejected(self, small_clientbuy):
        from repro import LocalityError, parse_denials

        bad = parse_denials(
            "NOT(Client(id, a, c), a < 18)\nNOT(Client(id, a, c), a > 90)"
        )
        with pytest.raises(LocalityError):
            IncrementalRepairer(small_clientbuy.instance, bad)

    def test_source_instance_not_mutated(self, small_clientbuy):
        snapshot = small_clientbuy.instance.copy()
        IncrementalRepairer(small_clientbuy.instance, small_clientbuy.constraints)
        assert small_clientbuy.instance == snapshot


class TestBatches:
    def test_violating_insert_repaired(self, repairer, small_clientbuy):
        repairer.insert("Client", (900, 15, 80))     # minor, credit > 50
        result = repairer.commit(verify=True)
        assert result.violations_before == 1
        assert result.changes
        assert is_consistent(repairer.instance, small_clientbuy.constraints)

    def test_join_violation_across_insert_batch(self, repairer):
        repairer.insert("Client", (901, 15, 10))
        repairer.insert("Buy", (901, 0, 99))         # minor + expensive buy
        result = repairer.commit(verify=True)
        assert result.violations_before == 1

    def test_insert_joining_existing_tuple(self, repairer):
        # make client 0 a (consistent) minor first, then add a bad buy.
        repairer.update("Client", (0,), a=15, c=10)
        repairer.commit(verify=True)
        repairer.insert("Buy", (0, 99, 80))
        result = repairer.commit(verify=True)
        assert result.violations_before >= 1

    def test_clean_batch_is_noop(self, repairer):
        before = repairer.instance
        repairer.insert("Client", (902, 40, 10))
        result = repairer.commit(verify=True)
        assert result.violations_before == 0
        assert result.changes == ()
        assert repairer.instance.count() == before.count() + 1

    def test_update_can_break_consistency(self, repairer, small_clientbuy):
        result0 = repairer.commit()                  # flush initial state
        repairer.update("Client", (1,), a=12, c=90)
        result = repairer.commit(verify=True)
        assert result.violations_before >= 1
        assert is_consistent(repairer.instance, small_clientbuy.constraints)

    def test_delete_never_breaks(self, repairer):
        repairer.delete("Client", (2,))
        # deleting the client also orphans its buys wrt joins - that only
        # removes potential violations for denial constraints.
        result = repairer.commit(verify=True)
        assert result.violations_before == 0

    def test_pending_tracking(self, repairer):
        assert repairer.pending == ()
        tup = repairer.insert("Client", (903, 30, 10))
        assert repairer.pending == (tup,)
        repairer.commit()
        assert repairer.pending == ()

    def test_update_of_staged_insert_deduplicates(self, repairer):
        repairer.insert("Client", (904, 15, 80))
        repairer.update("Client", (904,), c=85)
        assert len([t for t in repairer.pending if t.key == (904,)]) == 1
        repairer.commit(verify=True)

    def test_repeated_batches(self, repairer, small_clientbuy):
        for batch in range(5):
            repairer.insert("Client", (1000 + batch, 15, 60 + batch))
            result = repairer.commit(verify=True)
            assert result.violations_before == 1
        assert is_consistent(repairer.instance, small_clientbuy.constraints)


    @pytest.mark.parametrize("snapshot", [True, False])
    def test_join_indexes_match_fresh_build_after_commit(
        self, small_clientbuy, snapshot
    ):
        """Maintenance from the replaced tuples leaves no stale index entry."""
        repairer = IncrementalRepairer(
            small_clientbuy.instance, small_clientbuy.constraints
        )
        for round_ in range(3):
            client = 950 + round_
            repairer.insert("Client", (client, 15, 10))
            repairer.insert("Buy", (client, 0, 99))
            repairer.update("Client", (round_,), a=12, c=90)
            result = repairer.commit(verify=True, snapshot=snapshot)
            assert result.changes
        cache = repairer._join_indexes
        assert cache.built_signatures
        fresh = JoinIndexCache(repairer._instance)
        for signature in cache.built_signatures:
            assert _as_sorted(cache.get(signature)) == _as_sorted(fresh.get(signature))


def _as_sorted(index):
    return {
        key: sorted(tuples, key=lambda t: t.ref.sort_key)
        for key, tuples in index.items()
        if tuples
    }


class TestAnchoredDetection:
    def test_matches_full_detection_on_delta(self, make_clientbuy):
        from repro import find_all_violations, repair_database

        workload = make_clientbuy(40, inconsistency_ratio=0.0, seed=1)
        instance = workload.instance.copy()
        new_client = instance.insert_row("Client", (500, 15, 90))
        new_buy = instance.insert_row("Buy", (500, 0, 99))

        anchored = find_violations_involving(
            instance, workload.constraints, [new_client, new_buy]
        )
        full = find_all_violations(instance, workload.constraints)
        as_labels = lambda vs: {
            (v.constraint.name, frozenset(t.ref for t in v)) for v in vs
        }
        assert as_labels(anchored) == as_labels(full)

    def test_anchor_on_existing_tuple_finds_its_violations(self, paper_pub):
        t1 = paper_pub.instance.get("Paper", ("B1",))
        anchored = find_violations_involving(
            paper_pub.instance, paper_pub.constraints, [t1]
        )
        assert len(anchored) == 3       # ({t1},ic1), ({t1},ic2), ({t1,p1},ic3)

    def test_unrelated_anchor_finds_nothing(self, paper_pub):
        t3 = paper_pub.instance.get("Paper", ("E3",))
        assert (
            find_violations_involving(
                paper_pub.instance, paper_pub.constraints, [t3]
            )
            == ()
        )


class TestStagingOrder:
    """``pending`` keeps the staging order of the list it replaced."""

    @staticmethod
    def _ops():
        from hypothesis import strategies as st

        client_id = st.integers(0, 14)
        return st.lists(
            st.one_of(
                st.tuples(st.just("insert-client"), client_id, st.integers(0, 90)),
                st.tuples(st.just("insert-buy"), client_id, st.integers(0, 2)),
                st.tuples(st.just("update"), st.integers(0, 40), st.integers(0, 90)),
                st.tuples(st.just("delete"), st.integers(0, 40), st.just(0)),
                st.tuples(st.just("commit"), st.just(0), st.just(0)),
            ),
            max_size=30,
        )

    def test_pending_matches_list_staging(self, make_clientbuy):
        from hypothesis import given, settings

        from repro.exceptions import KeyViolationError

        workload = make_clientbuy(10, inconsistency_ratio=0.0, seed=4)

        @settings(max_examples=60, deadline=None)
        @given(self._ops())
        def run(ops):
            repairer = IncrementalRepairer(workload.instance, workload.constraints)
            staged: list = []  # the list staging, as an oracle
            for op, first, second in ops:
                current = repairer.instance
                if op == "insert-client":
                    try:
                        staged.append(repairer.insert("Client", (first, 40, second)))
                    except KeyViolationError:
                        pass
                elif op == "insert-buy":
                    try:
                        staged.append(repairer.insert("Buy", (first, second, 10)))
                    except KeyViolationError:
                        pass
                elif op == "commit":
                    repairer.commit()
                    staged = []
                else:
                    everything = [t for t in current.all_tuples()]
                    if not everything:
                        continue
                    old = everything[first % len(everything)]
                    name = old.relation.name
                    if op == "update":
                        attribute = "c" if name == "Client" else "p"
                        new = repairer.update(name, old.key, {attribute: second})
                        staged = [t for t in staged if t is not old and t != old]
                        staged.append(new)
                    else:
                        removed = repairer.delete(name, old.key)
                        staged = [t for t in staged if t != removed]
                assert repairer.pending == tuple(staged)

        run()
