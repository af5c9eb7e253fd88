"""Unit tests for the streaming commit pipeline (coalescing + backpressure).

The invariants under test, in the order the issue states them:

* coalescing never changes the committed result - any interleaving of
  submits and round boundaries lands on the same final instance as the
  cold batch repair of the same logical operations (fuzzed by
  hypothesis across detection engines);
* backpressure is deterministic and never silently drops an operation:
  the ``"error"`` policy raises :class:`BackpressureError` *without*
  enqueuing, the ``"block"`` policy drains a round and then admits;
* sharded Δ-anchored detection is byte-identical to serial detection;
* snapshot-free rounds (``snapshot_results=False``, the default) return
  ``repaired=None`` but leave the live instance identical to the
  snapshotting configuration.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Attribute,
    BackpressureError,
    DatabaseInstance,
    Relation,
    RepairError,
    Schema,
    StreamingRepairer,
    is_consistent,
    parse_denials,
    repair_database,
)
from repro.exceptions import RuntimeConfigError
from repro.workloads import client_buy_workload


def one_relation_setup(rows):
    """``R(id, a)`` with ``NOT(R(id, a), a > 100)`` - single-tuple fixes."""
    schema = Schema(
        [Relation("R", [Attribute.hard("id"), Attribute.flexible("a")], key=["id"])]
    )
    constraints = parse_denials("NOT(R(id, a), a > 100)")
    return DatabaseInstance.from_rows(schema, {"R": rows}), constraints


@pytest.fixture
def streamer():
    instance, constraints = one_relation_setup([(1, 10), (2, 20), (3, 30)])
    return StreamingRepairer(instance, constraints, commit_interval=None)


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, "64"])
    def test_bad_max_pending_rejected(self, bad):
        instance, constraints = one_relation_setup([(1, 10)])
        with pytest.raises(RuntimeConfigError):
            StreamingRepairer(instance, constraints, max_pending=bad)

    @pytest.mark.parametrize("bad", [0, -3, False])
    def test_bad_commit_interval_rejected(self, bad):
        instance, constraints = one_relation_setup([(1, 10)])
        with pytest.raises(RuntimeConfigError):
            StreamingRepairer(instance, constraints, commit_interval=bad)

    def test_bad_backpressure_rejected(self):
        instance, constraints = one_relation_setup([(1, 10)])
        with pytest.raises(RuntimeConfigError):
            StreamingRepairer(instance, constraints, backpressure="drop")

    def test_empty_update_rejected(self, streamer):
        with pytest.raises(RepairError):
            streamer.update("R", (1,))

    def test_unknown_attribute_rejected_eagerly(self, streamer):
        with pytest.raises(Exception):
            streamer.update("R", (1,), nope=5)
        assert streamer.pending_operations == 0


class TestCoalescing:
    def test_updates_merge_later_write_wins(self, streamer):
        streamer.update("R", (1,), a=500)
        streamer.update("R", (1,), a=40)
        assert streamer.pending_operations == 1
        assert streamer.stats.coalesced == 1
        streamer.flush()
        assert streamer.instance.get("R", (1,))["a"] == 40

    def test_update_folds_into_pending_insert(self, streamer):
        streamer.insert("R", (9, 10))
        streamer.update("R", (9,), a=55)
        assert streamer.pending_operations == 1
        streamer.flush()
        assert streamer.instance.get("R", (9,))["a"] == 55

    def test_insert_then_delete_cancels(self, streamer):
        streamer.insert("R", (9, 10))
        streamer.delete("R", (9,))
        assert streamer.pending_operations == 0
        assert streamer.flush() is None
        assert not streamer.instance.contains_key("R", (9,))
        # both operations were accepted, not dropped.
        assert streamer.stats.total_submitted == 2

    def test_delete_then_insert_replaces(self, streamer):
        streamer.delete("R", (2,))
        streamer.insert("R", (2, 77))
        assert streamer.pending_operations == 1
        streamer.flush()
        assert streamer.instance.get("R", (2,))["a"] == 77

    def test_update_then_delete_is_plain_delete(self, streamer):
        streamer.update("R", (3,), a=99)
        streamer.delete("R", (3,))
        assert streamer.pending_operations == 1
        streamer.flush()
        assert not streamer.instance.contains_key("R", (3,))

    def test_duplicate_insert_rejected(self, streamer):
        streamer.insert("R", (9, 10))
        with pytest.raises(RepairError):
            streamer.insert("R", (9, 11))

    def test_update_after_pending_delete_rejected(self, streamer):
        streamer.delete("R", (1,))
        with pytest.raises(RepairError):
            streamer.update("R", (1,), a=5)

    def test_double_delete_rejected(self, streamer):
        streamer.delete("R", (1,))
        with pytest.raises(RepairError):
            streamer.delete("R", (1,))

    def test_coalescing_preserves_committed_result(self):
        """The folded queue commits to the same instance as unfolded ops."""
        instance, constraints = one_relation_setup([(1, 10), (2, 20)])
        folded = StreamingRepairer(instance, constraints, commit_interval=None)
        folded.update("R", (1,), a=500)
        folded.update("R", (1,), a=30)       # coalesces
        folded.insert("R", (9, 400))
        folded.update("R", (9,), a=60)       # folds into the insert
        folded.flush()

        unfolded = StreamingRepairer(instance, constraints, commit_interval=1)
        unfolded.update("R", (1,), a=500)    # each op its own round
        unfolded.update("R", (1,), a=30)
        unfolded.insert("R", (9, 400))
        unfolded.update("R", (9,), a=60)
        unfolded.flush()

        assert folded.instance == unfolded.instance


class TestBackpressure:
    def test_error_policy_raises_without_enqueuing(self):
        instance, constraints = one_relation_setup([(1, 10), (2, 20), (3, 30)])
        streamer = StreamingRepairer(
            instance,
            constraints,
            max_pending=2,
            commit_interval=None,
            backpressure="error",
        )
        streamer.update("R", (1,), a=11)
        streamer.update("R", (2,), a=22)
        with pytest.raises(BackpressureError) as excinfo:
            streamer.update("R", (3,), a=33)
        assert excinfo.value.pending == 2
        assert excinfo.value.max_pending == 2
        # deterministic: the queue is intact and the op was not enqueued.
        assert streamer.pending_operations == 2
        assert streamer.stats.submitted["update"] == 2
        assert streamer.stats.backpressure_errors == 1
        # coalescing into an existing slot never trips the bound.
        streamer.update("R", (1,), a=12)
        assert streamer.pending_operations == 2
        # drain; the rejected operation can be resubmitted.
        streamer.flush()
        streamer.update("R", (3,), a=33)
        streamer.flush()
        assert streamer.instance.get("R", (3,))["a"] == 33

    def test_block_policy_drains_then_admits(self):
        instance, constraints = one_relation_setup([(1, 10), (2, 20), (3, 30)])
        streamer = StreamingRepairer(
            instance,
            constraints,
            max_pending=2,
            commit_interval=None,
            backpressure="block",
        )
        streamer.update("R", (1,), a=500)
        streamer.update("R", (2,), a=500)
        streamer.update("R", (3,), a=500)    # full queue: drains a round first
        assert streamer.stats.backpressure_blocks == 1
        assert streamer.stats.rounds == 1
        assert streamer.pending_operations == 1
        streamer.flush()
        assert is_consistent(streamer.instance, constraints)
        # nothing was dropped: all three updates are committed (repaired).
        for key in [(1,), (2,), (3,)]:
            assert streamer.instance.get("R", key)["a"] == 100


class TestRounds:
    def test_commit_interval_auto_commits(self):
        instance, constraints = one_relation_setup([(i, 10) for i in range(6)])
        streamer = StreamingRepairer(instance, constraints, commit_interval=2)
        for i in range(6):
            streamer.update("R", (i,), a=200 + i)
        assert streamer.stats.rounds == 3
        assert streamer.pending_operations == 0

    def test_flush_on_empty_queue_is_none(self, streamer):
        assert streamer.flush() is None
        assert streamer.stats.rounds == 0

    def test_snapshot_free_round_returns_no_instance(self):
        instance, constraints = one_relation_setup([(1, 10)])
        streamer = StreamingRepairer(instance, constraints)
        streamer.update("R", (1,), a=500)
        result = streamer.flush()
        assert result.repaired is None
        assert result.changes

    def test_snapshotting_rounds_match_snapshot_free_state(self):
        instance, constraints = one_relation_setup([(1, 10), (2, 20)])
        lean = StreamingRepairer(instance, constraints, snapshot_results=False)
        rich = StreamingRepairer(instance, constraints, snapshot_results=True)
        for s in (lean, rich):
            s.update("R", (1,), a=500)
            s.insert("R", (9, 300))
            s.flush()
        assert rich.last_result.repaired == rich.instance
        assert lean.instance == rich.instance

    def test_context_manager_flushes(self):
        instance, constraints = one_relation_setup([(1, 10)])
        with StreamingRepairer(instance, constraints) as streamer:
            streamer.update("R", (1,), a=500)
        assert streamer.pending_operations == 0
        assert streamer.instance.get("R", (1,))["a"] == 100

    def test_aggregate_result_sums_rounds(self):
        instance, constraints = one_relation_setup([(1, 10), (2, 20)])
        streamer = StreamingRepairer(instance, constraints, commit_interval=1)
        streamer.update("R", (1,), a=500)
        streamer.update("R", (2,), a=600)
        aggregate = streamer.aggregate_result()
        assert streamer.stats.rounds == 2
        assert aggregate.violations_before == 2
        assert len(aggregate.changes) == 2
        assert aggregate.repaired == streamer.instance
        assert aggregate.cover_weight > 0

    def test_stream_round_spans_wrap_commits(self):
        instance, constraints = one_relation_setup([(1, 10)])
        streamer = StreamingRepairer(instance, constraints, trace=True)
        streamer.update("R", (1,), a=500)
        streamer.flush()
        trace = streamer.finish_trace()
        names = [span.name for span in trace.spans()]
        assert "stream-round" in names
        assert "commit" in names
        round_span = next(s for s in trace.spans() if s.name == "stream-round")
        assert [child.name for child in round_span.children] == ["commit"]


# -- fuzzed parity: streamed == cold batch, across engines --------------------

_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),    # insert / update / delete
        st.integers(min_value=0, max_value=9),    # key
        st.integers(min_value=0, max_value=200),  # value (">100" violates)
    ),
    min_size=1,
    max_size=25,
)

@pytest.mark.parametrize("engine", ["auto", "interpreted"])
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_OPS, commit_interval=st.integers(min_value=1, max_value=8))
def test_streamed_equals_cold_batch(ops, commit_interval, engine):
    """Round boundaries never change the repair (single-tuple fix regime).

    A random op stream over ``R`` with ``NOT(R(id, a), a > 100)`` is fed
    through the pipeline with a random ``commit_interval``; the final
    instance must equal the cold batch repair of the same logical state.
    """
    base_rows = [(0, 10), (1, 150), (2, 50)]     # starts inconsistent
    instance, constraints = one_relation_setup(base_rows)
    streamer = StreamingRepairer(
        instance,
        constraints,
        commit_interval=commit_interval,
        engine=engine,
    )
    # ``model`` tracks the logical (pre-repair) state so generated ops
    # stay valid: inserts of absent keys, updates/deletes of present ones.
    model = {key: value for key, value in base_rows}
    # the initial inconsistency is repaired on construction.
    model[1] = 100

    for kind, key, value in ops:
        if kind == 0 and key not in model:
            streamer.insert("R", (key, value))
            model[key] = value
        elif kind == 1 and key in model:
            streamer.update("R", (key,), a=value)
            model[key] = value
        elif kind == 2 and key in model:
            streamer.delete("R", (key,))
            del model[key]
    streamer.flush()

    reference, _ = one_relation_setup(sorted(model.items()))
    expected = repair_database(reference, constraints, engine=engine).repaired
    assert streamer.instance == expected
    assert is_consistent(streamer.instance, constraints)
