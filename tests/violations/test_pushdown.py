"""The SQL pushdown engine: binding lifecycle, dispatch, parity, faithfulness.

All tests here run against the sqlite backend (always available); the
DuckDB-parametrized parity suite lives in ``test_pushdown_parity.py``.
"""

import pickle

import pytest

from repro import DatabaseInstance, parse_denial, repair_database
from repro.exceptions import ConfigError, ConstraintError, PushdownError
from repro.model.schema import Attribute, Relation, Schema
from repro.storage import SqliteBackend
from repro.violations import (
    bind_backend,
    bound_backend,
    pushdown_ready,
    unbind_backend,
)
from repro.violations.detector import (
    find_all_violations,
    find_violations,
    is_consistent,
    resolve_engine,
)
from repro.workloads import client_buy_workload


@pytest.fixture
def workload():
    return client_buy_workload(60, inconsistency_ratio=0.4, seed=3)


@pytest.fixture
def resident(workload):
    """A backend-resident copy of the workload instance."""
    backend = SqliteBackend.from_instance(workload.instance)
    loaded = backend.load_instance(workload.schema)
    yield backend, loaded
    backend.close()


class TestBindingLifecycle:
    def test_load_instance_binds(self, resident):
        backend, loaded = resident
        assert pushdown_ready(loaded)
        assert bound_backend(loaded) is backend

    def test_plain_instance_is_not_bound(self, workload):
        assert not pushdown_ready(workload.instance)
        assert bound_backend(workload.instance) is None

    def test_instance_mutation_severs(self, resident, workload):
        _, loaded = resident
        tup = loaded.tuples("Client")[0]
        loaded.delete("Client", tup.key)
        assert not pushdown_ready(loaded)

    def test_backend_write_severs(self, resident, workload):
        backend, loaded = resident
        backend.execute("UPDATE Client SET c = c + 1 WHERE rowid = 1")
        assert not pushdown_ready(loaded)

    def test_readonly_execute_keeps_binding(self, resident):
        backend, loaded = resident
        backend.execute("SELECT COUNT(*) FROM Client")
        assert pushdown_ready(loaded)

    def test_copy_does_not_carry_binding(self, resident):
        _, loaded = resident
        assert not pushdown_ready(loaded.copy())
        assert pushdown_ready(loaded)  # the original is untouched

    def test_pickle_drops_binding(self, resident):
        _, loaded = resident
        revived = pickle.loads(pickle.dumps(loaded))
        assert revived == loaded
        assert not pushdown_ready(revived)

    def test_unbind_is_idempotent(self, resident):
        _, loaded = resident
        unbind_backend(loaded)
        unbind_backend(loaded)
        assert not pushdown_ready(loaded)

    def test_backend_gc_severs(self, workload):
        backend = SqliteBackend.from_instance(workload.instance)
        loaded = backend.load_instance(workload.schema)
        del backend
        assert not pushdown_ready(loaded)

    def test_rebinding_after_reload(self, resident, workload):
        backend, loaded = resident
        backend.execute("DELETE FROM Buy WHERE rowid = 1")
        assert not pushdown_ready(loaded)
        fresh = backend.load_instance(workload.schema)
        assert pushdown_ready(fresh)


class TestDispatch:
    def test_auto_resolves_to_pushdown_when_resident(self, resident):
        _, loaded = resident
        assert resolve_engine("auto", loaded) == "pushdown"

    def test_auto_without_instance_is_in_memory(self, workload):
        assert resolve_engine("auto", workload.instance) != "pushdown"
        assert resolve_engine("auto") != "pushdown"

    def test_unknown_engine_is_config_error(self):
        with pytest.raises(ConfigError) as exc:
            resolve_engine("sql")
        assert "auto|kernel|interpreted|pushdown" in str(exc.value)

    def test_strict_pushdown_on_plain_instance_raises(self, workload):
        with pytest.raises(PushdownError, match="backend-resident"):
            find_all_violations(
                workload.instance, workload.constraints, engine="pushdown"
            )

    def test_auto_falls_back_after_severing(self, resident, workload):
        backend, loaded = resident
        expected = find_all_violations(
            loaded, workload.constraints, engine="pushdown"
        )
        backend.execute("DELETE FROM Buy WHERE 0 = 1")  # generation bump
        assert not pushdown_ready(loaded)
        fallen_back = find_all_violations(
            loaded, workload.constraints, engine="auto"
        )
        assert fallen_back == expected
        with pytest.raises(PushdownError):
            find_all_violations(loaded, workload.constraints, engine="pushdown")


class TestParity:
    def test_byte_identical_across_engines(self, resident, workload):
        _, loaded = resident
        pushdown = find_all_violations(
            loaded, workload.constraints, engine="pushdown"
        )
        assert pushdown  # the workload is inconsistent by construction
        for engine in ("auto", "interpreted"):
            assert (
                find_all_violations(
                    workload.instance, workload.constraints, engine=engine
                )
                == pushdown
            )

    def test_max_violations_valve_message_parity(self, resident, workload):
        _, loaded = resident
        constraint = workload.constraints[0]
        with pytest.raises(ConstraintError) as from_pushdown:
            find_violations(loaded, constraint, max_violations=1, engine="pushdown")
        with pytest.raises(ConstraintError) as from_interpreted:
            find_violations(
                workload.instance, constraint, max_violations=1, engine="interpreted"
            )
        assert str(from_pushdown.value) == str(from_interpreted.value)

    def test_is_consistent_probe(self, resident, workload):
        backend, loaded = resident
        assert not is_consistent(loaded, workload.constraints, engine="pushdown")
        clean = client_buy_workload(40, inconsistency_ratio=0.0, seed=9)
        with SqliteBackend.from_instance(clean.instance) as clean_backend:
            clean_loaded = clean_backend.load_instance(clean.schema)
            assert is_consistent(
                clean_loaded, clean.constraints, engine="pushdown"
            )


class TestObservability:
    def test_detect_spans_tagged_with_pushdown(self, resident, workload):
        from repro.obs import Tracer

        _, loaded = resident
        tracer = Tracer()
        with tracer.activate():
            find_all_violations(loaded, workload.constraints, engine="auto")
        trace = tracer.finish()
        detect = [r for r in trace.roots if r.name.startswith("detect:")]
        assert detect
        assert all(span.tags["engine"] == "pushdown" for span in detect)


class TestRepairEndToEnd:
    def test_repair_with_pushdown_engine(self, resident, workload):
        _, loaded = resident
        result = repair_database(loaded, workload.constraints, engine="pushdown")
        baseline = repair_database(
            workload.instance, workload.constraints, engine="interpreted"
        )
        assert result.verified  # verify stage downgraded to auto, not strict
        assert result.solver_stats["detection_engine"] == "pushdown"
        assert result.distance == baseline.distance

    def test_repaired_copy_is_unbound(self, resident, workload):
        _, loaded = resident
        result = repair_database(loaded, workload.constraints, engine="pushdown")
        assert not pushdown_ready(result.repaired)
        assert pushdown_ready(loaded)  # repair never mutates its input


def _fruit_instance(values):
    schema = Schema(
        [
            Relation(
                name="Fruit",
                attributes=(Attribute("id"), Attribute("weight")),
                key=("id",),
            )
        ]
    )
    instance = DatabaseInstance(schema)
    for index, value in enumerate(values):
        instance.insert_row("Fruit", (index, value))
    return schema, instance


class TestFaithfulnessGuards:
    """Data shapes where SQL semantics diverge are refused, not mis-answered."""

    ORDER = parse_denial("NOT(Fruit(i, w), w > 100)")
    EQUALITY = parse_denial("NOT(Fruit(i, w), Fruit(j, w2), i < j, w = w2)")

    def test_non_integer_order_comparison_refused(self):
        # 200.5 orders fine in both worlds, but the executability
        # contract is the kernel's conservative all-integer one.
        schema, instance = _fruit_instance([50, 200.5, 150])
        with SqliteBackend.from_instance(instance) as backend:
            loaded = backend.load_instance(schema)
            with pytest.raises(PushdownError, match="non-integer"):
                find_violations(loaded, self.ORDER, engine="pushdown")
            fallback = find_violations(loaded, self.ORDER, engine="auto")
            assert fallback == find_violations(
                instance, self.ORDER, engine="interpreted"
            )
            assert len(fallback) == 2

    def test_null_in_compared_column_refused(self):
        schema, instance = _fruit_instance([10, None, 10])
        with SqliteBackend.from_instance(instance) as backend:
            loaded = backend.load_instance(schema)
            with pytest.raises(PushdownError, match="NULL"):
                find_violations(loaded, self.EQUALITY, engine="pushdown")
            fallback = find_violations(loaded, self.EQUALITY, engine="auto")
            interpreted = find_violations(
                instance, self.EQUALITY, engine="interpreted"
            )
            assert fallback == interpreted

    def test_clean_integer_data_executes(self):
        schema, instance = _fruit_instance([50, 200, 150, 200])
        with SqliteBackend.from_instance(instance) as backend:
            loaded = backend.load_instance(schema)
            order = find_violations(loaded, self.ORDER, engine="pushdown")
            equal = find_violations(loaded, self.EQUALITY, engine="pushdown")
        assert len(order) == 3
        assert len(equal) == 1
        assert order == find_violations(instance, self.ORDER, engine="interpreted")
        assert equal == find_violations(
            instance, self.EQUALITY, engine="interpreted"
        )

    def test_null_join_key_repair(self):
        """A violating client whose ``id`` and ``Buy.id``s are NULL:
        ``None == None`` joins in Python, ``NULL = NULL`` does not in SQL.
        ``auto`` falls back and repairs every violation (verified);
        explicit pushdown refuses, naming the column."""
        workload = client_buy_workload(30, seed=3)
        rows = {
            relation.name: [t.values for t in workload.instance.tuples(relation.name)]
            for relation in workload.schema
        }
        victim = next(
            client[0]
            for client in rows["Client"]
            if client[1] < 18
            and any(buy[0] == client[0] and buy[2] > 25 for buy in rows["Buy"])
        )
        for name in ("Client", "Buy"):
            rows[name] = [
                (None,) + row[1:] if row[0] == victim else row for row in rows[name]
            ]
        instance = DatabaseInstance.from_rows(workload.schema, rows)
        expected = find_all_violations(
            instance, workload.constraints, engine="interpreted"
        )
        with SqliteBackend.from_instance(instance) as backend:
            result = repair_database(
                backend.load_instance(workload.schema), workload.constraints
            )
            assert result.verified
            assert result.violations_before == len(expected)
            with pytest.raises(PushdownError, match="Buy.id"):
                repair_database(
                    backend.load_instance(workload.schema),
                    workload.constraints,
                    engine="pushdown",
                )
