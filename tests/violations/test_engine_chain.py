"""The one detection dispatch: engine chains and the walker that runs them.

Every violation query - whole-instance, anchored (with and without
persistent join indexes) and the consistency probe - walks the chain of
:func:`repro.violations.detector.engine_chain`.  One table pins, per
query and requested engine, the chain; the walker test then makes one
engine refuse and checks the outcome the chain predicts.
"""

from __future__ import annotations

import pytest

from repro import IncrementalRepairer, parse_denials, repair_database
from repro.exceptions import (
    ConfigError,
    InstanceError,
    KernelError,
    PushdownError,
)
from repro.model.columnar import kernel_available
from repro.model.instance import DatabaseInstance
from repro.model.schema import Attribute, Relation, Schema
from repro.obs.trace import Tracer
from repro.storage import SqliteBackend
from repro.violations import detector
from repro.violations.detector import (
    engine_chain,
    find_all_violations,
    find_violations_involving,
    is_consistent,
    resolve_engine,
)
from repro.violations.indexes import JoinIndexCache
from repro.workloads import client_buy_workload

ENGINES = ("auto", "kernel", "pushdown", "interpreted")

#: (query, requested engine) -> the chain the walker runs, on a
#: backend-resident instance with NumPy present (:func:`_chain` drops
#: the kernel from ``auto`` chains without NumPy).
CHAINS = {
    ("full", "auto"): ("pushdown", "kernel", "interpreted"),
    ("full", "kernel"): ("kernel",),
    ("full", "pushdown"): ("pushdown",),
    ("full", "interpreted"): ("interpreted",),
    ("anchored", "auto"): ("kernel", "interpreted"),
    ("anchored", "kernel"): ("kernel",),
    ("anchored", "pushdown"): ("kernel", "interpreted"),
    ("anchored", "interpreted"): ("interpreted",),
    ("anchored+indexes", "auto"): ("interpreted",),
    ("anchored+indexes", "kernel"): ("kernel",),
    ("anchored+indexes", "pushdown"): ("interpreted",),
    ("anchored+indexes", "interpreted"): ("interpreted",),
    ("consistency", "auto"): ("pushdown", "kernel", "interpreted"),
    ("consistency", "kernel"): ("kernel",),
    ("consistency", "pushdown"): ("pushdown",),
    ("consistency", "interpreted"): ("interpreted",),
}

REFUSALS = {"kernel": KernelError, "pushdown": PushdownError}


def _chain(kind: str, engine: str) -> tuple[str, ...]:
    """``CHAINS[kind, engine]`` in this environment."""
    chain = CHAINS[kind, engine]
    if kernel_available() or chain == ("kernel",):
        return chain
    return tuple(name for name in chain if name != "kernel")


class TestEngineChain:
    def test_explicit_engine_is_a_one_entry_chain(self):
        for engine in ("kernel", "pushdown", "interpreted"):
            assert engine_chain(engine) == (engine,)

    @pytest.mark.parametrize(
        "pushdown, kernel, chain",
        [
            (True, True, ("pushdown", "kernel", "interpreted")),
            (True, False, ("pushdown", "interpreted")),
            (False, True, ("kernel", "interpreted")),
            (False, False, ("interpreted",)),
        ],
    )
    def test_auto_ladder(self, pushdown, kernel, chain):
        assert engine_chain("auto", pushdown=pushdown, kernel=kernel) == chain

    def test_auto_probes_numpy_by_default(self):
        assert ("kernel" in engine_chain("auto")) == kernel_available()

    def test_unknown_engine_is_a_config_error(self):
        with pytest.raises(ConfigError, match="auto|kernel|interpreted|pushdown"):
            engine_chain("vectorized")

    def test_resolve_engine_is_the_chain_head(self):
        for engine in ("auto", "pushdown", "interpreted"):
            assert resolve_engine(engine) == engine_chain(engine, pushdown=False)[0]


@pytest.fixture(scope="module")
def workload():
    return client_buy_workload(40, inconsistency_ratio=0.5, seed=5)


@pytest.fixture
def resident(workload):
    backend = SqliteBackend.from_instance(workload.instance)
    yield backend.load_instance(workload.schema)
    backend.close()


def _query(kind, instance, constraints, engine):
    """Run one kind of violation query with ``engine``."""
    if kind == "full":
        return find_all_violations(instance, constraints, engine=engine)
    if kind == "consistency":
        return is_consistent(instance, constraints, engine=engine)
    anchors = instance.tuples("Buy")[:8] + instance.tuples("Client")[:8]
    raw_indexes = JoinIndexCache(instance) if kind == "anchored+indexes" else None
    return find_violations_involving(
        instance, constraints, anchors, raw_indexes=raw_indexes, engine=engine
    )


@pytest.mark.parametrize("refused", sorted(REFUSALS))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "kind", ["full", "anchored", "anchored+indexes", "consistency"]
)
def test_walker(kind, engine, refused, workload, resident, monkeypatch):
    """One engine refuses: a one-entry chain of that engine propagates
    the refusal; a longer chain headed by it falls through with one
    ``engine_downgrades`` increment.  Every answer is the interpreted
    engine's."""
    chain = _chain(kind, engine)
    if chain == ("kernel",) and not kernel_available():
        pytest.skip("an explicit kernel request needs NumPy")
    constraints = workload.constraints[:1]
    expected = _query(kind, resident, constraints, "interpreted")

    def refuse(*args, **kwargs):
        raise REFUSALS[refused]("synthetic refusal")

    if refused == "kernel":
        monkeypatch.setattr(detector, "kernel_witnesses", refuse)
        monkeypatch.setattr(detector, "anchored_kernel_witnesses", refuse)
    else:
        monkeypatch.setattr(detector, "pushdown_used_sets", refuse)
        monkeypatch.setattr(detector, "pushdown_has_witness", refuse)

    tracer = Tracer()
    with tracer.activate():
        if chain == (refused,):
            with pytest.raises(REFUSALS[refused]):
                _query(kind, resident, constraints, engine)
            return
        got = _query(kind, resident, constraints, engine)
    assert got == expected
    downgrades = tracer.metrics.counter(
        "engine_downgrades", constraint=constraints[0].label, engine=refused
    ).value
    assert downgrades == (1 if chain[0] == refused else 0)


class TestIncomparableValues:
    """A hard column holding a ``str`` where a built-in compares with an
    ``int``: kernel and pushdown refuse, and the interpreted engine - the
    last rung of ``auto`` - raises a structured error, not ``TypeError``."""

    H1 = parse_denials("h1: NOT(Buy(id, i, p), i < 1, p > 40)")

    @pytest.fixture
    def dirty(self, workload):
        rows = {
            relation.name: [t.values for t in workload.instance.tuples(relation.name)]
            for relation in workload.schema
        }
        first = rows["Buy"][0]
        rows["Buy"][0] = (first[0], "0", first[2])
        return DatabaseInstance.from_rows(workload.schema, rows)

    def _check(self, error):
        message = str(error.value)
        assert "h1" in message and "Buy.i" in message and "'0'" in message
        assert "'str' and 'int'" in message

    @pytest.mark.parametrize("engine", ["auto", "interpreted"])
    def test_find_all_violations(self, dirty, engine):
        with pytest.raises(InstanceError) as error:
            find_all_violations(dirty, self.H1, engine=engine)
        self._check(error)

    @pytest.mark.parametrize("indexed", [False, True])
    def test_find_violations_involving(self, dirty, indexed):
        anchors = dirty.tuples("Buy")[:1]
        raw_indexes = JoinIndexCache(dirty) if indexed else None
        with pytest.raises(InstanceError) as error:
            find_violations_involving(dirty, self.H1, anchors, raw_indexes=raw_indexes)
        self._check(error)

    def test_is_consistent(self, dirty):
        with pytest.raises(InstanceError) as error:
            is_consistent(dirty, self.H1)
        self._check(error)

    def test_repair_database(self, dirty):
        with pytest.raises(InstanceError) as error:
            repair_database(dirty, self.H1)
        self._check(error)

    def test_incremental_repairer(self, workload):
        repairer = IncrementalRepairer(workload.instance, self.H1)
        client = workload.instance.tuples("Client")[0].values[0]
        repairer.insert("Buy", (client, "0", 50))
        with pytest.raises(InstanceError) as error:
            repairer.commit()
        self._check(error)

    @pytest.mark.skipif(not kernel_available(), reason="needs NumPy")
    def test_kernel_and_pushdown_refuse(self, dirty):
        with pytest.raises(KernelError):
            find_all_violations(dirty, self.H1, engine="kernel")
        with SqliteBackend.from_instance(dirty) as backend:
            loaded = backend.load_instance(dirty.schema)
            with pytest.raises(PushdownError, match="Buy.i"):
                find_all_violations(loaded, self.H1, engine="pushdown")

    def test_none_names_its_type(self, workload):
        rows = {
            relation.name: [t.values for t in workload.instance.tuples(relation.name)]
            for relation in workload.schema
        }
        first = rows["Buy"][3]
        rows["Buy"][3] = (first[0], None, first[2])
        instance = DatabaseInstance.from_rows(workload.schema, rows)
        with pytest.raises(InstanceError, match=r"Buy\.i holds None.*'NoneType' and 'int'"):
            find_all_violations(instance, self.H1, engine="interpreted")


class TestMixedColumns:
    """A variable comparison ``x < y`` over two ``str`` columns: the
    error blames the column that mixes types, wherever its odd value
    sits, and names both columns when each is uniform but the two are
    not comparable."""

    M = parse_denials("m: NOT(R(k, x, y), x < y)")

    @staticmethod
    def _instance(b_values):
        schema = Schema(
            [
                Relation(
                    "R",
                    [Attribute.hard("id"), Attribute.hard("a"), Attribute.hard("b")],
                    key=["id"],
                )
            ]
        )
        instance = DatabaseInstance(schema)
        for index, b in enumerate(b_values):
            instance.insert_row("R", (index, "m", b))
        return instance

    @pytest.mark.parametrize("odd", [0, 2])
    def test_blames_the_odd_value(self, odd):
        b_values = ["n", "o", "p", "q"]
        b_values[odd] = 7
        instance = self._instance(b_values)
        with pytest.raises(InstanceError) as error:
            find_all_violations(instance, self.M, engine="interpreted")
        message = str(error.value)
        assert message.startswith("m: R.b holds 7: ")
        assert "'int' and 'str'" in message
        assert "R.a" not in message

    def test_uniform_columns_name_both(self):
        instance = self._instance([1, 2, 3])
        with pytest.raises(
            InstanceError, match=r"m: R\.a and R\.b do not compare by x < y: .*'str' and 'int'"
        ):
            find_all_violations(instance, self.M, engine="interpreted")
