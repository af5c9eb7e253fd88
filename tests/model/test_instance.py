"""Unit tests for database instances."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Attribute,
    DatabaseInstance,
    InstanceError,
    KeyViolationError,
    Relation,
    Schema,
    Tuple,
    TupleRef,
)


@pytest.fixture
def schema():
    return Schema(
        [
            Relation(
                "Client",
                [Attribute.hard("id"), Attribute.flexible("a")],
                key=["id"],
            ),
            Relation(
                "Buy",
                [Attribute.hard("id"), Attribute.hard("i"), Attribute.flexible("p")],
                key=["id", "i"],
            ),
        ]
    )


@pytest.fixture
def instance(schema):
    return DatabaseInstance.from_rows(
        schema,
        {
            "Client": [(1, 20), (2, 15)],
            "Buy": [(1, 0, 10), (1, 1, 30), (2, 0, 5)],
        },
    )


class TestConstruction:
    def test_from_rows_counts(self, instance):
        assert instance.count("Client") == 2
        assert instance.count("Buy") == 3
        assert instance.count() == 5
        assert len(instance) == 5

    def test_insert_row_returns_tuple(self, schema):
        instance = DatabaseInstance(schema)
        tup = instance.insert_row("Client", (9, 33))
        assert tup["a"] == 33
        assert instance.count() == 1

    def test_duplicate_key_rejected(self, instance, schema):
        with pytest.raises(KeyViolationError):
            instance.insert(Tuple(schema.relation("Client"), (1, 99)))

    def test_composite_key_uniqueness(self, instance):
        with pytest.raises(KeyViolationError):
            instance.insert_row("Buy", (1, 0, 99))
        instance.insert_row("Buy", (1, 2, 99))  # new item index is fine

    def test_unknown_relation_rejected(self, instance):
        with pytest.raises(InstanceError):
            instance.tuples("Nope")


class TestLookup:
    def test_get_by_key(self, instance):
        assert instance.get("Client", (2,))["a"] == 15
        assert instance.get("Buy", (1, 1))["p"] == 30

    def test_get_missing_raises(self, instance):
        with pytest.raises(InstanceError):
            instance.get("Client", (7,))

    def test_resolve_ref(self, instance):
        tup = instance.resolve(TupleRef("Buy", (2, 0)))
        assert tup["p"] == 5

    def test_contains_tuple(self, instance, schema):
        assert Tuple(schema.relation("Client"), (1, 20)) in instance
        assert Tuple(schema.relation("Client"), (1, 21)) not in instance
        assert Tuple(schema.relation("Client"), (9, 20)) not in instance

    def test_contains_key(self, instance):
        assert instance.contains_key("Client", (1,))
        assert not instance.contains_key("Client", (9,))

    def test_key_values(self, instance):
        assert instance.key_values("Buy") == {(1, 0), (1, 1), (2, 0)}

    def test_all_tuples(self, instance):
        assert sum(1 for _ in instance.all_tuples()) == 5


class TestMutation:
    def test_replace_tuple(self, instance, schema):
        old = instance.replace_tuple(Tuple(schema.relation("Client"), (2, 18)))
        assert old["a"] == 15
        assert instance.get("Client", (2,))["a"] == 18

    def test_replace_missing_raises(self, instance, schema):
        with pytest.raises(InstanceError):
            instance.replace_tuple(Tuple(schema.relation("Client"), (7, 18)))

    def test_delete(self, instance):
        deleted = instance.delete("Buy", (1, 1))
        assert deleted["p"] == 30
        assert instance.count("Buy") == 2

    def test_delete_missing_raises(self, instance):
        with pytest.raises(InstanceError):
            instance.delete("Buy", (9, 9))

    def test_copy_is_independent(self, instance, schema):
        clone = instance.copy()
        clone.replace_tuple(Tuple(schema.relation("Client"), (2, 99)))
        assert instance.get("Client", (2,))["a"] == 15
        assert clone.get("Client", (2,))["a"] == 99

    def test_copy_equal(self, instance):
        assert instance.copy() == instance

    def test_replace_tuples_matches_per_tuple_loop(self, instance, schema):
        buy = schema.relation("Buy")
        new = [Tuple(buy, (2, 0, 70)), Tuple(buy, (1, 0, 5))]
        looped = instance.copy()
        expected_old = [looped.replace_tuple(t) for t in new]
        bulk = instance.copy()
        assert bulk.replace_tuples("Buy", new) == expected_old
        assert bulk == looped
        assert bulk.data_version("Buy") == looped.data_version("Buy") == 2
        assert bulk.data_version("Client") == 0

    def test_replace_tuples_missing_key_writes_nothing(self, instance, schema):
        client = schema.relation("Client")
        before, version = instance.copy(), instance.data_version("Client")
        with pytest.raises(InstanceError, match=r"no tuple with key \(7,\)"):
            instance.replace_tuples(
                "Client", [Tuple(client, (2, 18)), Tuple(client, (7, 18))]
            )
        assert instance == before
        assert instance.data_version("Client") == version

    def test_replace_tuples_rejects_other_relation(self, instance, schema):
        with pytest.raises(InstanceError, match="does not belong to 'Buy'"):
            instance.replace_tuples("Buy", [Tuple(schema.relation("Client"), (2, 18))])


class TestComparison:
    def test_same_key_sets(self, instance, schema):
        clone = instance.copy()
        assert instance.same_key_sets(clone)
        clone.replace_tuple(Tuple(schema.relation("Client"), (2, 99)))
        assert instance.same_key_sets(clone)  # keys unchanged by update
        clone.delete("Client", (2,))
        assert not instance.same_key_sets(clone)

    def test_equality_differs_on_values(self, instance, schema):
        clone = instance.copy()
        assert clone == instance
        clone.replace_tuple(Tuple(schema.relation("Client"), (2, 99)))
        assert clone != instance

    def test_to_text_mentions_all_relations(self, instance):
        text = instance.to_text()
        assert "Client" in text and "Buy" in text
        assert "1, 20" in text


def _per_row_reference(schema, rows):
    """The instance a plain per-row ``Tuple(...)`` + ``insert`` builds."""
    reference = DatabaseInstance(schema)
    for name, relation_rows in rows.items():
        relation = schema.relation(name)
        for row in relation_rows:
            reference.insert(Tuple(relation, tuple(row)))
    return reference


_BULK_SCHEMA = Schema(
    [
        Relation(
            "Buy",
            [
                Attribute.hard("id"),
                Attribute.hard("i"),
                Attribute.flexible("p"),
                Attribute.hard("tag"),
            ],
            key=["id", "i"],
        ),
        Relation(
            "Client", [Attribute.hard("id"), Attribute.flexible("a")], key=["id"]
        ),
        Relation("Empty", [Attribute.hard("id"), Attribute.flexible("b")], key=["id"]),
    ]
)

# A small key domain makes duplicate keys common (True collides with 1).
_keys = st.sampled_from([*range(12), True, False, "1", None])
_flexible = st.one_of(st.integers(-(2**70), 2**70), st.booleans())
_hard = st.one_of(st.integers(-3, 3), st.text(max_size=2), st.none())


@st.composite
def _relation_rows(draw, *cells, flexible_index):
    rows = draw(st.lists(st.tuples(*cells), max_size=12))
    damage = draw(st.sampled_from(["none"] * 4 + ["cell", "arity"]))
    if rows and damage != "none":
        index = draw(st.integers(0, len(rows) - 1))
        row = list(rows[index])
        if damage == "cell":
            row[flexible_index] = draw(st.sampled_from([None, "x", 1.5]))
        else:
            row = draw(st.sampled_from([row[:-1], row + [0]]))
        rows[index] = tuple(row)
    return rows


@st.composite
def _bulk_rows(draw):
    return {
        "Buy": draw(_relation_rows(_keys, _keys, _flexible, _hard, flexible_index=2)),
        "Client": draw(_relation_rows(_keys, _flexible, flexible_index=1)),
        "Empty": [],
    }


class TestBulkFromRows:
    @settings(max_examples=150, deadline=None)
    @given(_bulk_rows())
    def test_equals_per_row_reference(self, rows):
        try:
            expected = _per_row_reference(_BULK_SCHEMA, rows)
        except (InstanceError, KeyViolationError) as error:
            with pytest.raises(type(error)) as caught:
                DatabaseInstance.from_rows(_BULK_SCHEMA, rows)
            assert type(caught.value) is type(error)
            assert str(caught.value) == str(error)
            return
        loaded = DatabaseInstance.from_rows(_BULK_SCHEMA, rows)
        assert loaded == expected
        assert loaded._versions == expected._versions
        for relation in _BULK_SCHEMA:
            name = relation.name
            assert tuple(loaded._tables[name]) == tuple(expected._tables[name])
            for got, want in zip(loaded.tuples(name), expected.tuples(name)):
                assert repr(got) == repr(want)
                assert hash(got) == hash(want)
                assert got.ref == want.ref
                assert got.key == want.key

    def test_pairs_are_validated_one_relation_at_a_time(self, schema):
        drawn = []

        def pairs():
            drawn.append("Client")
            yield "Client", [(1, "bad")]
            drawn.append("Buy")
            yield "Buy", []

        with pytest.raises(InstanceError, match="Client.a is flexible"):
            DatabaseInstance.from_rows(schema, pairs())
        assert drawn == ["Client"]

    def test_relation_given_twice_appends(self, schema):
        loaded = DatabaseInstance.from_rows(
            schema, [("Client", [(1, 5)]), ("Client", [(2, 6)])]
        )
        assert [t.key for t in loaded.tuples("Client")] == [(1,), (2,)]
        assert loaded.data_version("Client") == 2
        with pytest.raises(KeyViolationError):
            DatabaseInstance.from_rows(
                schema, [("Client", [(1, 5)]), ("Client", [(1, 6)])]
            )

    def test_unhashable_value_raises_like_per_row(self, schema):
        # The duplicate key comes before the unhashable one, as per row.
        rows = {"Buy": [(1, 0, 1), (1, 0, 2), (3, [], 4)]}
        with pytest.raises(KeyViolationError):
            DatabaseInstance.from_rows(schema, rows)
        with pytest.raises(TypeError):
            DatabaseInstance.from_rows(schema, {"Buy": [(3, [], 4)]})


def _reference_canonical(instance, relation_name):
    """The canonical order recomputed from scratch, ignoring any cache."""
    table = instance.tuples(relation_name)
    for position in instance.schema.relation(relation_name).key_positions:
        types = {type(tup.values[position]) for tup in table}
        if len(types) > 1 or not types <= {int, str}:
            return sorted(
                table, key=lambda t: tuple((type(v).__name__, str(v)) for v in t.key)
            )
    return sorted(table, key=lambda t: t.key)


class TestCanonicalOrderLineage:
    def test_replaced_copy_reuses_source_order(self, instance, schema):
        instance.canonical_tuples("Buy")
        copy = instance.copy()
        copy.replace_tuple(Tuple(schema.relation("Buy"), (1, 0, 99)))
        assert copy.canonical_tuples("Buy") == _reference_canonical(copy, "Buy")
        assert copy._orders["Buy"][2] is instance._orders["Buy"][2]

    def test_key_of_another_type_recomputes(self, instance, schema):
        instance.canonical_tuples("Client")
        copy = instance.copy()
        copy.replace_tuple(Tuple(schema.relation("Client"), (True, 20)))
        assert copy.canonical_tuples("Client") == _reference_canonical(copy, "Client")
        assert copy._orders["Client"][1] is None      # the type-tagged order

    def test_insert_or_dead_source_recomputes(self, instance, schema):
        import gc

        instance.canonical_tuples("Client")
        copy = instance.copy()
        copy.insert_row("Client", (0, 7))
        assert copy.canonical_tuples("Client") == _reference_canonical(copy, "Client")
        source = instance.copy()          # the fixture keeps ``instance``
        source.canonical_tuples("Client")
        orphan = source.copy()
        orphan.replace_tuple(Tuple(schema.relation("Client"), (2, 3)))
        del source
        gc.collect()
        assert orphan.copy_source("Client") is None
        assert orphan.canonical_tuples("Client") == _reference_canonical(
            orphan, "Client"
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["copy", "order", "replace", "swap-key", "insert", "delete"]
                ),
                st.integers(0, 30),
                st.sampled_from([0, 1, 2, 5, True, False, 1.0, 2.5, "a", 10**30]),
            ),
            max_size=20,
        )
    )
    def test_matches_recomputed_order(self, ops):
        schema = Schema(
            [Relation("R", [Attribute.hard("k"), Attribute.flexible("v")], key=["k"])]
        )
        instance = DatabaseInstance.from_rows(schema, {"R": [(3, 0), (1, 1), (4, 2)]})
        relation = schema.relation("R")
        sources = []
        for op, index, value in ops:
            tuples = instance.tuples("R")
            old = tuples[index % len(tuples)] if tuples else None
            try:
                if op == "copy":
                    sources.append(instance)
                    instance = instance.copy()
                elif op == "order":
                    instance.canonical_tuples("R")
                elif op == "insert":
                    instance.insert_row("R", (value, index))
                elif old is None:
                    continue
                elif op == "replace":
                    instance.replace_tuple(old.replace(v=index))
                elif op == "swap-key" and old.values[0] == value:
                    instance.replace_tuple(Tuple(relation, (value, index)))
                elif op == "delete":
                    instance.delete("R", old.key)
            except KeyViolationError:
                pass
            assert instance.canonical_tuples("R") == _reference_canonical(instance, "R")
