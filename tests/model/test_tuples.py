"""Unit tests for tuples and tuple references."""

import pytest

from repro import Attribute, InstanceError, Relation, SchemaError, Tuple, TupleRef


@pytest.fixture
def client():
    return Relation(
        "Client",
        [Attribute.hard("id"), Attribute.flexible("a"), Attribute.flexible("c")],
        key=["id"],
    )


@pytest.fixture
def buy():
    return Relation(
        "Buy",
        [Attribute.hard("id"), Attribute.hard("i"), Attribute.flexible("p")],
        key=["id", "i"],
    )


class TestTuple:
    def test_access_by_name(self, client):
        tup = Tuple(client, ("c1", 17, 60))
        assert tup["id"] == "c1"
        assert tup["a"] == 17
        assert tup["c"] == 60

    def test_get_with_default(self, client):
        tup = Tuple(client, ("c1", 17, 60))
        assert tup.get("a") == 17
        assert tup.get("missing", -1) == -1

    def test_key_single(self, client):
        assert Tuple(client, ("c1", 17, 60)).key == ("c1",)

    def test_key_composite(self, buy):
        assert Tuple(buy, ("c1", 3, 10)).key == ("c1", 3)

    def test_ref(self, buy):
        ref = Tuple(buy, ("c1", 3, 10)).ref
        assert ref == TupleRef("Buy", ("c1", 3))

    def test_as_dict(self, client):
        assert Tuple(client, ("c1", 17, 60)).as_dict() == {
            "id": "c1",
            "a": 17,
            "c": 60,
        }

    def test_arity_mismatch_rejected(self, client):
        with pytest.raises(InstanceError):
            Tuple(client, ("c1", 17))

    def test_flexible_attribute_must_be_int(self, client):
        with pytest.raises(InstanceError):
            Tuple(client, ("c1", 17.5, 60))

    def test_flexible_attribute_rejects_string(self, client):
        with pytest.raises(InstanceError):
            Tuple(client, ("c1", "17", 60))

    def test_hard_attribute_may_be_any_type(self, client):
        assert Tuple(client, (("compound", "key"), 17, 60))["id"] == (
            "compound",
            "key",
        )

    def test_replace_returns_new_tuple(self, client):
        tup = Tuple(client, ("c1", 17, 60))
        fixed = tup.replace(a=18)
        assert fixed["a"] == 18
        assert tup["a"] == 17
        assert fixed is not tup

    def test_replace_with_mapping(self, client):
        tup = Tuple(client, ("c1", 17, 60))
        fixed = tup.replace({"a": 18, "c": 50})
        assert (fixed["a"], fixed["c"]) == (18, 50)

    def test_replace_nothing_returns_self(self, client):
        tup = Tuple(client, ("c1", 17, 60))
        assert tup.replace() is tup

    def test_replace_key_attribute_rejected(self, client):
        with pytest.raises(InstanceError):
            Tuple(client, ("c1", 17, 60)).replace(id="c2")

    def test_replace_checks_changed_flexible_cells(self, client):
        tup = Tuple(client, ("c1", 17, 60))
        with pytest.raises(InstanceError, match="must be an integer"):
            tup.replace(a=17.5)
        with pytest.raises(SchemaError):
            tup.replace(zz=1)

    def test_replace_keeps_identity_hash_and_ref(self, client):
        tup = Tuple(client, ("c1", 17, 60))
        ref = tup.ref
        fixed = tup.replace(a=18)
        assert fixed == Tuple(client, ("c1", 18, 60))
        assert hash(fixed) == hash(Tuple(client, ("c1", 18, 60)))
        assert fixed.ref is ref

    def test_changed_attributes(self, client):
        tup = Tuple(client, ("c1", 17, 60))
        assert tup.changed_attributes(tup.replace(a=18, c=40)) == ("a", "c")
        assert tup.changed_attributes(tup) == ()

    def test_changed_attributes_cross_relation_rejected(self, client, buy):
        with pytest.raises(InstanceError):
            Tuple(client, ("c1", 17, 60)).changed_attributes(
                Tuple(buy, ("c1", 0, 5))
            )

    def test_equality_and_hash(self, client):
        a = Tuple(client, ("c1", 17, 60))
        b = Tuple(client, ("c1", 17, 60))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Tuple(client, ("c1", 18, 60))

    def test_iteration_and_len(self, client):
        tup = Tuple(client, ("c1", 17, 60))
        assert list(tup) == ["c1", 17, 60]
        assert len(tup) == 3

    def test_repr(self, client):
        assert repr(Tuple(client, ("c1", 17, 60))) == "Client('c1', 17, 60)"


class TestTupleRef:
    def test_equality_and_hash(self):
        assert TupleRef("R", (1, 2)) == TupleRef("R", (1, 2))
        assert hash(TupleRef("R", (1, 2))) == hash(TupleRef("R", (1, 2)))
        assert TupleRef("R", (1, 2)) != TupleRef("R", (1, 3))
        assert TupleRef("R", (1,)) != TupleRef("S", (1,))

    def test_ordering(self):
        assert TupleRef("A", (1,)) < TupleRef("B", (0,))
        assert TupleRef("A", (1,)) < TupleRef("A", (2,))

    def test_repr(self):
        assert "Client" in repr(TupleRef("Client", ("c1",)))

    def test_flat_sort_key_matches_sort_key_order(self):
        refs = [
            TupleRef("Buy", (10, 2)),
            TupleRef("Buy", (9, 1)),      # "10" < "9" as strings: flat must agree
            TupleRef("BuyX", (0,)),       # relation name extends another
            TupleRef("Client", ("c1",)),
            TupleRef("Client", (235,)),   # mixed key types within one relation
        ]
        by_sort_key = sorted(refs, key=lambda r: r.sort_key)
        by_flat = sorted(refs, key=lambda r: r.flat_sort_key)
        assert by_flat == by_sort_key

    def test_flat_sort_key_refuses_nul_values(self):
        ref = TupleRef("R", ("a\x00b",))
        assert ref.flat_sort_key is None
        assert ref.sort_key  # the robust form still works

    def test_caches_survive_pickling(self):
        import pickle

        ref = TupleRef("R", (1, 2))
        assert ref.flat_sort_key is not None
        clone = pickle.loads(pickle.dumps(ref))
        assert clone == ref
        assert clone.flat_sort_key == ref.flat_sort_key
        assert clone.sort_key == ref.sort_key
