"""Loader parity: every backend's bulk load equals a per-row load.

The SQL and CSV backends load through the bulk builder of
``DatabaseInstance.from_rows``.  Its result must equal a plain per-row
``Tuple(...)`` + ``insert`` of the same stored rows in every respect the
rest of the program can see - table order, keys, tuple values and
hashes, data versions - and the pushdown binding cache it seeds must hold
the verdicts of the per-cell column definition.  Parametrized over
sqlite, DuckDB (skipped unless the ``repro[duckdb]`` extra is installed)
and the CSV directory backend.
"""

import pytest

from repro import Attribute, DatabaseInstance, Relation, Schema, Tuple
from repro.storage import CsvBackend, SqliteBackend, duckdb_available
from repro.violations.pushdown import BINDING_ATTR, prescan_columns
from repro.workloads import client_buy_workload, tpch_like_workload


def _per_cell_prescan(instance):
    """The per-cell definition of :func:`prescan_columns` verdicts."""
    cache = {}
    for relation in instance.schema:
        tuples = instance.tuples(relation.name)
        for index, attribute in enumerate(relation.attributes):
            all_int = all(type(t.values[index]) is int for t in tuples)
            no_null = all_int or all(t.values[index] is not None for t in tuples)
            cache[("int", relation.name, attribute.name)] = all_int
            cache[("null", relation.name, attribute.name)] = no_null
    return cache


def _per_row_load(schema, rows):
    reference = DatabaseInstance(schema)
    for relation in schema:
        for row in rows[relation.name]:
            reference.insert(Tuple(relation, tuple(row)))
    return reference


def _sql_backend(backend_cls):
    def open_backend(instance, tmp_path):
        backend = backend_cls.from_instance(instance)

        def stored_rows(relation):
            return backend.execute(
                f"SELECT {', '.join(relation.attribute_names)} "
                f"FROM {relation.name}"
            )

        return backend, stored_rows

    return open_backend


def _csv_backend(instance, tmp_path):
    backend = CsvBackend.write_instance(instance, tmp_path / "data")
    # The CSV files round-trip these workloads' values exactly.
    return backend, lambda relation: instance.tuples(relation.name)


def _backends():
    params = [
        pytest.param(_sql_backend(SqliteBackend), id="sqlite"),
        pytest.param(_csv_backend, id="csv"),
    ]
    if duckdb_available():
        from repro.storage import DuckDBBackend

        params.append(pytest.param(_sql_backend(DuckDBBackend), id="duckdb"))
    else:
        params.append(
            pytest.param(
                None,
                id="duckdb",
                marks=pytest.mark.skip(reason="duckdb not installed"),
            )
        )
    return params


WORKLOADS = [
    pytest.param(
        lambda: client_buy_workload(40, inconsistency_ratio=0.4, seed=5),
        id="clientbuy",
    ),
    pytest.param(
        lambda: tpch_like_workload(0.05, violation_ratio=0.05, seed=2),
        id="tpch",
    ),
]


@pytest.mark.parametrize("make_workload", WORKLOADS)
@pytest.mark.parametrize("open_backend", _backends())
def test_bulk_load_equals_per_row_load(open_backend, make_workload, tmp_path):
    workload = make_workload()
    backend, stored_rows = open_backend(workload.instance, tmp_path)
    rows = {relation.name: stored_rows(relation) for relation in workload.schema}
    loaded = backend.load_instance(workload.schema)
    reference = _per_row_load(workload.schema, rows)

    assert loaded == reference == workload.instance
    for relation in workload.schema:
        name = relation.name
        assert loaded.data_version(name) == reference.data_version(name)
        assert [t.key for t in loaded.tuples(name)] == [
            t.key for t in reference.tuples(name)
        ]
        for got, want in zip(loaded.tuples(name), reference.tuples(name)):
            assert got.values == want.values
            assert hash(got) == hash(want)
            assert got.ref == want.ref
    binding = getattr(loaded, BINDING_ATTR, None)
    if binding is not None:
        assert binding.cache == _per_cell_prescan(reference)


class TestPrescanColumns:
    def test_verdicts_match_per_cell_definition(self):
        schema = Schema(
            [
                Relation(
                    "Mixed",
                    [
                        Attribute.hard("id"),
                        Attribute.flexible("flag"),
                        Attribute.hard("maybe"),
                        Attribute.hard("name"),
                        Attribute.hard("count"),
                    ],
                    key=["id"],
                ),
                Relation(
                    "Empty",
                    [Attribute.hard("id"), Attribute.flexible("w")],
                    key=["id"],
                ),
            ]
        )
        instance = DatabaseInstance.from_rows(
            schema,
            {
                "Mixed": [
                    (1, True, 7, "a", 1),
                    (2, 3, None, "b", 2),
                    (3, 4, 8, 5, 3),
                ]
            },
        )
        verdicts = prescan_columns(instance)
        assert verdicts == _per_cell_prescan(instance)
        assert verdicts[("int", "Mixed", "flag")] is False   # a bool
        assert verdicts[("null", "Mixed", "flag")] is True
        assert verdicts[("int", "Mixed", "maybe")] is False  # a None
        assert verdicts[("null", "Mixed", "maybe")] is False
        assert verdicts[("int", "Mixed", "name")] is False   # strs
        assert verdicts[("null", "Mixed", "name")] is True
        assert verdicts[("int", "Mixed", "count")] is True
        assert verdicts[("int", "Empty", "w")] is True       # vacuous
        assert verdicts[("null", "Empty", "w")] is True
