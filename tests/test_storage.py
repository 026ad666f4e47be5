"""Unit tests for the in-memory storage engine."""

import pytest

from repro.catalog.schema import Catalog, ColumnDef, DataType, TableDef
from repro.storage.database import Database, empty_database
from repro.storage.table import StorageError, StoredTable


@pytest.fixture()
def table_def():
    return TableDef(
        name="t",
        columns=[
            ColumnDef("a", DataType.INT, nullable=False),
            ColumnDef("b", DataType.STRING),
            ColumnDef("c", DataType.FLOAT),
            ColumnDef("d", DataType.BOOL),
        ],
        primary_key=("a",),
    )


class TestStoredTable:
    def test_insert_and_scan(self, table_def):
        table = StoredTable(table_def)
        table.insert((1, "x", 1.5, True))
        table.insert((2, None, None, None))
        assert len(table) == 2
        assert list(table.scan()) == [(1, "x", 1.5, True), (2, None, None, None)]

    def test_arity_mismatch(self, table_def):
        table = StoredTable(table_def)
        with pytest.raises(StorageError, match="expected 4 values"):
            table.insert((1, "x"))

    def test_not_null_enforced(self, table_def):
        table = StoredTable(table_def)
        with pytest.raises(StorageError, match="NULL in NOT NULL"):
            table.insert((None, "x", 1.0, False))

    def test_type_checked(self, table_def):
        table = StoredTable(table_def)
        with pytest.raises(StorageError, match="not a valid"):
            table.insert((1, 42, 1.0, False))  # int into STRING column

    def test_bool_rejected_for_int_column(self, table_def):
        table = StoredTable(table_def)
        with pytest.raises(StorageError, match="bool for INT"):
            table.insert((True, "x", 1.0, False))

    def test_int_accepted_for_float_column(self, table_def):
        table = StoredTable(table_def)
        table.insert((1, "x", 2, False))  # int widens to float
        assert table.rows[0][2] == 2

    def test_stats_recomputed_after_insert(self, table_def):
        table = StoredTable(table_def)
        table.insert((1, "x", 1.0, True))
        first = table.stats()
        assert first.row_count == 1
        table.insert((2, "y", 2.0, True))
        assert table.stats().row_count == 2

    def test_stats_cached_between_inserts(self, table_def):
        table = StoredTable(table_def)
        table.insert((1, "x", 1.0, True))
        assert table.stats() is table.stats()


class TestInsertBatch:
    """``insert_many`` validates a batch column by column and stores it
    whole or not at all."""

    @pytest.mark.parametrize(
        "batch, message",
        [
            # The first invalid value in row-major order names the error,
            # as a row-at-a-time insert of the same rows would.
            ([(1, "x", 1.0, True), (2, "y"), (None, "z", 1.0, True)],
             "t: expected 4 values, got 2"),
            ([(1, "x", 1.0, True), (None, "y", 1.0, 7), (3, "z")],
             "t.a: NULL in NOT NULL column"),
            ([(1, "x", 1.0, True), (2, "y", 1.0, 7), (True, "z", 1.0, True)],
             "t.d: 7 is not a valid bool"),
            ([(1, "x", 1.0, True), (False, "y", "1.0", None)],
             "t.a: got bool for INT column"),
            ([(1, "x", 1.0, True), (2, 42, 1.0, True)],
             "t.b: 42 is not a valid string"),
            ([(1, True, 1.0, True)], "t.b: True is not a valid string"),
        ],
    )
    def test_invalid_batch_raises_first_error(self, table_def, batch, message):
        table = StoredTable(table_def)
        with pytest.raises(StorageError) as raised:
            table.insert_many(batch)
        assert str(raised.value) == message

    def test_invalid_batch_stores_nothing(self, table_def):
        table = StoredTable(table_def)
        table.insert_many([(1, "x", 1.0, True), (2, "y", None, False)])
        stats, version = table.stats(), table.version
        with pytest.raises(StorageError):
            table.insert_many([(3, "z", 1.0, True), (4, "w", "bad", True)])
        assert table.rows == [(1, "x", 1.0, True), (2, "y", None, False)]
        assert table.version == version
        assert table.stats() is stats

    def test_bool_accepted_in_float_column(self, table_def):
        table = StoredTable(table_def)
        table.insert_many([(1, "x", True, None), (2, None, 2, False)])
        assert [row[2] for row in table.rows] == [True, 2]

    def test_empty_batch_changes_nothing(self, table_def):
        table = StoredTable(table_def)
        table.insert((1, "x", 1.0, True))
        stats, version = table.stats(), table.version
        table.insert_many([])
        table.insert_many(iter(()))
        assert len(table) == 1
        assert table.version == version
        assert table.stats() is stats

    def test_version_advances_by_batch_length(self, table_def):
        database = Database(Catalog([table_def]))
        table = database.table("t")
        before = database.data_fingerprint()
        database.insert("t", ((i, None, None, None) for i in range(5)))
        assert table.version == 5
        table.insert((5, "x", 1.0, True))
        assert table.version == 6
        assert database.data_fingerprint() == "t:6" != before
        assert table.stats().row_count == 6


class TestDatabase:
    def test_tables_materialized_from_catalog(self, table_def):
        database = Database(Catalog([table_def]))
        assert database.table("t").name == "t"
        assert len(database.tables()) == 1

    def test_insert_and_row_count(self, table_def):
        database = Database(Catalog([table_def]))
        database.insert("t", [(1, "x", 1.0, True), (2, "y", None, None)])
        assert database.row_count("t") == 2

    def test_stats_repository_snapshot(self, table_def):
        database = Database(Catalog([table_def]))
        database.insert("t", [(1, "x", 1.0, True)])
        repo = database.stats_repository()
        assert repo.get("t").row_count == 1

    def test_describe_lists_tables(self, table_def):
        database = Database(Catalog([table_def]))
        assert "t: 0 rows" in database.describe()

    def test_empty_database_helper(self, table_def):
        database = empty_database([table_def])
        assert database.row_count("t") == 0
