"""Dialect rendering: the per-backend knobs of the SQL generator.

Two layers: string-level unit tests pinning each dialect's rendering
rules, and semantics-level round trips executing the same logical tree on
the engine and on SQLite -- the constructs the dialects exist for
(integer division, boolean literals, quoting) must produce equal result
bags instead of being skip-listed.
"""

from __future__ import annotations

import pytest

from repro.backends import EngineBackend, SqliteBackend
from repro.service import PlanService
from repro.sql import (
    DIALECTS,
    DUCKDB_DIALECT,
    Dialect,
    ENGINE_DIALECT,
    SQLITE_DIALECT,
)
from repro.sql.binder import sql_to_tree
from repro.sql.generate import to_sql


class TestDialectRules:
    def test_engine_dialect_is_the_identity(self):
        assert ENGINE_DIALECT.identifier("n_name") == "n_name"
        assert ENGINE_DIALECT.qualified("nation", "n_name") == "nation.n_name"
        assert ENGINE_DIALECT.bool_literal(True) == "TRUE"
        assert ENGINE_DIALECT.bool_literal(False) == "FALSE"
        assert ENGINE_DIALECT.division("a", "b") == "(a / b)"

    def test_sqlite_dialect(self):
        assert SQLITE_DIALECT.identifier("n_name") == '"n_name"'
        assert SQLITE_DIALECT.qualified("t", "c") == '"t"."c"'
        assert SQLITE_DIALECT.bool_literal(True) == "1"
        assert SQLITE_DIALECT.bool_literal(False) == "0"
        assert SQLITE_DIALECT.division("a", "b") == "(CAST(a AS REAL) / b)"

    def test_duckdb_dialect_divides_exactly(self):
        assert DUCKDB_DIALECT.division("a", "b") == "(a / b)"
        assert DUCKDB_DIALECT.identifier("n_name") == '"n_name"'

    def test_quote_characters_are_escaped_by_doubling(self):
        dialect = Dialect(name="q", identifier_quote='"')
        assert dialect.identifier('we"ird') == '"we""ird"'

    def test_registry_maps_names(self):
        assert set(DIALECTS) == {"engine", "sqlite", "duckdb"}
        assert DIALECTS["sqlite"] is SQLITE_DIALECT


class TestDialectSqlText:
    def test_engine_dialect_rendering_is_the_default(self, tpch_db):
        tree = sql_to_tree(
            "SELECT n_name FROM nation WHERE n_regionkey / 2 > 1",
            tpch_db.catalog,
        )
        assert to_sql(tree) == to_sql(tree, ENGINE_DIALECT)

    def test_sqlite_rendering_casts_division_and_quotes(self, tpch_db):
        tree = sql_to_tree(
            "SELECT n_regionkey / 4 FROM nation", tpch_db.catalog
        )
        sql = to_sql(tree, SQLITE_DIALECT)
        assert "CAST(" in sql and "AS REAL" in sql
        assert '"nation"' in sql


@pytest.fixture(scope="module")
def backend_pair(tpch_db, registry):
    engine = EngineBackend(
        PlanService(tpch_db, registry=registry, cache_dir=None)
    )
    sqlite = SqliteBackend()
    for backend in (engine, sqlite):
        backend.ensure_ready(tpch_db)
    yield engine, sqlite
    sqlite.close()


#: One statement per dialect axis: exact division (the construct the old
#: skip list dropped), division by zero (NULL in both), quoting of every
#: identifier position, DISTINCT/aggregate interplay with division.
_ROUND_TRIP_SQL = [
    "SELECT n_nationkey / 4 FROM nation",
    "SELECT n_nationkey, n_regionkey / 2 FROM nation",
    "SELECT o_totalprice / 3 FROM orders",
    "SELECT n_nationkey / 0 FROM nation",
    "SELECT n_name FROM nation WHERE n_regionkey / 2 > 1",
    "SELECT DISTINCT n_regionkey / 2 FROM nation",
    "SELECT o_custkey, SUM(o_totalprice / 2) FROM orders GROUP BY o_custkey",
    "SELECT r_name FROM region WHERE r_regionkey > 0",
]


@pytest.mark.parametrize("sql", _ROUND_TRIP_SQL)
def test_engine_and_sqlite_agree_per_construct(backend_pair, tpch_db, sql):
    engine, sqlite = backend_pair
    tree = sql_to_tree(sql, tpch_db.catalog)
    (engine_run,) = engine.run_many([(0, tree)])
    (sqlite_run,) = sqlite.run_many([(0, tree)])
    assert engine_run.succeeded, engine_run.error
    assert sqlite_run.succeeded, sqlite_run.error
    assert engine_run.bag == sqlite_run.bag, (
        f"dialect round trip diverged on {sql!r}:\n"
        f"engine:  {engine_run.sql}\n"
        f"sqlite:  {sqlite_run.sql}"
    )


def test_division_by_zero_is_null_on_both_sides(backend_pair, tpch_db):
    engine, sqlite = backend_pair
    tree = sql_to_tree("SELECT n_nationkey / 0 FROM nation", tpch_db.catalog)
    (run,) = sqlite.run_many([(0, tree)])
    values = {row[0] for row in run.bag}
    assert values == {None}
    (engine_run,) = engine.run_many([(0, tree)])
    assert engine_run.bag == run.bag
