"""Differential + dialect coverage for EXISTS/IN subquery support.

The tentpole wires ``[NOT] EXISTS`` / ``[NOT] IN`` end-to-end (parser ->
binder -> Apply -> unnesting rules -> NestedApply fallback -> per-dialect
rendering); this module pins the two outward-facing halves:

* **Differential**: suites generated from the unnesting rules' own
  patterns, and hand-written subquery SQL, agree bag-for-bag between the
  in-process engine and sqlite3 via :class:`DifferentialRunner` -- the
  external backend never sees an Apply, only the rendered ``EXISTS``
  subquery.
* **Dialect round-trips**: the rendered SQL re-binds to an equivalent
  tree under the engine dialect, and the sqlite dialect quotes correlated
  columns inside the subquery exactly like top-level ones.
"""

from __future__ import annotations

import pytest

from repro.backends import create_backends
from repro.engine import execute_plan, results_identical
from repro.logical.operators import Apply, OpKind
from repro.optimizer.engine import Optimizer
from repro.service import PlanService
from repro.sql.binder import sql_to_tree
from repro.sql.dialect import ENGINE_DIALECT, SQLITE_DIALECT
from repro.sql.generate import to_sql
from repro.testing.differential import DifferentialRunner
from repro.testing.suite import TestSuiteBuilder, singleton_nodes

#: The subquery-unnesting rule family added with Apply support.
SUBQUERY_RULES = [
    "ApplyToSemiJoin",
    "ApplyToAntiJoin",
    "ApplyDecorrelateSelect",
    "SelectPushIntoApplyLeft",
    "SemiJoinToDistinctInnerJoin",
]


def test_subquery_rule_suite_matches_sqlite(tpch_db, registry):
    """Pattern-generated Apply-shaped queries agree with sqlite3."""
    suite = TestSuiteBuilder(
        tpch_db, registry, seed=0, extra_operators=2
    ).build(singleton_nodes(SUBQUERY_RULES), k=2)
    assert suite.queries, "generator produced no subquery-rule queries"
    backends, skipped = create_backends(
        ["engine", "sqlite"],
        PlanService(tpch_db, registry=registry, cache_dir=None),
    )
    assert skipped == {}
    report = DifferentialRunner(tpch_db, backends).run(suite)
    assert report.tallies["sqlite"]["agree"] == len(suite.queries), (
        report.to_text()
    )
    assert report.passed, report.to_text()


# Hand-written subquery statements: correlated EXISTS in both polarities,
# IN/NOT IN (including the NULL-aware NOT IN trap), an uncorrelated IN,
# and a conjunction mixing a scalar filter with a subquery.
_HAND_SQL = [
    "SELECT c_custkey FROM customer WHERE EXISTS "
    "(SELECT 1 FROM orders WHERE o_custkey = c_custkey)",
    "SELECT c_custkey FROM customer WHERE NOT EXISTS "
    "(SELECT 1 FROM orders WHERE o_custkey = c_custkey)",
    "SELECT o_orderkey FROM orders WHERE o_custkey IN "
    "(SELECT c_custkey FROM customer WHERE c_acctbal > 500)",
    "SELECT o_orderkey FROM orders WHERE o_custkey NOT IN "
    "(SELECT c_custkey FROM customer WHERE c_acctbal > 500)",
    "SELECT n_name FROM nation WHERE n_regionkey IN "
    "(SELECT r_regionkey FROM region)",
    "SELECT c_custkey FROM customer WHERE c_acctbal > 100 AND EXISTS "
    "(SELECT 1 FROM orders WHERE o_custkey = c_custkey AND "
    "o_totalprice > 1000)",
]


@pytest.fixture(scope="module")
def backend_pair(tpch_db, registry):
    backends, _ = create_backends(
        ["engine", "sqlite"],
        PlanService(tpch_db, registry=registry, cache_dir=None),
    )
    for backend in backends:
        backend.ensure_ready(tpch_db)
    yield backends
    backends[1].close()


@pytest.mark.parametrize("sql", _HAND_SQL)
def test_hand_written_subqueries_match_sqlite(tpch_db, backend_pair, sql):
    engine, sqlite = backend_pair
    tree = sql_to_tree(sql, tpch_db.catalog)
    assert any(op.kind is OpKind.APPLY for op in tree.walk()), (
        "binder did not produce an Apply for:\n" + sql
    )
    (engine_run,) = engine.run_many([(0, tree)])
    (sqlite_run,) = sqlite.run_many([(0, tree)])
    assert engine_run.succeeded, engine_run.error
    assert sqlite_run.succeeded, sqlite_run.error
    assert engine_run.bag == sqlite_run.bag, (
        f"engine and sqlite disagree on:\n{sql}\n"
        f"engine: {engine_run.row_count} rows, "
        f"sqlite: {sqlite_run.row_count} rows"
    )


# ------------------------------------------------------- dialect round-trips


@pytest.mark.parametrize("sql", _HAND_SQL)
def test_engine_dialect_roundtrip_preserves_results(
    tpch_db, tpch_stats, registry, sql
):
    """tree -> engine-dialect SQL -> tree again yields identical bags."""
    tree = sql_to_tree(sql, tpch_db.catalog)
    rendered = to_sql(tree)
    rebound = sql_to_tree(rendered, tpch_db.catalog)

    def run(t):
        result = Optimizer(tpch_db.catalog, tpch_stats, registry).optimize(t)
        return execute_plan(result.plan, tpch_db, result.output_columns)

    assert results_identical(run(tree), run(rebound)), rendered


def _exists_tree(tpch_db):
    return sql_to_tree(
        "SELECT c_custkey FROM customer WHERE EXISTS "
        "(SELECT 1 FROM orders WHERE o_custkey = c_custkey)",
        tpch_db.catalog,
    )


def test_semi_apply_renders_as_exists(tpch_db):
    tree = _exists_tree(tpch_db)
    assert isinstance(tree.child, Apply)
    sql = to_sql(tree, ENGINE_DIALECT)
    assert "EXISTS (SELECT 1 FROM" in sql
    assert "NOT EXISTS" not in sql


def test_anti_apply_renders_as_not_exists(tpch_db):
    tree = sql_to_tree(
        "SELECT c_custkey FROM customer WHERE NOT EXISTS "
        "(SELECT 1 FROM orders WHERE o_custkey = c_custkey)",
        tpch_db.catalog,
    )
    sql = to_sql(tree, ENGINE_DIALECT)
    assert "NOT EXISTS (SELECT 1 FROM" in sql


def test_sqlite_dialect_quotes_correlated_columns(tpch_db):
    """The correlation predicate references outer columns from inside the
    subquery; both sides of the comparison must carry the dialect's
    identifier quoting (unquoted outer references would break on schemas
    with reserved-word names)."""
    tree = _exists_tree(tpch_db)
    sql = to_sql(tree, SQLITE_DIALECT)
    # Correlated comparison inside the EXISTS: both columns quoted.
    assert '"o_custkey' in sql and '"c_custkey' in sql
    # The outer projection is quoted too, so quoting is uniform.
    assert sql.startswith('SELECT "')
