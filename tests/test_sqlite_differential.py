"""Differential testing against SQLite -- now a thin wrapper.

The mirror/bag/skip machinery that used to live here moved behind the
backend abstraction (:mod:`repro.backends`) and the fleet runner
(:mod:`repro.testing.differential`).  What remains are the campaign-level
assertions: generated suites agree across engine and SQLite with *no*
expressibility skip list (the old ``"/" not in sql`` filter is replaced
by dialect-aware rendering, see `repro.sql.dialect`), plus hand-written
statements pinning the dialect corners the generator emits.
"""

from __future__ import annotations

import pytest

from repro.backends import SqliteBackend, create_backends
from repro.service import PlanService
from repro.sql.binder import sql_to_tree
from repro.testing.differential import DifferentialRunner
from repro.testing.suite import TestSuiteBuilder, singleton_nodes

#: Rules whose generated queries exercise joins, outer joins, DISTINCT,
#: aggregation, and set operations -- a representative slice kept small so
#: the tier-1 run stays fast.  The ``slow`` variant covers every rule.
_FAST_RULES = [
    "JoinCommutativity",
    "SelectPushBelowJoinLeft",
    "DistinctToGbAgg",
    "LojToJoinOnNullReject",
    "UnionAllCommutativity",
]


def _run_suite_diff(tpch_db, registry, rule_names, k):
    suite = TestSuiteBuilder(
        tpch_db, registry, seed=0, extra_operators=2
    ).build(singleton_nodes(rule_names), k=k)
    backends, skipped = create_backends(
        ["engine", "sqlite"],
        PlanService(tpch_db, registry=registry, cache_dir=None),
    )
    assert skipped == {}
    report = DifferentialRunner(tpch_db, backends).run(suite)
    # every query is compared -- no expressibility skip list anymore
    assert report.tallies["sqlite"]["agree"] == len(suite.queries), (
        report.to_text()
    )
    assert report.passed, report.to_text()


def test_generated_suite_matches_sqlite(tpch_db, registry):
    _run_suite_diff(tpch_db, registry, _FAST_RULES, k=2)


@pytest.mark.slow
def test_generated_suite_matches_sqlite_all_rules(tpch_db, registry):
    _run_suite_diff(
        tpch_db, registry, registry.exploration_rule_names, k=2
    )


# Hand-written statements pinning the dialect corners the generator emits:
# derived tables, LEFT OUTER JOIN, [NOT] EXISTS, GROUP BY with NULL groups,
# UNION/UNION ALL, DISTINCT, arithmetic division, ORDER-free bag comparison.
_HAND_SQL = [
    "SELECT n_regionkey, COUNT(*) FROM nation GROUP BY n_regionkey",
    "SELECT r_name, n_name FROM region LEFT OUTER JOIN nation "
    "ON r_regionkey = n_regionkey",
    "SELECT DISTINCT n_regionkey FROM nation",
    "SELECT c_custkey FROM customer WHERE EXISTS "
    "(SELECT 1 FROM orders WHERE o_custkey = c_custkey)",
    "SELECT c_custkey FROM customer WHERE NOT EXISTS "
    "(SELECT 1 FROM orders WHERE o_custkey = c_custkey)",
    "SELECT n_regionkey FROM nation UNION SELECT r_regionkey FROM region",
    "SELECT n_regionkey FROM nation UNION ALL "
    "SELECT r_regionkey FROM region",
    "SELECT o_custkey, SUM(o_totalprice), MIN(o_orderdate) FROM orders "
    "WHERE o_orderpriority > 2 GROUP BY o_custkey",
    # exact division: the construct the old skip list dropped wholesale
    "SELECT o_orderkey, o_totalprice / 4 FROM orders",
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
def test_hand_written_sql_matches_sqlite(tpch_db, backend_pair, sql):
    engine, sqlite = backend_pair
    tree = sql_to_tree(sql, tpch_db.catalog)
    (engine_run,) = engine.run_many([(0, tree)])
    (sqlite_run,) = sqlite.run_many([(0, tree)])
    assert engine_run.succeeded, engine_run.error
    assert sqlite_run.succeeded, sqlite_run.error
    assert engine_run.bag == sqlite_run.bag, (
        f"engine and sqlite disagree on:\n{sql}\n"
        f"engine: {engine_run.row_count} rows, "
        f"sqlite: {sqlite_run.row_count} rows"
    )


def test_sqlite_backend_is_importable_from_tests():
    """The lifted helpers stay public: other suites build on them."""
    assert SqliteBackend.name == "sqlite"
