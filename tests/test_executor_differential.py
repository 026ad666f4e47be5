"""Columnar-vs-iterator executor differential coverage.

The columnar executor (docs/EXECUTION.md) must be observationally
identical to the row-at-a-time iterator interpreter kept as its
reference (:mod:`repro.testing.reference_executor`): same rows, same
order, for every plan the optimizer can emit.
This module drives the pair across three fronts:

* **Generated suites**: pattern-generated queries for every exploration
  rule in the registry, each as ``Plan(q)`` and as ``Plan(q, ¬{r})`` for
  every rule r in its ``RuleSet``, so each rule's characteristic plan
  shapes (and the shapes the winners never show) cross both executors.
* **Hand-written subquery SQL**: the EXISTS / IN / NOT IN statements the
  subquery tentpole pinned against sqlite, which exercise semi/anti
  joins and the NestedApply fallback.
* **NULL-heavy plans**: hand-built queries over a database dense in
  NULLs, covering three-valued filters, NULL join keys, NULLs-equal
  grouping and DISTINCT, aggregates over all-NULL groups, and set
  operations on rows containing NULL.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.catalog.schema import Catalog, ColumnDef, DataType, TableDef
from repro.engine import execute_plan, results_identical
from repro.engine.results import canonical_row
from repro.optimizer.config import DEFAULT_CONFIG
from repro.optimizer.engine import Optimizer
from repro.optimizer.result import OptimizationError
from repro.physical.operators import plan_signature
from repro.sql.binder import sql_to_tree
from repro.storage.database import Database
from repro.testing.reference_executor import execute_plan_iterator
from repro.testing.suite import TestSuiteBuilder, singleton_nodes


def assert_executors_agree(plan, database, output_columns=None):
    """Both executors must produce the same rows in the same order.

    Row order is part of the contract, not just bag equality: Top makes
    order observable, so the columnar operators reproduce the iterator's
    emission order exactly.
    """
    columnar = execute_plan(plan, database, output_columns)
    iterator = execute_plan_iterator(plan, database, output_columns)
    assert [c.cid for c in columnar.columns] == [
        c.cid for c in iterator.columns
    ]
    assert columnar.rows == iterator.rows
    # The digest-based comparison must agree with the exact equality.
    assert results_identical(columnar, iterator)
    assert Counter(canonical_row(r) for r in columnar.rows) == Counter(
        canonical_row(r) for r in iterator.rows
    )


# ------------------------------------------------ generated rule suites


def test_generated_suites_agree_across_executors(
    tpch_db, tpch_stats, registry
):
    """Every exploration rule's generated queries execute identically,
    as ``Plan(q)`` and as ``Plan(q, ¬{r})`` for each rule r in
    ``RuleSet(q)`` (the disabled variants reach plan shapes the winner
    never shows)."""
    suite = TestSuiteBuilder(
        tpch_db, registry, seed=0, extra_operators=2
    ).build(singleton_nodes(registry.exploration_rule_names), k=1)
    assert suite.queries, "suite generation produced no queries"
    optimizers = {}

    def optimizer(disabled):
        if disabled not in optimizers:
            optimizers[disabled] = Optimizer(
                tpch_db.catalog, tpch_stats, registry,
                DEFAULT_CONFIG.with_disabled(disabled),
            )
        return optimizers[disabled]

    checked = set()  # (plan signature, output cids): each plan runs once
    for query in suite.queries:
        result = optimizer(()).optimize(query.tree)
        results = [result]
        for rule in sorted(result.rules_exercised):
            try:
                results.append(optimizer((rule,)).optimize(query.tree))
            except OptimizationError:
                pass  # no plan without the rule: nothing to execute
        for each in results:
            key = (
                plan_signature(each.plan),
                tuple(c.cid for c in each.output_columns),
            )
            if key not in checked:
                checked.add(key)
                assert_executors_agree(
                    each.plan, tpch_db, each.output_columns
                )
    # The disabled variants add plans the winners never show.
    assert len(checked) > 2 * len(suite.queries)


# --------------------------------------------- hand-written subqueries

# The EXISTS / IN / NOT IN statements the subquery PR pinned against
# sqlite (tests/test_subquery_differential.py); here they pin the two
# executors against each other instead.
HAND_SQL = [
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


@pytest.mark.parametrize("sql", HAND_SQL)
def test_subquery_sql_agrees_across_executors(
    tpch_db, tpch_stats, registry, sql
):
    tree = sql_to_tree(sql, tpch_db.catalog)
    result = Optimizer(tpch_db.catalog, tpch_stats, registry).optimize(tree)
    assert_executors_agree(result.plan, tpch_db, result.output_columns)


# ------------------------------------------------- NULL-heavy coverage


@pytest.fixture(scope="module")
def null_db():
    """Two tables where every nullable column is NULL in ~half the rows,
    with duplicate rows (bag semantics) and NULL join keys on both sides."""
    left = TableDef(
        name="l",
        columns=[
            ColumnDef("l_id", DataType.INT, nullable=False),
            ColumnDef("l_key", DataType.INT, nullable=True),
            ColumnDef("l_val", DataType.FLOAT, nullable=True),
            ColumnDef("l_tag", DataType.STRING, nullable=True),
        ],
        primary_key=("l_id",),
    )
    right = TableDef(
        name="r",
        columns=[
            ColumnDef("r_id", DataType.INT, nullable=False),
            ColumnDef("r_key", DataType.INT, nullable=True),
            ColumnDef("r_val", DataType.FLOAT, nullable=True),
        ],
        primary_key=("r_id",),
    )
    database = Database(Catalog([left, right]))
    database.insert(
        "l",
        [
            (1, 1, 10.0, "a"),
            (2, None, 20.0, "b"),
            (3, 2, None, "a"),
            (4, None, None, None),
            (5, 2, 5.0, None),
            (6, 3, 0.0, "c"),
            (7, 1, -0.0, "a"),  # -0.0 vs 0.0 canonicalization
            (8, None, 20.0, "b"),  # duplicate of row 2 modulo the key
        ],
    )
    database.insert(
        "r",
        [
            (1, 1, 1.5),
            (2, None, 2.5),
            (3, 2, None),
            (4, None, None),
            (5, 9, 4.5),
        ],
    )
    return database


NULL_SQL = [
    # Three-valued filter logic: NULL comparisons drop rows.
    "SELECT l_id FROM l WHERE l_key > 1",
    "SELECT l_id FROM l WHERE l_key > 1 OR l_val > 15.0",
    "SELECT l_id FROM l WHERE NOT (l_key = 2 AND l_val > 1.0)",
    "SELECT l_id FROM l WHERE l_key IS NULL",
    "SELECT l_id FROM l WHERE l_key IS NOT NULL AND l_tag IS NULL",
    # Arithmetic with NULLs and division by zero (NULL result).
    "SELECT l_id, l_val + l_key, l_val / l_val FROM l",
    # Joins never match on NULL keys, in any join strategy.
    "SELECT l_id, r_id FROM l JOIN r ON l_key = r_key",
    "SELECT l_id, r_id FROM l LEFT JOIN r ON l_key = r_key",
    "SELECT l_id, r_val FROM l CROSS JOIN r WHERE l_val > r_val",
    # Grouping treats NULL keys as equal (one NULL group).
    "SELECT l_key, COUNT(*), SUM(l_val), MIN(l_val) FROM l GROUP BY l_key",
    # AVG over a group whose values are all NULL yields NULL.
    "SELECT l_tag, AVG(l_val) FROM l GROUP BY l_tag",
    # Scalar aggregate over rows where some inputs are NULL.
    "SELECT COUNT(*), COUNT(l_key), SUM(l_val), MAX(l_key) FROM l",
    # DISTINCT treats NULLs as equal and folds -0.0 into 0.0.
    "SELECT DISTINCT l_key, l_tag FROM l",
    "SELECT DISTINCT l_val FROM l",
    # Set operations on rows containing NULLs.
    "SELECT l_key FROM l UNION SELECT r_key FROM r",
    "SELECT l_key FROM l INTERSECT SELECT r_key FROM r",
    "SELECT l_key FROM l EXCEPT SELECT r_key FROM r",
    # Ordering with NULL keys present (NULLS FIRST, both directions).
    "SELECT l_id, l_key FROM l ORDER BY l_key, l_id",
    "SELECT l_id, l_key FROM l ORDER BY l_key DESC, l_id",
]


@pytest.mark.parametrize("sql", NULL_SQL)
def test_null_heavy_sql_agrees_across_executors(null_db, registry, sql):
    tree = sql_to_tree(sql, null_db.catalog)
    optimizer = Optimizer(
        null_db.catalog, null_db.stats_repository(), registry
    )
    result = optimizer.optimize(tree)
    assert_executors_agree(result.plan, null_db, result.output_columns)
