"""Tests for the plan-explanation utilities."""

from pathlib import Path

import pytest

from repro.engine import execute_plan, explain, explain_analyze
from repro.expr.expressions import ColumnRef, Comparison, ComparisonOp
from repro.logical.operators import Join, JoinKind, make_get
from repro.optimizer.engine import Optimizer
from repro.sql.binder import sql_to_tree
from repro.testing import reference_executor

#: The curated statements the engine benchmark executes, one a file.
CURATED_SQL = sorted((Path(__file__).parent.parent / "bench" / "sql").glob("*.sql"))


def _statement(path):
    return " ".join(
        line.strip() for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("--")
    )


def _reference_lines(op, db, depth=0):
    """``explain_analyze``'s lines, each subtree counted on the reference
    interpreter."""
    rows = reference_executor.execute_plan_iterator(op, db).row_count
    yield f"{'  ' * depth}{op.describe()}  (actual rows={rows})"
    for child in op.children:
        yield from _reference_lines(child, db, depth + 1)


@pytest.fixture()
def plan_and_db(tiny_db):
    emp = make_get(tiny_db.catalog.table("emp"))
    dept = make_get(tiny_db.catalog.table("dept"))
    join = Join(
        JoinKind.LEFT_OUTER, emp, dept,
        Comparison(ComparisonOp.EQ, ColumnRef(emp.columns[1]),
                   ColumnRef(dept.columns[0])),
    )
    optimizer = Optimizer(tiny_db.catalog, tiny_db.stats_repository())
    return optimizer.optimize(join).plan, tiny_db


class TestExplain:
    def test_explain_is_pretty_tree(self, plan_and_db):
        plan, _ = plan_and_db
        text = explain(plan)
        assert "TableScan(emp)" in text
        assert text == plan.pretty()

    def test_explain_analyze_reports_actual_rows(self, plan_and_db):
        plan, db = plan_and_db
        text = explain_analyze(plan, db)
        assert "(actual rows=6)" in text   # the outer join output
        assert "(actual rows=4)" in text   # the dept scan

    def test_explain_analyze_matches_execution(self, plan_and_db):
        plan, db = plan_and_db
        result = execute_plan(plan, db)
        first_line = explain_analyze(plan, db).splitlines()[0]
        assert f"actual rows={result.row_count}" in first_line

    def test_indentation_reflects_depth(self, plan_and_db):
        plan, db = plan_and_db
        lines = explain_analyze(plan, db).splitlines()
        assert not lines[0].startswith(" ")
        assert lines[1].startswith("  ")

    def test_explain_analyze_runs_on_the_production_executor(
        self, plan_and_db, tpch_db, monkeypatch
    ):
        """Each line's count is its subtree's row count on the reference
        interpreter, and the text is the same with the interpreter broken:
        ``explain_analyze`` executes on the columnar executor.  The Sort
        under a LIMIT reports every row it orders."""
        sql = (
            "SELECT o_orderkey, o_totalprice FROM orders "
            "WHERE o_totalprice > 100.0 "
            "ORDER BY o_totalprice DESC, o_orderkey LIMIT 5"
        )
        top_over_sort = Optimizer(
            tpch_db.catalog, tpch_db.stats_repository()
        ).optimize(sql_to_tree(sql, tpch_db.catalog)).plan
        cases = [plan_and_db, (top_over_sort, tpch_db)]

        expected = ["\n".join(_reference_lines(*case)) for case in cases]
        assert "Sort" in expected[1] and "Top(5)" in expected[1]

        def broken(op, database):
            raise AssertionError("the reference interpreter ran")

        monkeypatch.setattr(reference_executor, "_execute", broken)
        assert [explain_analyze(*case) for case in cases] == expected

    @pytest.mark.parametrize("path", CURATED_SQL, ids=lambda path: path.stem)
    def test_explain_analyze_agrees_with_the_reference_on_curated_sql(
        self, path, tpch_db, tpch_stats
    ):
        """Every subtree of every curated statement's plan counts the same
        rows on the columnar executor as on the reference interpreter."""
        tree = sql_to_tree(_statement(path), tpch_db.catalog)
        plan = Optimizer(tpch_db.catalog, tpch_stats).optimize(tree).plan
        assert explain_analyze(plan, tpch_db) == "\n".join(
            _reference_lines(plan, tpch_db)
        )
