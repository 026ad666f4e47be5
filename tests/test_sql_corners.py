"""Corner-case tests for the SQL layer: escaping, literals, deep nesting."""

from repro.catalog.schema import DataType
from repro.engine import execute_plan, results_identical
from repro.expr.expressions import (
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    Not,
)
from repro.logical.operators import Project, Select, make_get
from repro.logical.validate import validate_tree
from repro.optimizer.engine import Optimizer
from repro.sql.binder import sql_to_tree
from repro.sql.generate import to_sql


def _roundtrip(tree, database):
    sql = to_sql(tree)
    rebound = sql_to_tree(sql, database.catalog)
    validate_tree(rebound, database.catalog)
    optimizer = Optimizer(database.catalog, database.stats_repository())
    a = optimizer.optimize(tree)
    b = optimizer.optimize(rebound)
    return (
        execute_plan(a.plan, database, a.output_columns),
        execute_plan(b.plan, database, b.output_columns),
        sql,
    )


class TestLiteralEscaping:
    def test_string_with_quote_roundtrips(self, tiny_db):
        dept = make_get(tiny_db.catalog.table("dept"))
        tree = Select(
            dept,
            Comparison(
                ComparisonOp.NE,
                ColumnRef(dept.columns[1]),
                Literal("o'brien", DataType.STRING),
            ),
        )
        left, right, sql = _roundtrip(tree, tiny_db)
        assert "''" in sql
        assert results_identical(left, right)

    def test_null_literal_roundtrips(self, tiny_db):
        dept = make_get(tiny_db.catalog.table("dept"))
        tree = Select(
            dept,
            Comparison(
                ComparisonOp.EQ,
                ColumnRef(dept.columns[0]),
                Literal(None, DataType.INT),
            ),
        )
        left, right, _ = _roundtrip(tree, tiny_db)
        # x = NULL is never TRUE.
        assert left.row_count == 0
        assert results_identical(left, right)

    def test_negated_predicate_roundtrips(self, tiny_db):
        dept = make_get(tiny_db.catalog.table("dept"))
        tree = Select(
            dept,
            Not(
                Comparison(
                    ComparisonOp.GT,
                    ColumnRef(dept.columns[2]),
                    Literal(50.0, DataType.FLOAT),
                )
            ),
        )
        left, right, sql = _roundtrip(tree, tiny_db)
        assert "NOT (" in sql
        # sales (50.0) and empty (25.0) pass; NOT(NULL > 50) is UNKNOWN so
        # hr's NULL-budget row stays excluded.
        assert {row[0] for row in left.rows} == {20, 40}
        assert results_identical(left, right)


class TestDeepNesting:
    def test_ten_level_select_stack(self, tiny_db):
        emp = make_get(tiny_db.catalog.table("emp"))
        tree = emp
        for threshold in range(10):
            tree = Select(
                tree,
                Comparison(
                    ComparisonOp.GE,
                    ColumnRef(emp.columns[0]),
                    Literal(threshold % 3, DataType.INT),
                ),
            )
        left, right, sql = _roundtrip(tree, tiny_db)
        assert sql.count("SELECT") >= 11
        assert results_identical(left, right)

    def test_expression_projection_roundtrips(self, tiny_db):
        from repro.expr.expressions import Arithmetic, ArithmeticOp

        emp = make_get(tiny_db.catalog.table("emp"))
        doubled = Column("doubled", DataType.FLOAT)
        tree = Project(
            emp,
            (
                (emp.columns[0], ColumnRef(emp.columns[0])),
                (
                    doubled,
                    Arithmetic(
                        ArithmeticOp.MUL,
                        ColumnRef(emp.columns[2]),
                        Literal(2.0, DataType.FLOAT),
                    ),
                ),
            ),
        )
        left, right, _ = _roundtrip(tree, tiny_db)
        assert results_identical(left, right)
