"""Tests for SQL generation and for the SQL -> logical-tree binder,
including full round trips through the executor."""

import pytest

from repro.catalog.schema import DataType
from repro.engine import execute_plan, results_identical
from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import (
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    TRUE,
)
from repro.logical.operators import (
    Distinct,
    Except,
    GbAgg,
    Intersect,
    Join,
    JoinKind,
    Limit,
    Project,
    Select,
    Sort,
    SortKey,
    Union,
    UnionAll,
    make_get,
)
from repro.logical.validate import validate_tree
from repro.optimizer.engine import Optimizer
from repro.sql.binder import BindError, sql_to_tree
from repro.sql.generate import to_sql
from repro.sql.parser import parse_sql


@pytest.fixture()
def dept(tiny_db):
    return make_get(tiny_db.catalog.table("dept"))


@pytest.fixture()
def emp(tiny_db):
    return make_get(tiny_db.catalog.table("emp"))


def _roundtrip_results(tree, database):
    """Execute ``tree`` and its SQL round trip; both results."""
    validate_tree(tree, database.catalog)
    sql = to_sql(tree)
    rebound = sql_to_tree(sql, database.catalog)
    validate_tree(rebound, database.catalog)
    optimizer = Optimizer(database.catalog, database.stats_repository())
    original = optimizer.optimize(tree)
    rebuilt = optimizer.optimize(rebound)
    return (
        execute_plan(original.plan, database, original.output_columns),
        execute_plan(rebuilt.plan, database, rebuilt.output_columns),
    )


class TestSqlGeneration:
    def test_get_renders_aliased_columns(self, dept):
        sql = to_sql(dept)
        assert sql.startswith("SELECT dept.dept_id AS dept_id_")
        assert "FROM dept" in sql

    def test_select_renders_where(self, dept):
        tree = Select(
            dept,
            Comparison(
                ComparisonOp.GT,
                ColumnRef(dept.columns[2]),
                Literal(10.0, DataType.FLOAT),
            ),
        )
        assert "WHERE" in to_sql(tree)

    def test_semi_join_renders_exists(self, dept, emp):
        predicate = Comparison(
            ComparisonOp.EQ,
            ColumnRef(dept.columns[0]),
            ColumnRef(emp.columns[1]),
        )
        tree = Join(JoinKind.SEMI, dept, emp, predicate)
        sql = to_sql(tree)
        assert "EXISTS" in sql and "NOT EXISTS" not in sql

    def test_anti_join_renders_not_exists(self, dept, emp):
        predicate = Comparison(
            ComparisonOp.EQ,
            ColumnRef(dept.columns[0]),
            ColumnRef(emp.columns[1]),
        )
        sql = to_sql(Join(JoinKind.ANTI, dept, emp, predicate))
        assert "NOT EXISTS" in sql

    def test_cross_join_keyword(self, dept, emp):
        sql = to_sql(Join(JoinKind.CROSS, dept, emp, TRUE))
        assert "CROSS JOIN" in sql

    def test_group_by_rendered(self, emp):
        out = Column("n", DataType.INT)
        tree = GbAgg(
            emp,
            (emp.columns[1],),
            ((out, AggregateCall(AggregateFunction.COUNT_STAR)),),
        )
        sql = to_sql(tree)
        assert "GROUP BY" in sql and "COUNT(*)" in sql

    def test_generated_sql_parses(self, dept, emp):
        predicate = Comparison(
            ComparisonOp.EQ,
            ColumnRef(emp.columns[1]),
            ColumnRef(dept.columns[0]),
        )
        tree = Join(JoinKind.LEFT_OUTER, emp, dept, predicate)
        parse_sql(to_sql(tree))  # must not raise

    def test_identifiers_globally_unique(self, tiny_db):
        a = make_get(tiny_db.catalog.table("dept"), "d1")
        b = make_get(tiny_db.catalog.table("dept"), "d2")
        sql = to_sql(Join(JoinKind.CROSS, a, b, TRUE))
        # Same column names from both sides must render distinctly.
        names = [
            word for word in sql.replace(",", " ").split()
            if word.startswith("dept_id_")
        ]
        assert len(set(names)) >= 2


class TestRoundTrips:
    def test_filter_join_roundtrip(self, tiny_db, dept, emp):
        predicate = Comparison(
            ComparisonOp.EQ,
            ColumnRef(emp.columns[1]),
            ColumnRef(dept.columns[0]),
        )
        join = Join(JoinKind.INNER, emp, dept, predicate)
        tree = Select(
            join,
            Comparison(
                ComparisonOp.GT,
                ColumnRef(emp.columns[2]),
                Literal(70.0, DataType.FLOAT),
            ),
        )
        left, right = _roundtrip_results(tree, tiny_db)
        assert results_identical(left, right)
        assert left.row_count > 0

    def test_left_outer_join_roundtrip(self, tiny_db, dept, emp):
        predicate = Comparison(
            ComparisonOp.EQ,
            ColumnRef(emp.columns[1]),
            ColumnRef(dept.columns[0]),
        )
        tree = Join(JoinKind.LEFT_OUTER, emp, dept, predicate)
        left, right = _roundtrip_results(tree, tiny_db)
        assert results_identical(left, right)

    def test_semi_join_roundtrip(self, tiny_db, dept, emp):
        predicate = Comparison(
            ComparisonOp.EQ,
            ColumnRef(dept.columns[0]),
            ColumnRef(emp.columns[1]),
        )
        tree = Join(JoinKind.SEMI, dept, emp, predicate)
        left, right = _roundtrip_results(tree, tiny_db)
        assert results_identical(left, right)

    def test_aggregate_roundtrip(self, tiny_db, emp):
        out = Column("total", DataType.FLOAT)
        tree = GbAgg(
            emp,
            (emp.columns[1],),
            ((out, AggregateCall(
                AggregateFunction.SUM, ColumnRef(emp.columns[2]))),),
        )
        left, right = _roundtrip_results(tree, tiny_db)
        assert results_identical(left, right)

    @pytest.mark.parametrize("ctor", [UnionAll, Union, Intersect, Except])
    def test_setop_roundtrip(self, tiny_db, ctor):
        dept = make_get(tiny_db.catalog.table("dept"))
        emp = make_get(tiny_db.catalog.table("emp"))
        out = Column("u", DataType.INT)
        tree = ctor(
            dept, emp, (out,), (dept.columns[0],), (emp.columns[1],)
        )
        left, right = _roundtrip_results(tree, tiny_db)
        assert results_identical(left, right)

    def test_distinct_sort_limit_roundtrip(self, tiny_db, emp):
        project = Project(
            emp, ((emp.columns[1], ColumnRef(emp.columns[1])),)
        )
        tree = Limit(
            Sort(Distinct(project), (SortKey(emp.columns[1], True),)), 3
        )
        left, right = _roundtrip_results(tree, tiny_db)
        assert left.row_count == right.row_count == 3


class TestBinderErrors:
    def test_unknown_column(self, tiny_db):
        with pytest.raises(BindError, match="unknown column"):
            sql_to_tree("SELECT ghost FROM dept", tiny_db.catalog)

    def test_ambiguous_column(self, tiny_db):
        sql = (
            "SELECT dept_id FROM dept AS d1 CROSS JOIN dept AS d2"
        )
        with pytest.raises(BindError, match="ambiguous"):
            sql_to_tree(sql, tiny_db.catalog)

    def test_qualified_reference_disambiguates(self, tiny_db):
        sql = "SELECT d1.dept_id FROM dept AS d1 CROSS JOIN dept AS d2"
        tree = sql_to_tree(sql, tiny_db.catalog)
        validate_tree(tree, tiny_db.catalog)

    def test_ungrouped_column_rejected(self, tiny_db):
        sql = "SELECT dept_id, COUNT(*) AS n FROM emp GROUP BY emp_dept"
        with pytest.raises(BindError):
            sql_to_tree(sql, tiny_db.catalog)

    def test_setop_arity_mismatch(self, tiny_db):
        sql = "SELECT dept_id FROM dept UNION SELECT emp_id, salary FROM emp"
        with pytest.raises(BindError, match="column counts differ"):
            sql_to_tree(sql, tiny_db.catalog)

    def test_aggregate_in_where_rejected(self, tiny_db):
        sql = "SELECT dept_id FROM dept WHERE SUM(budget) > 1"
        with pytest.raises(BindError, match="only allowed in the select"):
            sql_to_tree(sql, tiny_db.catalog)

    def test_unknown_qualifier_rejected(self, tpch_db):
        """A qualified name that no relation of the FROM clause holds is
        an error, not a bare-name lookup."""
        with pytest.raises(BindError) as error:
            sql_to_tree("SELECT n.n_name FROM nation AS m", tpch_db.catalog)
        assert str(error.value) == "unknown column 'n.n_name'"
        with pytest.raises(BindError) as error:
            sql_to_tree(
                "SELECT n_name FROM nation AS n ORDER BY m.n_name",
                tpch_db.catalog,
            )
        assert str(error.value) == "unknown column 'm.n_name'"
        with pytest.raises(BindError) as error:  # r names no n_name
            sql_to_tree(
                "SELECT n_name FROM nation AS n JOIN region AS r "
                "ON n.n_regionkey = r.r_regionkey ORDER BY r.n_name",
                tpch_db.catalog,
            )
        assert str(error.value) == "unknown column 'r.n_name'"

    @pytest.mark.parametrize("select", ["n_name", "*"])
    def test_order_by_qualified_by_the_from_alias(self, tpch_db, select):
        """ORDER BY reads the select list's scope, which holds bare names;
        a FROM alias still qualifies them."""
        tree = sql_to_tree(
            f"SELECT {select} FROM nation AS n ORDER BY n.n_name",
            tpch_db.catalog,
        )
        validate_tree(tree, tpch_db.catalog)
        assert isinstance(tree, Sort)
        (key,) = tree.keys
        assert key.column.name == "n_name"

    def test_duplicate_names_in_a_derived_table_are_ambiguous(self, tiny_db):
        sql = (
            "SELECT dept_id FROM (SELECT * FROM dept AS d1 "
            "CROSS JOIN dept AS d2) AS x"
        )
        with pytest.raises(BindError, match="ambiguous column reference 'dept_id'"):
            sql_to_tree(sql, tiny_db.catalog)
        with pytest.raises(BindError, match="ambiguous column reference 'x.dept_id'"):
            sql_to_tree(sql.replace("SELECT dept_id", "SELECT x.dept_id"),
                        tiny_db.catalog)
