"""Unit tests for logical-tree structural validation."""

import pytest

from repro.catalog.schema import DataType
from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import (
    TRUE,
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
)
from repro.logical.operators import (
    GbAgg,
    Get,
    Join,
    JoinKind,
    Project,
    Select,
    Sort,
    SortKey,
    UnionAll,
    make_get,
)
from repro.logical.validate import ValidationError, validate_tree


@pytest.fixture()
def dept(tiny_catalog):
    return make_get(tiny_catalog.table("dept"))


@pytest.fixture()
def emp(tiny_catalog):
    return make_get(tiny_catalog.table("emp"))


class TestValidTrees:
    def test_get_returns_columns(self, tiny_catalog, dept):
        assert validate_tree(dept, tiny_catalog) == dept.columns

    def test_join_output(self, tiny_catalog, dept, emp):
        join = Join(JoinKind.INNER, emp, dept, TRUE)
        assert validate_tree(join, tiny_catalog) == emp.columns + dept.columns

    def test_semi_join_output_is_left(self, tiny_catalog, dept, emp):
        join = Join(
            JoinKind.SEMI,
            emp,
            dept,
            Comparison(
                ComparisonOp.EQ,
                ColumnRef(emp.columns[1]),
                ColumnRef(dept.columns[0]),
            ),
        )
        assert validate_tree(join, tiny_catalog) == emp.columns


class TestInvalidTrees:
    def test_select_with_foreign_column(self, tiny_catalog, dept, emp):
        stray = Comparison(
            ComparisonOp.EQ, ColumnRef(emp.columns[0]), Literal(1, DataType.INT)
        )
        select = Select(dept, stray)
        with pytest.raises(ValidationError, match="not visible"):
            validate_tree(select, tiny_catalog)

    def test_get_with_wrong_arity(self, tiny_catalog, dept):
        bad = Get(table="dept", columns=dept.columns[:1], alias="dept")
        with pytest.raises(ValidationError, match="bound 1 columns"):
            validate_tree(bad, tiny_catalog)

    def test_get_with_misnamed_column(self, tiny_catalog, dept):
        wrong = tuple(
            Column("zz", c.data_type) if i == 0 else c
            for i, c in enumerate(dept.columns)
        )
        bad = Get(table="dept", columns=wrong, alias="dept")
        with pytest.raises(ValidationError, match="does not match"):
            validate_tree(bad, tiny_catalog)

    def test_join_inputs_must_not_share_columns(self, tiny_catalog, dept):
        join = Join(JoinKind.CROSS, dept, dept)
        with pytest.raises(ValidationError, match="share column ids"):
            validate_tree(join, tiny_catalog)

    def test_project_duplicate_outputs(self, tiny_catalog, dept):
        col = dept.columns[0]
        project = Project(
            dept, ((col, ColumnRef(col)), (col, ColumnRef(col)))
        )
        with pytest.raises(ValidationError, match="duplicate output"):
            validate_tree(project, tiny_catalog)

    def test_gbagg_group_column_not_in_input(self, tiny_catalog, dept, emp):
        agg = GbAgg(dept, (emp.columns[0],), ())
        with pytest.raises(ValidationError, match="not in"):
            validate_tree(agg, tiny_catalog)

    def test_gbagg_aggregate_argument_checked(self, tiny_catalog, dept, emp):
        out = Column("s", DataType.FLOAT)
        agg = GbAgg(
            dept,
            (dept.columns[0],),
            ((out, AggregateCall(
                AggregateFunction.SUM, ColumnRef(emp.columns[2]))),),
        )
        with pytest.raises(ValidationError, match="not visible"):
            validate_tree(agg, tiny_catalog)

    def test_sort_key_must_be_visible(self, tiny_catalog, dept, emp):
        sort = Sort(dept, (SortKey(emp.columns[0]),))
        with pytest.raises(ValidationError, match="not in"):
            validate_tree(sort, tiny_catalog)

    def test_setop_branch_columns_from_inputs(self, tiny_catalog, dept, emp):
        out = Column("u", DataType.INT)
        union = UnionAll(
            dept, emp, (out,), (emp.columns[0],), (emp.columns[0],)
        )
        with pytest.raises(ValidationError, match="left_columns"):
            validate_tree(union, tiny_catalog)

    def test_setop_type_mismatch(self, tiny_catalog, dept, emp):
        out = Column("u", DataType.INT)
        union = UnionAll(
            dept, emp, (out,), (dept.columns[1],), (emp.columns[0],)
        )  # dept_name STRING vs out INT
        with pytest.raises(ValidationError, match="type mismatch"):
            validate_tree(union, tiny_catalog)

    def test_setop_numeric_compatibility_allowed(self, tiny_catalog, dept, emp):
        out = Column("u", DataType.FLOAT)
        union = UnionAll(
            dept, emp, (out,), (dept.columns[0],), (emp.columns[2],)
        )  # INT and FLOAT are union-compatible
        validate_tree(union, tiny_catalog)

    def test_subset_branch_columns_allowed(self, tiny_catalog, dept, emp):
        out = Column("u", DataType.INT)
        union = UnionAll(
            dept, emp, (out,), (dept.columns[0],), (emp.columns[0],)
        )
        assert validate_tree(union, tiny_catalog) == (out,)


class TestDuplicateOutputs:
    """No schema may repeat a column id, whichever operator writes it."""

    def test_gbagg_repeated_grouping_column(self, tiny_catalog, dept):
        key = dept.columns[0]
        agg = GbAgg(dept, (key, key), ())
        with pytest.raises(ValidationError) as excinfo:
            validate_tree(agg, tiny_catalog)
        assert str(excinfo.value) == (
            f"GbAgg: duplicate output column id {key.cid}"
        )

    def test_setop_repeated_output_column(self, tiny_catalog, dept, emp):
        out = Column("o", DataType.INT)
        union = UnionAll(
            dept,
            emp,
            (out, out),
            (dept.columns[0], dept.columns[0]),
            (emp.columns[0], emp.columns[0]),
        )
        with pytest.raises(ValidationError) as excinfo:
            validate_tree(union, tiny_catalog)
        assert str(excinfo.value) == (
            f"UnionAll: duplicate output column id {out.cid}"
        )

    def test_project_repeated_output_column(self, tiny_catalog, dept):
        col = dept.columns[0]
        project = Project(
            dept, ((col, ColumnRef(col)), (col, ColumnRef(col)))
        )
        with pytest.raises(ValidationError) as excinfo:
            validate_tree(project, tiny_catalog)
        assert str(excinfo.value) == (
            f"Project: duplicate output column id {col.cid}"
        )

    def test_join_input_overlap_is_reported_first(self, tiny_catalog, dept):
        join = Join(JoinKind.INNER, dept, dept)
        with pytest.raises(ValidationError, match="inputs share column ids"):
            validate_tree(join, tiny_catalog)
