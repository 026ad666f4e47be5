"""Unit tests for logical operator nodes."""

import dataclasses

import pytest

from repro.analysis.astlint import ATTRIBUTES_BY_KIND, GENERIC_ATTRIBUTES
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
    OPERATOR_CLASSES,
    Apply,
    Distinct,
    Except,
    GbAgg,
    GroupRef,
    Intersect,
    Join,
    JoinKind,
    Limit,
    LogicalOp,
    OpKind,
    Project,
    Select,
    Sort,
    SortKey,
    Union,
    UnionAll,
    is_set_op,
    make_get,
)
from repro.logical.properties import PropertyDeriver
from repro.logical.validate import validate_tree


@pytest.fixture()
def dept_get(tiny_catalog):
    return make_get(tiny_catalog.table("dept"))


@pytest.fixture()
def emp_get(tiny_catalog):
    return make_get(tiny_catalog.table("emp"))


class TestMakeGet:
    def test_binds_fresh_columns(self, tiny_catalog):
        a = make_get(tiny_catalog.table("dept"))
        b = make_get(tiny_catalog.table("dept"))
        assert [c.name for c in a.columns] == ["dept_id", "dept_name", "budget"]
        assert all(x != y for x, y in zip(a.columns, b.columns))

    def test_alias_defaults_to_table(self, dept_get):
        assert dept_get.alias == "dept"
        assert dept_get.describe() == "Get(dept)"

    def test_custom_alias(self, tiny_catalog):
        get = make_get(tiny_catalog.table("dept"), "d2")
        assert get.alias == "d2"
        assert "AS d2" in get.describe()
        assert get.columns[0].table == "d2"

    def test_nullability_propagates(self, dept_get):
        assert not dept_get.columns[0].nullable  # dept_id NOT NULL
        assert dept_get.columns[2].nullable      # budget nullable


class TestTreeStructure:
    def test_children_and_with_children(self, dept_get, emp_get):
        join = Join(JoinKind.INNER, dept_get, emp_get, TRUE)
        assert join.children == (dept_get, emp_get)
        swapped = join.with_children((emp_get, dept_get))
        assert swapped.children == (emp_get, dept_get)
        assert swapped.join_kind is JoinKind.INNER

    def test_get_is_leaf(self, dept_get):
        assert dept_get.children == ()
        with pytest.raises(ValueError, match="leaf"):
            dept_get.with_children((dept_get,))

    def test_walk_and_tree_size(self, dept_get, emp_get):
        join = Join(JoinKind.CROSS, dept_get, emp_get)
        select = Select(join, TRUE)
        nodes = list(select.walk())
        assert len(nodes) == 4
        assert select.tree_size() == 4
        assert nodes[0] is select

    def test_is_tree_detects_group_refs(self, dept_get):
        concrete = Select(dept_get, TRUE)
        assert concrete.is_tree()
        memo_form = Select(GroupRef(0), TRUE)
        assert not memo_form.is_tree()

    def test_pretty_renders_nested(self, dept_get, emp_get):
        join = Join(JoinKind.INNER, dept_get, emp_get, TRUE)
        text = join.pretty()
        assert "Join[INNER]" in text
        assert "  Get(dept)" in text

    def test_operator_equality_is_structural(self, dept_get):
        a = Select(dept_get, TRUE)
        b = Select(dept_get, TRUE)
        assert a == b
        assert hash(a) == hash(b)


class TestProject:
    def test_output_columns(self, dept_get):
        out = Column("x", DataType.INT)
        project = Project(dept_get, ((out, ColumnRef(dept_get.columns[0])),))
        assert project.output_columns == (out,)
        assert "x=" in project.describe()


class TestGbAgg:
    def test_output_columns_group_then_aggs(self, dept_get):
        out = Column("n", DataType.INT)
        agg = GbAgg(
            dept_get,
            (dept_get.columns[0],),
            ((out, AggregateCall(AggregateFunction.COUNT_STAR)),),
        )
        assert agg.output_columns == (dept_get.columns[0], out)
        assert agg.phase == "single"

    def test_phase_survives_with_children(self, dept_get):
        agg = GbAgg(dept_get, (dept_get.columns[0],), (), phase="local")
        rebuilt = agg.with_children((dept_get,))
        assert rebuilt.phase == "local"


class TestJoinKinds:
    def test_preserves_right_columns(self):
        assert JoinKind.INNER.preserves_right_columns
        assert JoinKind.LEFT_OUTER.preserves_right_columns
        assert not JoinKind.SEMI.preserves_right_columns
        assert not JoinKind.ANTI.preserves_right_columns


class TestSetOps:
    def test_is_set_op(self, dept_get, emp_get):
        outputs = (Column("u", DataType.INT),)
        union = UnionAll(
            dept_get,
            emp_get,
            outputs,
            (dept_get.columns[0],),
            (emp_get.columns[0],),
        )
        assert is_set_op(union)
        assert union.kind is OpKind.UNION_ALL
        assert not is_set_op(dept_get)

    def test_with_children_preserves_column_maps(self, dept_get, emp_get):
        outputs = (Column("u", DataType.INT),)
        union = UnionAll(
            dept_get, emp_get, outputs,
            (dept_get.columns[0],), (emp_get.columns[0],),
        )
        rebuilt = union.with_children((dept_get, emp_get))
        assert rebuilt.output_columns == outputs
        assert rebuilt.left_columns == (dept_get.columns[0],)


class TestMiscOperators:
    def test_sort_describe(self, dept_get):
        sort = Sort(dept_get, (SortKey(dept_get.columns[0], False),))
        assert "dept_id DESC" in sort.describe()

    def test_limit(self, dept_get):
        limit = Limit(dept_get, 10)
        assert limit.describe() == "Limit(10)"
        assert limit.with_children((dept_get,)).count == 10

    def test_distinct(self, dept_get):
        distinct = Distinct(dept_get)
        assert distinct.kind is OpKind.DISTINCT


class TestOperatorDeclarations:
    """Each kind has one operator class, and every table derived from the
    classes covers it: a new operator cannot be left out."""

    @pytest.fixture()
    def samples(self, dept_get, emp_get):
        dept_id, emp_dept = dept_get.columns[0], emp_get.columns[1]
        matches = Comparison(
            ComparisonOp.EQ, ColumnRef(emp_dept), ColumnRef(dept_id)
        )
        count = ((Column("n", DataType.INT),
                  AggregateCall(AggregateFunction.COUNT_STAR)),)
        branches = ((Column("u", DataType.INT),), (dept_id,), (emp_dept,))
        return [
            dept_get,
            Select(dept_get, Comparison(
                ComparisonOp.EQ, ColumnRef(dept_id), Literal(1, DataType.INT)
            )),
            Project(dept_get, ((dept_id, ColumnRef(dept_id)),)),
            Join(JoinKind.INNER, emp_get, dept_get, matches),
            Apply(JoinKind.SEMI, emp_get, dept_get, matches),
            GbAgg(dept_get, (dept_id,), count),
            UnionAll(dept_get, emp_get, *branches),
            Union(dept_get, emp_get, *branches),
            Intersect(dept_get, emp_get, *branches),
            Except(dept_get, emp_get, *branches),
            Distinct(dept_get),
            Sort(dept_get, (SortKey(dept_id),)),
            Limit(dept_get, 3),
        ]

    def test_every_kind_has_a_class(self, samples):
        assert set(OPERATOR_CLASSES) == set(OpKind)
        assert {type(op) for op in samples} == set(OPERATOR_CLASSES.values())
        for kind, cls in OPERATOR_CLASSES.items():
            assert cls.kind is kind

    def test_declarations_match_instances(self, samples, tiny_catalog):
        for op in samples:
            cls = OPERATOR_CLASSES[op.kind]
            # Arity: the declared child fields are the children.
            assert op.children == tuple(
                getattr(op, name) for name in cls.child_fields
            )
            # Attributes: every field is readable on a bound pattern node.
            fields = {field.name for field in dataclasses.fields(cls)}
            assert fields | GENERIC_ATTRIBUTES <= ATTRIBUTES_BY_KIND[op.kind]
            # Reads: declared by the class itself, from inputs it has.
            assert cls.column_reads is not LogicalOp.column_reads
            for read in op.column_reads():
                assert set(read.inputs) <= set(range(op.arity))
            if cls.join_kind_field is not None:
                assert isinstance(getattr(op, cls.join_kind_field), JoinKind)
            validate_tree(op, tiny_catalog)

    def test_result_columns_cover_every_kind(
        self, samples, dept_get, emp_get, tiny_catalog
    ):
        dept, emp = dept_get.columns, emp_get.columns
        union = (samples[6].output_columns[0],)
        expected = {
            OpKind.GET: dept,
            OpKind.SELECT: dept,
            OpKind.PROJECT: (dept[0],),
            OpKind.JOIN: emp + dept,
            OpKind.APPLY: emp,
            OpKind.GB_AGG: (dept[0], samples[5].aggregates[0][0]),
            OpKind.UNION_ALL: union,
            OpKind.UNION: union,
            OpKind.INTERSECT: union,
            OpKind.EXCEPT: union,
            OpKind.DISTINCT: dept,
            OpKind.SORT: dept,
            OpKind.LIMIT: dept,
        }
        assert set(expected) == set(OpKind)
        deriver = PropertyDeriver(tiny_catalog)
        for op in samples:
            inputs = tuple(
                deriver.derive_tree(child).columns for child in op.children
            )
            assert op.result_columns(inputs) == expected[op.kind]
            assert validate_tree(op, tiny_catalog) == expected[op.kind]
            assert deriver.derive_tree(op).columns == expected[op.kind]
