"""Structural tests for physical operator nodes: each kind has one class,
whose declarations (inputs, reads, result columns) match its instances."""

import dataclasses

import pytest

from repro.analysis import PlanSanitizer
from repro.catalog.schema import DataType
from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import (
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
)
from repro.logical.operators import JoinKind, SortKey, make_get
from repro.physical.operators import (
    ComputeScalar,
    Concat,
    Filter,
    HashAggregate,
    HashDistinct,
    HashExcept,
    HashIntersect,
    HashJoin,
    HashUnion,
    MergeJoin,
    NestedApply,
    NestedLoopsJoin,
    PhysicalOp,
    PhysOpKind,
    Sort,
    StreamAggregate,
    TableScan,
    Top,
)


def _concrete_classes():
    found, pending = [], [PhysicalOp]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "kind" in vars(cls):
            found.append(cls)
    return found


def _result_columns(op):
    return op.result_columns(
        tuple(_result_columns(child) for child in op.children)
    )


@pytest.fixture()
def samples(tiny_catalog):
    """One plan node of every kind, with the columns it outputs."""
    dept = make_get(tiny_catalog.table("dept"))
    emp = make_get(tiny_catalog.table("emp"))
    dept_scan = TableScan(dept.table, dept.columns, dept.alias)
    emp_scan = TableScan(emp.table, emp.columns, emp.alias)
    dept_id, emp_dept = dept.columns[0], emp.columns[1]
    matches = Comparison(
        ComparisonOp.EQ, ColumnRef(emp_dept), ColumnRef(dept_id)
    )
    count = Column("n", DataType.INT)
    aggregates = ((count, AggregateCall(AggregateFunction.COUNT_STAR)),)
    out = Column("u", DataType.INT)
    branches = ((out,), (emp_dept,), (dept_id,))
    by_key = SortKey(dept_id)
    positive = Comparison(
        ComparisonOp.GT, ColumnRef(dept_id), Literal(0, DataType.INT)
    )
    return [
        (dept_scan, dept.columns),
        (Filter(dept_scan, positive), dept.columns),
        (ComputeScalar(dept_scan, ((out, ColumnRef(dept_id)),)), (out,)),
        (
            NestedLoopsJoin(JoinKind.INNER, emp_scan, dept_scan, matches),
            emp.columns + dept.columns,
        ),
        (
            NestedApply(JoinKind.SEMI, emp_scan, dept_scan, matches),
            emp.columns,
        ),
        (
            HashJoin(JoinKind.ANTI, emp_scan, dept_scan, (emp_dept,), (dept_id,)),
            emp.columns,
        ),
        (
            MergeJoin(
                Sort(emp_scan, (SortKey(emp_dept),)),
                Sort(dept_scan, (by_key,)),
                (emp_dept,),
                (dept_id,),
            ),
            emp.columns + dept.columns,
        ),
        (HashAggregate(dept_scan, (dept_id,), aggregates), (dept_id, count)),
        (
            StreamAggregate(Sort(dept_scan, (by_key,)), (dept_id,), aggregates),
            (dept_id, count),
        ),
        (Sort(dept_scan, (by_key,)), dept.columns),
        (Concat(emp_scan, dept_scan, *branches), (out,)),
        (HashUnion(emp_scan, dept_scan, *branches), (out,)),
        (HashDistinct(dept_scan), dept.columns),
        (HashIntersect(emp_scan, dept_scan, *branches), (out,)),
        (HashExcept(emp_scan, dept_scan, *branches), (out,)),
        (Top(dept_scan, 3), dept.columns),
    ]


def test_every_kind_has_exactly_one_class(samples):
    classes = _concrete_classes()
    assert sorted(cls.kind.name for cls in classes) == sorted(
        kind.name for kind in PhysOpKind
    )
    assert [op.kind for op, _ in samples] == list(PhysOpKind)
    assert {type(op) for op, _ in samples} == set(classes)


def test_declarations_match_instances(samples, tiny_catalog):
    sanitizer = PlanSanitizer(tiny_catalog)
    for op, columns in samples:
        cls = type(op)
        fields = [field.name for field in dataclasses.fields(cls)]
        # Inputs: the declared child fields are the plan-node fields.
        assert set(cls.child_fields) <= set(fields)
        assert op.children == tuple(
            getattr(op, name) for name in cls.child_fields
        )
        assert all(isinstance(child, PhysicalOp) for child in op.children)
        assert not any(
            isinstance(getattr(op, name), PhysicalOp)
            for name in fields
            if name not in cls.child_fields
        )
        # Reads: declared by the class, from inputs it has.
        assert cls.column_reads is not PhysicalOp.column_reads
        for read in op.column_reads():
            assert set(read.inputs) <= set(range(len(op.children)))
        # Result columns: what the plan outputs, and what the sanitizer
        # resolves it to.
        assert _result_columns(op) == columns
        sanitizer.check_plan(op, columns)


def test_with_children_rebuilds_from_child_fields(samples):
    for op, _ in samples:
        assert op.with_children(op.children) == op
        reversed_op = op.with_children(op.children[::-1])
        assert reversed_op.children == op.children[::-1]
        assert type(reversed_op) is type(op)


def test_wrong_number_of_children_raises(samples):
    scan = samples[0][0]
    with pytest.raises(ValueError):
        scan.with_children((scan,))
    for op, _ in samples[1:]:
        with pytest.raises(ValueError):
            op.with_children(op.children + (scan,))
