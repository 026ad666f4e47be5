"""Unit tests for the physical-plan executor, operator by operator.

Each test hand-builds a physical tree over the tiny database and checks
exact row-level semantics, with special attention to NULL behaviour (the
place naive executors go wrong).
"""

import pytest

from repro.catalog.schema import DataType
from repro.engine import ExecutionError, execute_plan
from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import (
    TRUE,
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    IsNull,
    Literal,
)
from repro.logical.operators import JoinKind, SortKey
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
    NestedLoopsJoin,
    Sort,
    StreamAggregate,
    TableScan,
    Top,
)


@pytest.fixture()
def dept_scan(tiny_db):
    return _bind(tiny_db, "dept")


@pytest.fixture()
def emp_scan(tiny_db):
    return _bind(tiny_db, "emp")


def _bind(database, table_name, alias=None):
    from repro.logical.operators import make_get

    get = make_get(database.catalog.table(table_name), alias)
    return TableScan(get.table, get.columns, get.alias)


def _rows(plan, database):
    return execute_plan(plan, database).rows


class TestScanAndFilter:
    def test_table_scan(self, tiny_db, dept_scan):
        rows = _rows(dept_scan, tiny_db)
        assert len(rows) == 4
        assert rows[0] == (10, "eng", 100.0)

    def test_filter_keeps_only_true(self, tiny_db, emp_scan):
        salary = emp_scan.columns[2]
        predicate = Comparison(
            ComparisonOp.GT, ColumnRef(salary), Literal(90.0, DataType.FLOAT)
        )
        rows = _rows(Filter(emp_scan, predicate), tiny_db)
        # eve's NULL salary evaluates UNKNOWN -> dropped.
        assert {row[0] for row in rows} == {1, 3, 6}

    def test_filter_is_null(self, tiny_db, emp_scan):
        predicate = IsNull(ColumnRef(emp_scan.columns[2]))
        rows = _rows(Filter(emp_scan, predicate), tiny_db)
        assert [row[0] for row in rows] == [5]


class TestComputeScalar:
    def test_projection_and_expression(self, tiny_db, emp_scan):
        salary = emp_scan.columns[2]
        out = Column("double_salary", DataType.FLOAT)
        from repro.expr.expressions import Arithmetic, ArithmeticOp

        compute = ComputeScalar(
            emp_scan,
            ((out, Arithmetic(ArithmeticOp.MUL, ColumnRef(salary),
                              Literal(2.0, DataType.FLOAT))),),
        )
        result = execute_plan(compute, tiny_db)
        assert result.columns == (out,)
        values = [row[0] for row in result.rows]
        assert 240.0 in values and None in values


class TestJoins:
    def _join_pred(self, emp_scan, dept_scan):
        return Comparison(
            ComparisonOp.EQ,
            ColumnRef(emp_scan.columns[1]),
            ColumnRef(dept_scan.columns[0]),
        )

    def test_nested_loops_inner(self, tiny_db, emp_scan, dept_scan):
        join = NestedLoopsJoin(
            JoinKind.INNER, emp_scan, dept_scan,
            self._join_pred(emp_scan, dept_scan),
        )
        rows = _rows(join, tiny_db)
        # dan (NULL dept) drops; 5 employees match.
        assert len(rows) == 5

    def test_nested_loops_cross(self, tiny_db, emp_scan, dept_scan):
        join = NestedLoopsJoin(JoinKind.CROSS, emp_scan, dept_scan, TRUE)
        assert len(_rows(join, tiny_db)) == 24

    def test_nested_loops_left_outer_null_extends(
        self, tiny_db, emp_scan, dept_scan
    ):
        join = NestedLoopsJoin(
            JoinKind.LEFT_OUTER, emp_scan, dept_scan,
            self._join_pred(emp_scan, dept_scan),
        )
        rows = _rows(join, tiny_db)
        assert len(rows) == 6
        dan = next(row for row in rows if row[0] == 4)
        assert dan[4:] == (None, None, None)

    def test_nested_loops_semi(self, tiny_db, emp_scan, dept_scan):
        join = NestedLoopsJoin(
            JoinKind.SEMI, emp_scan, dept_scan,
            self._join_pred(emp_scan, dept_scan),
        )
        rows = _rows(join, tiny_db)
        assert {row[0] for row in rows} == {1, 2, 3, 5, 6}
        assert len(rows[0]) == 4  # only left columns

    def test_nested_loops_anti_keeps_null_keys(
        self, tiny_db, emp_scan, dept_scan
    ):
        join = NestedLoopsJoin(
            JoinKind.ANTI, emp_scan, dept_scan,
            self._join_pred(emp_scan, dept_scan),
        )
        rows = _rows(join, tiny_db)
        # dan has NULL emp_dept: matches nothing -> kept by ANTI join.
        assert [row[0] for row in rows] == [4]

    def _hash_join(self, kind, emp_scan, dept_scan, residual=TRUE):
        return HashJoin(
            kind,
            emp_scan,
            dept_scan,
            (emp_scan.columns[1],),
            (dept_scan.columns[0],),
            residual,
        )

    @pytest.mark.parametrize(
        "kind",
        [JoinKind.INNER, JoinKind.LEFT_OUTER, JoinKind.SEMI, JoinKind.ANTI],
    )
    def test_hash_join_agrees_with_nested_loops(
        self, tiny_db, emp_scan, dept_scan, kind
    ):
        predicate = self._join_pred(emp_scan, dept_scan)
        nl = NestedLoopsJoin(kind, emp_scan, dept_scan, predicate)
        hj = self._hash_join(kind, emp_scan, dept_scan)
        assert sorted(
            map(repr, _rows(nl, tiny_db))
        ) == sorted(map(repr, _rows(hj, tiny_db)))

    def test_hash_join_residual(self, tiny_db, emp_scan, dept_scan):
        residual = Comparison(
            ComparisonOp.GT,
            ColumnRef(emp_scan.columns[2]),
            Literal(90.0, DataType.FLOAT),
        )
        join = self._hash_join(
            JoinKind.INNER, emp_scan, dept_scan, residual
        )
        rows = _rows(join, tiny_db)
        assert {row[0] for row in rows} == {1, 3, 6}

    def test_hash_join_rejects_a_cross_join(
        self, tiny_db, emp_scan, dept_scan
    ):
        join = self._hash_join(JoinKind.CROSS, emp_scan, dept_scan)
        with pytest.raises(ExecutionError, match="does not support"):
            execute_plan(join, tiny_db)

    def test_merge_join_matches_hash_join(self, tiny_db, emp_scan, dept_scan):
        sorted_emp = Sort(emp_scan, (SortKey(emp_scan.columns[1]),))
        sorted_dept = Sort(dept_scan, (SortKey(dept_scan.columns[0]),))
        merge = MergeJoin(
            sorted_emp,
            sorted_dept,
            (emp_scan.columns[1],),
            (dept_scan.columns[0],),
        )
        hash_join = self._hash_join(JoinKind.INNER, emp_scan, dept_scan)
        assert sorted(map(repr, _rows(merge, tiny_db))) == sorted(
            map(repr, _rows(hash_join, tiny_db))
        )

    def test_merge_join_duplicate_keys(self, tiny_db, emp_scan, dept_scan):
        # dept 10 has two employees, dept 20 has two: equal-key runs.
        sorted_emp = Sort(emp_scan, (SortKey(emp_scan.columns[1]),))
        sorted_dept = Sort(dept_scan, (SortKey(dept_scan.columns[0]),))
        merge = MergeJoin(
            sorted_emp, sorted_dept,
            (emp_scan.columns[1],), (dept_scan.columns[0],),
        )
        assert len(_rows(merge, tiny_db)) == 5


class TestAggregation:
    def _count_by_dept(self, emp_scan, cls):
        out = Column("n", DataType.INT)
        return cls(
            emp_scan,
            (emp_scan.columns[1],),
            ((out, AggregateCall(AggregateFunction.COUNT_STAR)),),
        )

    def test_hash_aggregate_groups(self, tiny_db, emp_scan):
        agg = self._count_by_dept(emp_scan, HashAggregate)
        rows = _rows(agg, tiny_db)
        counts = dict(rows)
        assert counts == {10: 2, 20: 2, 30: 1, None: 1}

    def test_stream_aggregate_matches_hash(self, tiny_db, emp_scan):
        sorted_emp = Sort(emp_scan, (SortKey(emp_scan.columns[1]),))
        out = Column("n", DataType.INT)
        stream = StreamAggregate(
            sorted_emp,
            (emp_scan.columns[1],),
            ((out, AggregateCall(AggregateFunction.COUNT_STAR)),),
        )
        hash_agg = self._count_by_dept(emp_scan, HashAggregate)
        assert sorted(map(repr, _rows(stream, tiny_db))) == sorted(
            map(repr, _rows(hash_agg, tiny_db))
        )

    def test_sum_skips_nulls(self, tiny_db, emp_scan):
        out = Column("total", DataType.FLOAT)
        agg = HashAggregate(
            emp_scan,
            (),
            ((out, AggregateCall(
                AggregateFunction.SUM, ColumnRef(emp_scan.columns[2]))),),
        )
        rows = _rows(agg, tiny_db)
        assert rows == [(450.0,)]

    def test_scalar_aggregate_over_empty_input(self, tiny_db, emp_scan):
        never = Comparison(
            ComparisonOp.LT,
            ColumnRef(emp_scan.columns[0]),
            Literal(0, DataType.INT),
        )
        empty = Filter(emp_scan, never)
        salary = ColumnRef(emp_scan.columns[2])
        calls = [
            AggregateCall(function)
            if function is AggregateFunction.COUNT_STAR
            else AggregateCall(function, salary)
            for function in AggregateFunction
        ]
        agg = HashAggregate(
            empty,
            (),
            tuple(
                (Column(call.function.name.lower(), call.result_type()), call)
                for call in calls
            ),
        )
        # SQL's empty-input values: 0 for the COUNTs, NULL otherwise.
        ((count, count_star, *rest),) = _rows(agg, tiny_db)
        assert (type(count), count) == (int, 0)
        assert (type(count_star), count_star) == (int, 0)
        assert rest == [None] * 4

    def test_grouped_aggregate_over_empty_input_returns_nothing(
        self, tiny_db, emp_scan
    ):
        never = Comparison(
            ComparisonOp.LT,
            ColumnRef(emp_scan.columns[0]),
            Literal(0, DataType.INT),
        )
        empty = Filter(emp_scan, never)
        out = Column("n", DataType.INT)
        agg = HashAggregate(
            empty,
            (emp_scan.columns[1],),
            ((out, AggregateCall(AggregateFunction.COUNT_STAR)),),
        )
        assert _rows(agg, tiny_db) == []
        stream = StreamAggregate(
            empty,
            (emp_scan.columns[1],),
            ((out, AggregateCall(AggregateFunction.COUNT_STAR)),),
        )
        assert _rows(stream, tiny_db) == []


class TestSortAndTop:
    def test_sort_ascending_nulls_first(self, tiny_db, emp_scan):
        plan = Sort(emp_scan, (SortKey(emp_scan.columns[2], True),))
        salaries = [row[2] for row in _rows(plan, tiny_db)]
        assert salaries == [None, 60.0, 80.0, 95.0, 95.0, 120.0]

    def test_sort_descending_nulls_last(self, tiny_db, emp_scan):
        plan = Sort(emp_scan, (SortKey(emp_scan.columns[2], False),))
        salaries = [row[2] for row in _rows(plan, tiny_db)]
        assert salaries == [120.0, 95.0, 95.0, 80.0, 60.0, None]

    def test_multi_key_sort_is_stable(self, tiny_db, emp_scan):
        plan = Sort(
            emp_scan,
            (
                SortKey(emp_scan.columns[1], True),
                SortKey(emp_scan.columns[2], False),
            ),
        )
        rows = _rows(plan, tiny_db)
        assert [row[0] for row in rows] == [4, 1, 2, 3, 6, 5]

    def test_top(self, tiny_db, emp_scan):
        plan = Top(Sort(emp_scan, (SortKey(emp_scan.columns[0]),)), 2)
        assert [row[0] for row in _rows(plan, tiny_db)] == [1, 2]


class TestSetOperations:
    def _branches(self, tiny_db):
        emp = _bind(tiny_db, "emp")
        dept = _bind(tiny_db, "dept")
        out = Column("u", DataType.INT)
        return emp, dept, out

    def test_concat(self, tiny_db):
        emp, dept, out = self._branches(tiny_db)
        plan = Concat(emp, dept, (out,), (emp.columns[1],), (dept.columns[0],))
        rows = _rows(plan, tiny_db)
        assert len(rows) == 10

    def test_hash_union_dedups_and_groups_nulls(self, tiny_db):
        emp, dept, out = self._branches(tiny_db)
        plan = HashUnion(
            emp, dept, (out,), (emp.columns[1],), (dept.columns[0],)
        )
        values = {row[0] for row in _rows(plan, tiny_db)}
        assert values == {10, 20, 30, 40, None}

    def test_hash_intersect_treats_nulls_equal(self, tiny_db):
        emp, dept, out = self._branches(tiny_db)
        plan = HashIntersect(
            emp, emp, (out,), (emp.columns[1],), (emp.columns[1],)
        )
        values = {row[0] for row in _rows(plan, tiny_db)}
        assert None in values  # (NULL) INTERSECT (NULL) keeps the NULL row

    def test_hash_except(self, tiny_db):
        emp, dept, out = self._branches(tiny_db)
        plan = HashExcept(
            dept, emp, (out,), (dept.columns[0],), (emp.columns[1],)
        )
        values = {row[0] for row in _rows(plan, tiny_db)}
        assert values == {40}  # the dept with no employees

    def test_hash_distinct_preserves_first_occurrence(self, tiny_db):
        emp = _bind(tiny_db, "emp")
        project = ComputeScalar(
            emp, ((emp.columns[1], ColumnRef(emp.columns[1])),)
        )
        rows = _rows(HashDistinct(project), tiny_db)
        assert [row[0] for row in rows] == [10, 20, None, 30]


class TestOutputProjection:
    def test_execute_plan_reorders_columns(self, tiny_db):
        dept = _bind(tiny_db, "dept")
        result = execute_plan(
            dept, tiny_db, output_columns=(dept.columns[1], dept.columns[0])
        )
        assert result.rows[0] == ("eng", 10)

    def test_projection_to_unknown_column_fails(self, tiny_db):
        dept = _bind(tiny_db, "dept")
        stray = Column("ghost", DataType.INT)
        with pytest.raises(ValueError, match="column not in result"):
            execute_plan(dept, tiny_db, output_columns=(stray,))
