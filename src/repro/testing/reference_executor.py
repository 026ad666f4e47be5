"""The row-at-a-time reference interpreter: a test oracle for the executor.

:func:`execute_plan_iterator` runs a physical plan one row tuple at a
time, evaluating expressions with :func:`evaluate` and aggregating with
:class:`Accumulator`, so it shares no expression compiler and no
aggregator with the columnar executor (:func:`repro.engine.execute_plan`)
it is compared against.  It is not an execution path: the executor
differential tests hold the two to the same rows in the same order, and
property-based tests pin the production evaluator
(:mod:`repro.expr.vector`) to :func:`evaluate` value for value.

NULL semantics follow SQL throughout: predicates keep rows only when TRUE;
outer joins NULL-extend; grouping, DISTINCT and set operations treat NULLs
as equal; aggregates skip NULLs (except COUNT(*)).  Any arithmetic or
comparison with a NULL operand yields NULL (UNKNOWN for booleans); AND/OR
follow Kleene logic; ``IS NULL`` is always two-valued.  Division by zero
yields NULL, keeping evaluation total -- this mirrors engines configured
with ANSI warnings off and keeps randomly generated queries executable.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Tuple

from repro.engine import ExecutionError, QueryResult
from repro.expr.aggregates import AggregateFunction
from repro.expr.expressions import (
    TRUE,
    Arithmetic,
    ArithmeticOp,
    BoolConnective,
    BoolExpr,
    Column,
    ColumnRef,
    Comparison,
    Expr,
    IsNull,
    Literal,
    Not,
)
from repro.expr.vector import _COMPARATORS, Layout, layout_of
from repro.logical.operators import JoinKind
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
from repro.storage.database import Database

Rows = List[Tuple]
Columns = Tuple[Column, ...]


# ------------------------------------------------ expressions and aggregates


def _arith(op: ArithmeticOp, left, right):
    if left is None or right is None:
        return None
    if op is ArithmeticOp.ADD:
        return left + right
    if op is ArithmeticOp.SUB:
        return left - right
    if op is ArithmeticOp.MUL:
        return left * right
    if right == 0:
        return None
    return left / right


def evaluate(expr: Expr, row: Tuple, layout: Layout):
    """Interpret ``expr`` against ``row``; returns a value or ``None``."""
    if isinstance(expr, ColumnRef):
        return row[layout[expr.column.cid]]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Comparison):
        left = evaluate(expr.left, row, layout)
        right = evaluate(expr.right, row, layout)
        if left is None or right is None:
            return None
        return _COMPARATORS[expr.op](left, right)
    if isinstance(expr, BoolExpr):
        if expr.op is BoolConnective.AND:
            saw_null = False
            for arg in expr.args:
                value = evaluate(arg, row, layout)
                if value is False:
                    return False
                if value is None:
                    saw_null = True
            return None if saw_null else True
        saw_null = False
        for arg in expr.args:
            value = evaluate(arg, row, layout)
            if value is True:
                return True
            if value is None:
                saw_null = True
        return None if saw_null else False
    if isinstance(expr, Not):
        value = evaluate(expr.arg, row, layout)
        if value is None:
            return None
        return not value
    if isinstance(expr, IsNull):
        return evaluate(expr.arg, row, layout) is None
    if isinstance(expr, Arithmetic):
        left = evaluate(expr.left, row, layout)
        right = evaluate(expr.right, row, layout)
        return _arith(expr.op, left, right)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


class Accumulator:
    """Streaming accumulator for one aggregate over one group."""

    __slots__ = ("function", "_count", "_sum", "_min", "_max")

    def __init__(self, function: AggregateFunction) -> None:
        self.function = function
        self._count = 0
        self._sum = 0
        self._min = None
        self._max = None

    def add(self, value: object) -> None:
        """Feed one input value (already-evaluated argument, or a dummy for
        COUNT(*)).  NULL inputs are ignored except by COUNT(*)."""
        if self.function is AggregateFunction.COUNT_STAR:
            self._count += 1
            return
        if value is None:
            return
        self._count += 1
        if self.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            self._sum += value
        elif self.function is AggregateFunction.MIN:
            if self._min is None or value < self._min:
                self._min = value
        elif self.function is AggregateFunction.MAX:
            if self._max is None or value > self._max:
                self._max = value

    def result(self) -> object:
        """Final value for the group (SQL semantics for empty input)."""
        if self.function in (
            AggregateFunction.COUNT,
            AggregateFunction.COUNT_STAR,
        ):
            return self._count
        if self._count == 0:
            return None
        if self.function is AggregateFunction.SUM:
            return self._sum
        if self.function is AggregateFunction.AVG:
            return self._sum / self._count
        if self.function is AggregateFunction.MIN:
            return self._min
        return self._max


# ---------------------------------------------------------------- executor


def execute_plan_iterator(
    plan: PhysicalOp,
    database: Database,
    output_columns: Columns = None,
) -> QueryResult:
    """Execute ``plan`` on the row-at-a-time reference interpreter."""
    rows, columns = _execute(plan, database)
    result = QueryResult.from_rows(columns, rows)
    if output_columns is not None:
        result = result.projected(tuple(output_columns))
    return result


def _row_predicate(expr: Expr, layout: Layout) -> Callable[[Tuple], bool]:
    """Row filter over the interpreter: UNKNOWN counts as False."""
    if expr == TRUE:
        return lambda row: True
    return lambda row: evaluate(expr, row, layout) is True


def _tuple_getter(positions: List[int]) -> Callable[[Tuple], Tuple]:
    """Compiled key extractor: ``row -> tuple(row[i] for i in positions)``.

    Hoisted out of the per-row loops of the hash/merge/aggregate paths;
    ``operator.itemgetter`` runs in C instead of a generator expression
    per row.
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return operator.itemgetter(*positions)


def _execute(op: PhysicalOp, database: Database) -> Tuple[Rows, Columns]:
    handler = _HANDLERS.get(op.kind)
    if handler is None:
        raise ExecutionError(f"no executor for {op.kind}")
    return handler(op, database)


# ------------------------------------------------------------------- leaves


def _exec_table_scan(op: TableScan, database: Database):
    table = database.table(op.table)
    return list(table.rows), op.columns


# ------------------------------------------------------------------ unary


def _exec_filter(op: Filter, database: Database):
    rows, columns = _execute(op.child, database)
    predicate = _row_predicate(op.predicate, layout_of(columns))
    return [row for row in rows if predicate(row)], columns


def _exec_compute_scalar(op: ComputeScalar, database: Database):
    rows, columns = _execute(op.child, database)
    layout = layout_of(columns)
    out_rows = [
        tuple(evaluate(expr, row, layout) for _, expr in op.outputs)
        for row in rows
    ]
    return out_rows, op.output_columns


def _exec_sort(op: Sort, database: Database):
    rows, columns = _execute(op.child, database)
    layout = layout_of(columns)
    # Stable multi-pass sort: apply keys last-to-first.  NULLs sort first
    # ascending (and therefore last descending), SQL Server style.  Rank
    # tuples are precomputed per pass and an index permutation is sorted,
    # so the key closure is a C-level list lookup instead of rebuilding
    # the rank tuple on every comparison call.
    order = list(range(len(rows)))
    for key in reversed(op.keys):
        index = layout[key.column.cid]
        ranks = [_null_first_key(row[index]) for row in rows]
        order.sort(key=ranks.__getitem__, reverse=not key.ascending)
    return [rows[i] for i in order], columns


def _null_first_key(value):
    return (0, 0) if value is None else (1, value)


def _exec_hash_distinct(op: HashDistinct, database: Database):
    rows, columns = _execute(op.child, database)
    seen = set()
    out = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out, columns


def _exec_top(op: Top, database: Database):
    rows, columns = _execute(op.child, database)
    return rows[: op.count], columns


# ------------------------------------------------------------------- joins


def _exec_nested_loops(op: NestedLoopsJoin, database: Database):
    left_rows, left_columns = _execute(op.left, database)
    right_rows, right_columns = _execute(op.right, database)
    kind = op.join_kind
    combined_columns = left_columns + right_columns
    predicate = _row_predicate(op.predicate, layout_of(combined_columns))

    out: Rows = []
    if kind in (JoinKind.INNER, JoinKind.CROSS):
        for lrow in left_rows:
            for rrow in right_rows:
                row = lrow + rrow
                if predicate(row):
                    out.append(row)
        return out, combined_columns
    if kind is JoinKind.LEFT_OUTER:
        null_pad = (None,) * len(right_columns)
        for lrow in left_rows:
            matched = False
            for rrow in right_rows:
                row = lrow + rrow
                if predicate(row):
                    out.append(row)
                    matched = True
            if not matched:
                out.append(lrow + null_pad)
        return out, combined_columns
    if kind in (JoinKind.SEMI, JoinKind.ANTI):
        want_match = kind is JoinKind.SEMI
        for lrow in left_rows:
            matched = any(
                predicate(lrow + rrow) for rrow in right_rows
            )
            if matched == want_match:
                out.append(lrow)
        return out, left_columns
    raise ExecutionError(f"unsupported join kind {kind}")


def _exec_nested_apply(op: NestedApply, database: Database):
    left_rows, left_columns = _execute(op.left, database)
    right_rows, right_columns = _execute(op.right, database)
    predicate = _row_predicate(
        op.predicate, layout_of(left_columns + right_columns)
    )
    want_match = op.apply_kind is JoinKind.SEMI
    out: Rows = []
    for lrow in left_rows:
        matched = any(predicate(lrow + rrow) for rrow in right_rows)
        if matched == want_match:
            out.append(lrow)
    return out, left_columns


def _exec_hash_join(op: HashJoin, database: Database):
    left_rows, left_columns = _execute(op.left, database)
    right_rows, right_columns = _execute(op.right, database)
    kind = op.join_kind
    combined_columns = left_columns + right_columns

    left_layout = layout_of(left_columns)
    right_layout = layout_of(right_columns)
    left_key = _tuple_getter([left_layout[c.cid] for c in op.left_keys])
    right_key = _tuple_getter([right_layout[c.cid] for c in op.right_keys])

    residual = _row_predicate(op.residual, layout_of(combined_columns))

    # Build side: rows with a NULL key can never satisfy an equality join.
    table: Dict[Tuple, List[Tuple]] = {}
    for rrow in right_rows:
        key = right_key(rrow)
        if None in key:
            continue
        table.setdefault(key, []).append(rrow)

    out: Rows = []
    if kind in (JoinKind.INNER,):
        for lrow in left_rows:
            key = left_key(lrow)
            if None in key:
                continue
            for rrow in table.get(key, ()):
                row = lrow + rrow
                if residual(row):
                    out.append(row)
        return out, combined_columns
    if kind is JoinKind.LEFT_OUTER:
        null_pad = (None,) * len(right_columns)
        for lrow in left_rows:
            key = left_key(lrow)
            matched = False
            if None not in key:
                for rrow in table.get(key, ()):
                    row = lrow + rrow
                    if residual(row):
                        out.append(row)
                        matched = True
            if not matched:
                out.append(lrow + null_pad)
        return out, combined_columns
    if kind in (JoinKind.SEMI, JoinKind.ANTI):
        want_match = kind is JoinKind.SEMI
        for lrow in left_rows:
            key = left_key(lrow)
            matched = False
            if None not in key:
                matched = any(
                    residual(lrow + rrow) for rrow in table.get(key, ())
                )
            if matched == want_match:
                out.append(lrow)
        return out, left_columns
    raise ExecutionError(f"hash join does not support {kind}")


def _exec_merge_join(op: MergeJoin, database: Database):
    left_rows, left_columns = _execute(op.left, database)
    right_rows, right_columns = _execute(op.right, database)
    combined_columns = left_columns + right_columns

    left_layout = layout_of(left_columns)
    right_layout = layout_of(right_columns)
    left_key = _tuple_getter([left_layout[c.cid] for c in op.left_keys])
    right_key = _tuple_getter([right_layout[c.cid] for c in op.right_keys])
    residual = _row_predicate(op.residual, layout_of(combined_columns))

    # Rows with NULL keys cannot match an equality; drop them up front.
    # Keys are extracted once per row here rather than re-derived inside
    # the two-pointer loop below.
    left_clean: List[Tuple] = []
    left_keyed: List[Tuple] = []
    for row in left_rows:
        key = left_key(row)
        if None not in key:
            left_clean.append(row)
            left_keyed.append(key)
    right_clean: List[Tuple] = []
    right_keyed: List[Tuple] = []
    for row in right_rows:
        key = right_key(row)
        if None not in key:
            right_clean.append(row)
            right_keyed.append(key)

    out: Rows = []
    i = j = 0
    while i < len(left_clean) and j < len(right_clean):
        lkey = left_keyed[i]
        rkey = right_keyed[j]
        if lkey < rkey:
            i += 1
        elif lkey > rkey:
            j += 1
        else:
            # Equal-key runs: cross product of the two runs.
            i_end = i
            while i_end < len(left_clean) and left_keyed[i_end] == lkey:
                i_end += 1
            j_end = j
            while j_end < len(right_clean) and right_keyed[j_end] == rkey:
                j_end += 1
            for lrow in left_clean[i:i_end]:
                for rrow in right_clean[j:j_end]:
                    row = lrow + rrow
                    if residual(row):
                        out.append(row)
            i, j = i_end, j_end
    return out, combined_columns


# -------------------------------------------------------------- aggregation


def _make_agg_inputs(
    aggregates, layout
) -> List[Callable[[Tuple], object]]:
    """One input-extraction function per aggregate."""
    extractors = []
    for _, call in aggregates:
        if call.argument is None:  # COUNT(*)
            extractors.append(lambda row: 1)
        else:
            extractors.append(
                lambda row, argument=call.argument: evaluate(
                    argument, row, layout
                )
            )
    return extractors


def _exec_hash_aggregate(op: HashAggregate, database: Database):
    rows, columns = _execute(op.child, database)
    layout = layout_of(columns)
    group_key = _tuple_getter([layout[c.cid] for c in op.group_by])
    extractors = _make_agg_inputs(op.aggregates, layout)

    groups: Dict[Tuple, List[Accumulator]] = {}
    order: List[Tuple] = []
    for row in rows:
        key = group_key(row)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [
                Accumulator(call.function) for _, call in op.aggregates
            ]
            groups[key] = accumulators
            order.append(key)
        for accumulator, extract in zip(accumulators, extractors):
            accumulator.add(extract(row))

    out: Rows = []
    if not op.group_by and not groups:
        # Scalar aggregate over empty input: one row of defaults.
        out.append(
            tuple(
                Accumulator(call.function).result()
                for _, call in op.aggregates
            )
        )
    else:
        for key in order:
            out.append(
                key + tuple(acc.result() for acc in groups[key])
            )
    return out, op.output_columns


def _exec_stream_aggregate(op: StreamAggregate, database: Database):
    rows, columns = _execute(op.child, database)
    layout = layout_of(columns)
    # Grouping positions in the canonical (sorted-by-cid) requirement order.
    ordered_group = sorted(op.group_by, key=lambda c: c.cid)
    group_key = _tuple_getter([layout[c.cid] for c in ordered_group])
    # Output emits group columns in declared order.
    declared_key = _tuple_getter([layout[c.cid] for c in op.group_by])
    extractors = _make_agg_inputs(op.aggregates, layout)

    out: Rows = []
    current_key = None
    accumulators: List[Accumulator] = []
    current_declared: Tuple = ()
    saw_any = False
    for row in rows:
        key = group_key(row)
        if not saw_any or key != current_key:
            if saw_any:
                out.append(
                    current_declared
                    + tuple(acc.result() for acc in accumulators)
                )
            current_key = key
            current_declared = declared_key(row)
            accumulators = [
                Accumulator(call.function) for _, call in op.aggregates
            ]
            saw_any = True
        for accumulator, extract in zip(accumulators, extractors):
            accumulator.add(extract(row))
    if saw_any:
        out.append(
            current_declared + tuple(acc.result() for acc in accumulators)
        )
    elif not op.group_by:
        out.append(
            tuple(
                Accumulator(call.function).result()
                for _, call in op.aggregates
            )
        )
    return out, op.output_columns


# ------------------------------------------------------------------ set ops


def _aligned_branch(op, side: str, database: Database) -> Rows:
    """Execute one branch of a set operator and realign its rows to the
    operator's output column order."""
    child = op.left if side == "left" else op.right
    branch_columns = op.left_columns if side == "left" else op.right_columns
    rows, columns = _execute(child, database)
    layout = layout_of(columns)
    realign = _tuple_getter([layout[c.cid] for c in branch_columns])
    return [realign(row) for row in rows]


def _exec_concat(op: Concat, database: Database):
    left = _aligned_branch(op, "left", database)
    right = _aligned_branch(op, "right", database)
    return left + right, op.output_columns


def _exec_hash_union(op: HashUnion, database: Database):
    merged = _aligned_branch(op, "left", database) + _aligned_branch(
        op, "right", database
    )
    seen = set()
    out = []
    for row in merged:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out, op.output_columns


def _exec_hash_intersect(op: HashIntersect, database: Database):
    left = _aligned_branch(op, "left", database)
    right = set(_aligned_branch(op, "right", database))
    seen = set()
    out = []
    for row in left:
        if row in right and row not in seen:
            seen.add(row)
            out.append(row)
    return out, op.output_columns


def _exec_hash_except(op: HashExcept, database: Database):
    left = _aligned_branch(op, "left", database)
    right = set(_aligned_branch(op, "right", database))
    seen = set()
    out = []
    for row in left:
        if row not in right and row not in seen:
            seen.add(row)
            out.append(row)
    return out, op.output_columns


_HANDLERS = {
    PhysOpKind.TABLE_SCAN: _exec_table_scan,
    PhysOpKind.FILTER: _exec_filter,
    PhysOpKind.COMPUTE_SCALAR: _exec_compute_scalar,
    PhysOpKind.NESTED_LOOPS_JOIN: _exec_nested_loops,
    PhysOpKind.NESTED_APPLY: _exec_nested_apply,
    PhysOpKind.HASH_JOIN: _exec_hash_join,
    PhysOpKind.MERGE_JOIN: _exec_merge_join,
    PhysOpKind.HASH_AGGREGATE: _exec_hash_aggregate,
    PhysOpKind.STREAM_AGGREGATE: _exec_stream_aggregate,
    PhysOpKind.SORT: _exec_sort,
    PhysOpKind.CONCAT: _exec_concat,
    PhysOpKind.HASH_UNION: _exec_hash_union,
    PhysOpKind.HASH_DISTINCT: _exec_hash_distinct,
    PhysOpKind.HASH_INTERSECT: _exec_hash_intersect,
    PhysOpKind.HASH_EXCEPT: _exec_hash_except,
    PhysOpKind.TOP: _exec_top,
}
