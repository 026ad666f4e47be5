"""Expression evaluation with SQL three-valued logic.

:func:`evaluate` interprets an expression against one row given a column
layout (column id -> tuple position).  It is the reference semantics: the
row-at-a-time test oracle (:mod:`repro.testing.reference_executor`)
evaluates with it, and
property-based tests pin the column-wise compiler of the columnar hot path
(:mod:`repro.expr.vector`) to it value for value.

NULL semantics: any arithmetic or comparison with a NULL operand yields NULL
(UNKNOWN for booleans); AND/OR follow Kleene logic; ``IS NULL`` is always
two-valued.  Division by zero yields NULL, keeping evaluation total -- this
mirrors engines configured with ANSI warnings off and keeps randomly
generated queries executable.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.expr.expressions import (
    Arithmetic,
    ArithmeticOp,
    BoolConnective,
    BoolExpr,
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    IsNull,
    Literal,
    Not,
)

#: Maps a column id to its position inside a row tuple.
Layout = Dict[int, int]


def layout_of(columns: Sequence[Column]) -> Layout:
    """Build a :data:`Layout` from an ordered column list."""
    return {column.cid: index for index, column in enumerate(columns)}


_COMPARATORS = {
    ComparisonOp.EQ: lambda a, b: a == b,
    ComparisonOp.NE: lambda a, b: a != b,
    ComparisonOp.LT: lambda a, b: a < b,
    ComparisonOp.LE: lambda a, b: a <= b,
    ComparisonOp.GT: lambda a, b: a > b,
    ComparisonOp.GE: lambda a, b: a >= b,
}


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
