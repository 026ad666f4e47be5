"""Column-wise expression evaluation: the engine's one scalar evaluator.

:func:`compile_expr_vector` compiles an expression to operate on whole
columns at once: a compiled expression is a closure
``(columns, n) -> column`` where ``columns`` is the operator input as a
struct-of-arrays (one Python list per column, all of length ``n``) and the
result is a list of ``n`` values.  Semantics are SQL three-valued logic,
NULL-propagating comparisons and arithmetic, division by zero yielding
NULL.  The row interpreter ``evaluate`` in
:mod:`repro.testing.reference_executor` is the test oracle for these
semantics: property-based tests plus the executor differential suite
assert the two agree.

Evaluator outputs are read-only by convention: a ``ColumnRef`` returns the
*input column list itself* (no copy), so callers must never mutate a
returned column.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

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

#: Maps a column id to its position inside a row tuple or column list.
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

#: A compiled vector expression: ``(columns, n) -> column of n values``.
VectorCompiled = Callable[[Sequence[list], int], list]


def compile_expr_vector(expr: Expr, layout: Layout) -> VectorCompiled:
    """Compile ``expr`` into a column-wise evaluator over ``layout``."""
    if isinstance(expr, ColumnRef):
        index = layout[expr.column.cid]
        return lambda cols, n: cols[index]
    if isinstance(expr, Literal):
        value = expr.value
        return lambda cols, n: [value] * n
    if isinstance(expr, Comparison):
        # Against a non-NULL literal (the common filter) one comprehension
        # per operator: no literal column, no comparator call per row.
        # ``v op e`` is ``e flipped(op) v``.
        for operand, literal, op in (
            (expr.left, expr.right, expr.op),
            (expr.right, expr.left, expr.op.flipped()),
        ):
            if isinstance(literal, Literal) and literal.value is not None:
                return _compare_with_literal(
                    op, compile_expr_vector(operand, layout), literal.value
                )
        left = compile_expr_vector(expr.left, layout)
        right = compile_expr_vector(expr.right, layout)
        compare = _COMPARATORS[expr.op]

        def _compare(cols, n):
            return [
                None if a is None or b is None else compare(a, b)
                for a, b in zip(left(cols, n), right(cols, n))
            ]

        return _compare
    if isinstance(expr, BoolExpr):
        parts = [compile_expr_vector(arg, layout) for arg in expr.args]
        if expr.op is BoolConnective.AND:

            def _and(cols, n):
                out = parts[0](cols, n)
                for part in parts[1:]:
                    out = [
                        False
                        if a is False or b is False
                        else (None if a is None or b is None else True)
                        for a, b in zip(out, part(cols, n))
                    ]
                return out

            return _and

        def _or(cols, n):
            out = parts[0](cols, n)
            for part in parts[1:]:
                out = [
                    True
                    if a is True or b is True
                    else (None if a is None or b is None else False)
                    for a, b in zip(out, part(cols, n))
                ]
            return out

        return _or
    if isinstance(expr, Not):
        arg = compile_expr_vector(expr.arg, layout)

        def _not(cols, n):
            return [None if v is None else not v for v in arg(cols, n)]

        return _not
    if isinstance(expr, IsNull):
        arg = compile_expr_vector(expr.arg, layout)
        return lambda cols, n: [v is None for v in arg(cols, n)]
    if isinstance(expr, Arithmetic):
        left = compile_expr_vector(expr.left, layout)
        right = compile_expr_vector(expr.right, layout)
        op = expr.op
        if op is ArithmeticOp.ADD:
            combine = lambda a, b: a + b  # noqa: E731
        elif op is ArithmeticOp.SUB:
            combine = lambda a, b: a - b  # noqa: E731
        elif op is ArithmeticOp.MUL:
            combine = lambda a, b: a * b  # noqa: E731
        else:

            def _arith_div(cols, n):
                return [
                    None if a is None or b is None or b == 0 else a / b
                    for a, b in zip(left(cols, n), right(cols, n))
                ]

            return _arith_div

        def _arith(cols, n):
            return [
                None if a is None or b is None else combine(a, b)
                for a, b in zip(left(cols, n), right(cols, n))
            ]

        return _arith
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _compare_with_literal(
    op: ComparisonOp, operand: VectorCompiled, v
) -> VectorCompiled:
    """``operand op v`` for a literal ``v`` that is not NULL."""
    if op is ComparisonOp.EQ:
        return lambda cols, n: [
            None if a is None else a == v for a in operand(cols, n)
        ]
    if op is ComparisonOp.NE:
        return lambda cols, n: [
            None if a is None else a != v for a in operand(cols, n)
        ]
    if op is ComparisonOp.LT:
        return lambda cols, n: [
            None if a is None else a < v for a in operand(cols, n)
        ]
    if op is ComparisonOp.LE:
        return lambda cols, n: [
            None if a is None else a <= v for a in operand(cols, n)
        ]
    if op is ComparisonOp.GT:
        return lambda cols, n: [
            None if a is None else a > v for a in operand(cols, n)
        ]
    return lambda cols, n: [
        None if a is None else a >= v for a in operand(cols, n)
    ]


def compile_selection_vector(
    expr: Expr, layout: Layout
) -> Callable[[Sequence[list], int], List[int]]:
    """Compile a predicate into a selection builder.

    Returns the indices of rows where the predicate is TRUE (UNKNOWN
    counts as False).
    """
    compiled = compile_expr_vector(expr, layout)

    def _select(cols, n):
        return [i for i, v in enumerate(compiled(cols, n)) if v is True]

    return _select
