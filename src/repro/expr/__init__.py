"""Scalar expressions, aggregate calls and the column-wise evaluator.

The engine evaluates expressions only through :mod:`repro.expr.vector`.
The row-at-a-time reference semantics (``evaluate``, ``Accumulator``) are
a test oracle and live in :mod:`repro.testing.reference_executor`.
"""

from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import (
    FALSE,
    TRUE,
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
    conjunction,
    conjuncts,
    expression_type,
    is_null_rejecting,
    is_nullable,
    referenced_columns,
    substitute_columns,
)
from repro.expr.vector import layout_of

__all__ = [
    "AggregateCall",
    "AggregateFunction",
    "Arithmetic",
    "ArithmeticOp",
    "BoolConnective",
    "BoolExpr",
    "Column",
    "ColumnRef",
    "Comparison",
    "ComparisonOp",
    "Expr",
    "FALSE",
    "IsNull",
    "Literal",
    "Not",
    "TRUE",
    "conjunction",
    "conjuncts",
    "expression_type",
    "is_null_rejecting",
    "is_nullable",
    "layout_of",
    "referenced_columns",
    "substitute_columns",
]
