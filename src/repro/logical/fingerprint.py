"""Stable structural fingerprints for logical query trees.

A fingerprint is a content hash over the tree's shape and arguments: operator
kinds, join kinds, predicates, projection lists, aggregate calls, sort keys
and limits.  Two trees that are structurally identical -- even when their
:class:`~repro.expr.expressions.Column` objects were bound in different
processes and therefore carry different ``cid`` values -- hash equal, because
column identities are *canonicalized*: every distinct column is replaced by
its first-encounter index in a deterministic pre-order walk.

The hash is a SHA-256 over an unambiguous token stream, so fingerprints are
stable across processes and interpreter invocations (no reliance on
``PYTHONHASHSEED`` or on Python's builtin ``hash``).  This is what makes
``(fingerprint, OptimizerConfig)`` usable as a cache key in
:class:`repro.service.PlanService`, including for its cross-run disk cache.

Fingerprints are defined for plain trees only (children are operators); memo
group expressions contain :class:`GroupRef` placeholders and are rejected.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List

from repro.catalog.schema import DataType
from repro.expr.aggregates import AggregateCall
from repro.expr.expressions import (
    Arithmetic,
    BoolExpr,
    Column,
    ColumnRef,
    Comparison,
    Expr,
    IsNull,
    Literal,
    Not,
)
from repro.logical.operators import (
    Apply,
    Except,
    GbAgg,
    Get,
    GroupRef,
    Intersect,
    Join,
    Limit,
    LogicalOp,
    Project,
    Select,
    Sort,
    Union,
    UnionAll,
)

#: Token-stream separator; cannot occur inside any emitted token because all
#: free-form text (names, literal reprs) is length-prefixed.
_SEP = "\x1f"

#: The ``|type|nullable`` suffix of a column token, per column type facts.
_COLUMN_FACTS = {
    (data_type, nullable): f"|{data_type.value}|{int(nullable)}"
    for data_type in DataType
    for nullable in (False, True)
}


class FingerprintError(ValueError):
    """Raised when a fingerprint is requested for a non-tree (memo) node."""


class _Writer:
    """Accumulates an unambiguous token stream for hashing."""

    def __init__(self) -> None:
        self.tokens: List[str] = []
        self._canonical: Dict[int, int] = {}

    def tag(self, value: str) -> None:
        """A fixed vocabulary token (operator/expression kind, bracket)."""
        self.tokens.append(value)

    def text(self, value: str) -> None:
        """Free-form text, length-prefixed so adjacent tokens cannot merge."""
        self.tokens.append(f"{len(value)}:{value}")

    def column_token(self, column: Column) -> str:
        """A column by canonical first-encounter index plus its type facts."""
        canonical = self._canonical
        index = canonical.get(column.cid)
        if index is None:
            index = canonical[column.cid] = len(canonical)
        return f"c{index}{_COLUMN_FACTS[column.data_type, column.nullable]}"

    def column(self, column: Column) -> None:
        self.tokens.append(self.column_token(column))

    def columns(self, columns: Iterable[Column]) -> None:
        self.tokens.extend(map(self.column_token, columns))

    def digest(self) -> str:
        payload = _SEP.join(self.tokens).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


# ------------------------------------------------------------- expressions


def _emit_expr(expr: Expr, writer: _Writer) -> None:
    if isinstance(expr, ColumnRef):
        writer.tag("ref")
        writer.column(expr.column)
    elif isinstance(expr, Literal):
        writer.tag("lit")
        writer.text(expr.data_type.value)
        writer.text(f"{type(expr.value).__name__}:{expr.value!r}")
    elif isinstance(expr, Comparison):
        writer.tag("cmp")
        writer.text(expr.op.value)
        _emit_expr(expr.left, writer)
        _emit_expr(expr.right, writer)
    elif isinstance(expr, BoolExpr):
        writer.tag("bool")
        writer.text(expr.op.value)
        writer.tag(str(len(expr.args)))
        for arg in expr.args:
            _emit_expr(arg, writer)
    elif isinstance(expr, Not):
        writer.tag("not")
        _emit_expr(expr.arg, writer)
    elif isinstance(expr, IsNull):
        writer.tag("isnull")
        _emit_expr(expr.arg, writer)
    elif isinstance(expr, Arithmetic):
        writer.tag("arith")
        writer.text(expr.op.value)
        _emit_expr(expr.left, writer)
        _emit_expr(expr.right, writer)
    else:
        raise TypeError(f"unknown expression node {type(expr).__name__}")


def _emit_aggregate(call: AggregateCall, writer: _Writer) -> None:
    writer.tag("agg")
    writer.text(call.function.value)
    if call.argument is None:
        writer.tag("*")
    else:
        _emit_expr(call.argument, writer)


# --------------------------------------------------------------- operators


def _emit_op(op: LogicalOp, writer: _Writer) -> None:
    if isinstance(op, GroupRef) or not isinstance(op, LogicalOp):
        raise FingerprintError(
            "fingerprints are defined for plain logical trees only "
            f"(found {op!r})"
        )
    writer.tag("(")
    writer.tag(op.kind.value)

    if isinstance(op, Get):
        writer.text(op.table)
        writer.text(op.alias)
        writer.columns(op.columns)
    elif isinstance(op, Select):
        _emit_expr(op.predicate, writer)
    elif isinstance(op, Project):
        writer.tag(str(len(op.outputs)))
        for column, expr in op.outputs:
            writer.column(column)
            _emit_expr(expr, writer)
    elif isinstance(op, Join):
        writer.text(op.join_kind.value)
        _emit_expr(op.predicate, writer)
    elif isinstance(op, Apply):
        writer.text(op.apply_kind.value)
        _emit_expr(op.predicate, writer)
    elif isinstance(op, GbAgg):
        writer.text(op.phase)
        writer.tag(str(len(op.group_by)))
        writer.columns(op.group_by)
        writer.tag(str(len(op.aggregates)))
        for column, call in op.aggregates:
            writer.column(column)
            _emit_aggregate(call, writer)
    elif isinstance(op, (UnionAll, Union, Intersect, Except)):
        writer.columns(op.output_columns)
        writer.tag("/")
        writer.columns(op.left_columns)
        writer.tag("/")
        writer.columns(op.right_columns)
    elif isinstance(op, Sort):
        writer.tag(str(len(op.keys)))
        for key in op.keys:
            writer.column(key.column)
            writer.tag("a" if key.ascending else "d")
    elif isinstance(op, Limit):
        writer.tag(str(op.count))
    # Distinct carries no arguments beyond its kind.

    for child in op.children:
        _emit_op(child, writer)
    writer.tag(")")


def fingerprint(tree: LogicalOp) -> str:
    """SHA-256 structural fingerprint of ``tree`` (hex string).

    Equal trees (same shape, arguments and column-identity structure) hash
    equal regardless of the absolute ``cid`` values their columns carry;
    any change to an operator kind, join kind, predicate, projection,
    aggregate, column order, sort key or limit changes the hash.
    """
    writer = _Writer()
    _emit_op(tree, writer)
    return writer.digest()
