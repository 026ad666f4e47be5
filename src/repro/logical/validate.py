"""Structural validation of logical query trees.

The query generators build trees programmatically; this validator catches
construction bugs early (dangling column references, misaligned set-operation
inputs, duplicate column ids in a schema) instead of letting them surface as
confusing optimizer or executor failures.  Every generated query is validated
before being handed to the optimizer.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Tuple

from repro.catalog.schema import Catalog
from repro.expr.expressions import Column
from repro.logical.operators import (
    Apply,
    GbAgg,
    Get,
    Join,
    JoinKind,
    LogicalOp,
    Project,
    is_set_op,
)


class ValidationError(Exception):
    """Raised when a logical tree is structurally invalid."""


def _ids(columns: Iterable[Column]) -> FrozenSet[int]:
    return frozenset(column.cid for column in columns)


def _check_fresh(
    op: LogicalOp, passed: Tuple[Column, ...], defined: Iterable[Column]
) -> None:
    """The columns ``op`` defines must not repeat one another, nor the
    columns it passes through from its input."""
    seen = {column.cid for column in passed}
    for column in defined:
        if column.cid in seen:
            raise ValidationError(
                f"{op.kind.value}: duplicate output column id {column.cid}"
            )
        seen.add(column.cid)


def _compatible(a: Column, b: Column) -> bool:
    return a.data_type is b.data_type or (
        a.data_type.is_numeric and b.data_type.is_numeric
    )


def validate_tree(op: LogicalOp, catalog: Catalog) -> Tuple[Column, ...]:
    """Validate ``op`` recursively; returns its output columns.

    Raises :class:`ValidationError` on the first structural problem.  The
    column references are checked from the operator's own declaration
    (:meth:`~repro.logical.operators.LogicalOp.column_reads`), the same
    one the plan sanitizer's SA301 reads.
    """
    child_outputs = tuple(
        validate_tree(child, catalog) for child in op.children
    )
    child_ids = tuple(_ids(columns) for columns in child_outputs)

    if isinstance(op, (Join, Apply)):
        overlap = child_ids[0] & child_ids[1]
        if overlap:
            raise ValidationError(
                f"{op.kind.value}: inputs share column ids {sorted(overlap)}"
            )

    for read in op.column_reads():
        visible = read.visible(child_ids)
        for column in read.columns:
            if column.cid not in visible:
                raise ValidationError(read.missing(column))

    if isinstance(op, Get):
        table = catalog.table(op.table)
        if len(op.columns) != len(table.columns):
            raise ValidationError(
                f"Get({op.table}): bound {len(op.columns)} columns, table "
                f"has {len(table.columns)}"
            )
        for bound, defined in zip(op.columns, table.columns):
            if bound.name != defined.name:
                raise ValidationError(
                    f"Get({op.table}): bound column {bound.name!r} does not "
                    f"match table column {defined.name!r}"
                )
        return op.columns
    if isinstance(op, Project):
        _check_fresh(op, (), op.output_columns)
        return op.output_columns
    if isinstance(op, GbAgg):
        _check_fresh(op, op.group_by, (column for column, _ in op.aggregates))
        return op.output_columns
    if isinstance(op, Join):
        left, right = child_outputs
        if op.join_kind in (JoinKind.SEMI, JoinKind.ANTI):
            return left
        return left + right
    if is_set_op(op):
        widths = {
            len(op.output_columns),
            len(op.left_columns),
            len(op.right_columns),
        }
        if len(widths) != 1:
            raise ValidationError(f"{op.kind.value}: column count mismatch")
        for out, lcol, rcol in zip(
            op.output_columns, op.left_columns, op.right_columns
        ):
            if not _compatible(out, lcol):
                raise ValidationError(
                    f"{op.kind.value}: output {out.name} type mismatch with "
                    "left input"
                )
            if not _compatible(lcol, rcol):
                raise ValidationError(
                    f"{op.kind.value}: branch types not union-compatible for "
                    f"{out.name}"
                )
        return op.output_columns
    # Select, Apply, Sort, Distinct and Limit pass their (left) input's
    # columns through.
    return child_outputs[0]
