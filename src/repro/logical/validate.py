"""Structural validation of logical query trees.

The query generators build trees programmatically; this validator catches
construction bugs early (dangling column references, misaligned set-operation
inputs, duplicate column ids in a schema) instead of letting them surface as
confusing optimizer or executor failures.  Every generated query is validated
before being handed to the optimizer.

What each operator reads and outputs comes from its class's declarations
(:mod:`repro.logical.operators`); this module adds only the checks no
declaration states: join inputs that share columns, a ``Get`` bound
against its catalog table, set-operation branches that do not line up,
and an output schema that repeats a column id.
"""

from __future__ import annotations

from typing import Tuple

from repro.catalog.schema import Catalog
from repro.expr.expressions import Column, column_ids
from repro.logical.operators import Apply, Get, Join, LogicalOp, is_set_op


class ValidationError(Exception):
    """Raised when a logical tree is structurally invalid."""


def _compatible(a: Column, b: Column) -> bool:
    return a.data_type is b.data_type or (
        a.data_type.is_numeric and b.data_type.is_numeric
    )


def validate_tree(op: LogicalOp, catalog: Catalog) -> Tuple[Column, ...]:
    """Validate ``op`` recursively; returns its output columns.

    Raises :class:`ValidationError` on the first structural problem.  The
    column references are checked from the operator's own declaration
    (:meth:`~repro.logical.operators.Operator.column_reads`), the same
    one the plan sanitizer's SA301 reads, and the output columns are the
    operator's :meth:`~repro.logical.operators.Operator.result_columns`,
    which must not repeat a column id.
    """
    child_outputs = tuple(
        validate_tree(child, catalog) for child in op.children
    )
    child_ids = tuple(column_ids(columns) for columns in child_outputs)

    if isinstance(op, (Join, Apply)):
        overlap = child_ids[0] & child_ids[1]
        if overlap:
            raise ValidationError(
                f"{op.kind.value}: inputs share column ids {sorted(overlap)}"
            )

    dangling = op.dangling_read(child_ids)
    if dangling is not None:
        read, column = dangling
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
    elif is_set_op(op):
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

    columns = op.result_columns(child_outputs)
    seen = set()
    for column in columns:
        if column.cid in seen:
            raise ValidationError(
                f"{op.kind.value}: duplicate output column id {column.cid}"
            )
        seen.add(column.cid)
    return columns
