"""Derived logical properties: output schema, keys, non-null columns.

Properties are derived bottom-up per operator.  They drive several rule
preconditions from the paper's discussion:

* unique keys -> `GbAggPullAboveJoin` ("the Group-By must include the joining
  columns" and the other side must contribute at most one match),
  `DistinctRemoveOnKey`, `GbAggRemoveOnKey`;
* non-null columns + null-rejecting predicates -> `LojToJoinOnNullReject`;
* cardinality -> the cost model (see :mod:`repro.logical.cardinality`).

Keys are represented as frozensets of column ids.  An *empty* key means the
relation has at most one row (e.g. a scalar aggregate).  Key inference is
conservative: every reported key is genuinely a key, but not every key is
reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Tuple

from repro.catalog.schema import Catalog
from repro.expr.expressions import (
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    column_ids,
    conjuncts,
    is_nullable,
    referenced_columns,
)
from repro.logical.operators import (
    Distinct,
    GbAgg,
    Get,
    Join,
    JoinKind,
    LogicalOp,
    OpKind,
    Project,
    Select,
)

Key = FrozenSet[int]


@dataclass(frozen=True)
class LogicalProps:
    """Logical properties of one relational expression."""

    columns: Tuple[Column, ...]
    keys: FrozenSet[Key] = frozenset()
    non_null: FrozenSet[Column] = field(default_factory=frozenset)

    @cached_property
    def column_ids(self) -> FrozenSet[int]:
        # Cached: preconditions ask for it far more often than groups exist.
        return column_ids(self.columns)

    def has_key(self, column_ids: FrozenSet[int]) -> bool:
        """Is some reported key a subset of ``column_ids``?"""
        return any(key <= column_ids for key in self.keys)

    @property
    def at_most_one_row(self) -> bool:
        return frozenset() in self.keys


def _prune_keys(keys) -> FrozenSet[Key]:
    """Drop keys that are supersets of other keys (keep minimal ones)."""
    keys = set(keys)
    minimal = set()
    for key in sorted(keys, key=len):
        if not any(other < key for other in minimal):
            minimal.add(key)
    return frozenset(minimal)


def equijoin_pairs(predicate: Expr) -> Tuple[Tuple[Column, Column], ...]:
    """Extract ``left_col = right_col`` equality conjuncts from a predicate.

    Non-equality conjuncts are ignored; callers that need a *pure* equijoin
    should also check :func:`is_pure_equijoin`.
    """
    pairs = []
    for conjunct in conjuncts(predicate):
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op is ComparisonOp.EQ
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            pairs.append((conjunct.left.column, conjunct.right.column))
    return tuple(pairs)


def is_pure_equijoin(predicate: Expr, left_ids, right_ids) -> bool:
    """True if every conjunct is a column=column equality across the sides."""
    for conjunct in conjuncts(predicate):
        if not (
            isinstance(conjunct, Comparison)
            and conjunct.op is ComparisonOp.EQ
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            return False
        a = conjunct.left.column.cid
        b = conjunct.right.column.cid
        across = (a in left_ids and b in right_ids) or (
            a in right_ids and b in left_ids
        )
        if not across:
            return False
    return True


class PropertyDeriver:
    """Bottom-up derivation of :class:`LogicalProps` for operator nodes.

    ``derive(op, child_props)`` is the single-step form used inside the
    memo (children's properties already known); :meth:`derive_tree` recurses
    over a full logical tree.  The output columns are the operator's own
    ``result_columns``; the per-kind handlers derive keys and non-null
    columns.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # -------------------------------------------------------------- tree mode

    def derive_tree(self, op: LogicalOp) -> LogicalProps:
        child_props = tuple(
            self.derive_tree(child) for child in op.children
        )
        return self.derive(op, child_props)

    # -------------------------------------------------------------- dispatch

    def derive(
        self, op: LogicalOp, child_props: Tuple[LogicalProps, ...]
    ) -> LogicalProps:
        columns = op.result_columns([props.columns for props in child_props])
        return self._HANDLERS[op.kind](self, op, child_props, columns)

    # -------------------------------------------------------------- per-op

    def _derive_get(self, op: Get, child_props, columns) -> LogicalProps:
        table = self.catalog.table(op.table)
        by_name: Dict[str, Column] = {
            column.name: column for column in op.columns
        }
        keys = set()
        for key in table.all_keys():
            keys.add(frozenset(by_name[name].cid for name in key))
        non_null = frozenset(
            by_name[column.name]
            for column in table.columns
            if not column.nullable
        )
        return LogicalProps(
            columns=columns, keys=_prune_keys(keys), non_null=non_null
        )

    def _derive_select(self, op: Select, child_props, columns) -> LogicalProps:
        (child,) = child_props
        # An equality with a constant on a key column caps output at one row.
        keys = set(child.keys)
        single_valued = self._constant_bound_columns(op.predicate)
        if single_valued:
            for key in child.keys:
                reduced = key - single_valued
                keys.add(reduced)
        return LogicalProps(
            columns=columns,
            keys=_prune_keys(keys),
            non_null=child.non_null | self._null_rejected(op.predicate, child),
        )

    @staticmethod
    def _constant_bound_columns(predicate: Expr) -> FrozenSet[int]:
        """Columns equated with a literal by some conjunct."""
        bound = set()
        for conjunct in conjuncts(predicate):
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op is ComparisonOp.EQ
            ):
                left, right = conjunct.left, conjunct.right
                if isinstance(left, ColumnRef) and not referenced_columns(right):
                    bound.add(left.column.cid)
                elif isinstance(right, ColumnRef) and not referenced_columns(left):
                    bound.add(right.column.cid)
        return frozenset(bound)

    @staticmethod
    def _null_rejected(predicate: Expr, child: LogicalProps) -> FrozenSet[Column]:
        """Columns that survive the filter only when non-NULL.

        A strict comparison conjunct referencing a column guarantees the
        column is non-NULL in every surviving row.
        """
        by_id = {column.cid: column for column in child.columns}
        rejected = set()
        for conjunct in conjuncts(predicate):
            if isinstance(conjunct, Comparison):
                for column in referenced_columns(conjunct):
                    if column.cid in by_id:
                        rejected.add(by_id[column.cid])
        return frozenset(rejected)

    def _derive_project(self, op: Project, child_props, columns) -> LogicalProps:
        (child,) = child_props
        # An output that is a plain column reference -- a pass-through or a
        # rename -- inherits the source column's key membership; computed
        # outputs inherit nothing.
        image: Dict[int, Column] = {}
        for column, expr in op.outputs:
            if isinstance(expr, ColumnRef):
                image.setdefault(expr.column.cid, column)
        keys = set()
        for key in child.keys:
            if all(cid in image for cid in key):
                keys.add(frozenset(image[cid].cid for cid in key))
        non_null = frozenset(
            column
            for column, expr in op.outputs
            if not is_nullable(expr, child.non_null)
        )
        return LogicalProps(
            columns=columns, keys=_prune_keys(keys), non_null=non_null
        )

    def _derive_join(self, op: Join, child_props, columns) -> LogicalProps:
        left, right = child_props
        kind = op.join_kind
        if kind is JoinKind.SEMI:
            # A surviving left row witnessed a TRUE predicate, so strict
            # comparisons in it guarantee left-side columns are non-NULL.
            return LogicalProps(
                columns=columns,
                keys=left.keys,
                non_null=left.non_null
                | self._null_rejected(op.predicate, left),
            )
        if kind is JoinKind.ANTI:
            # Anti-joined rows survive because the predicate *failed*; it
            # guarantees nothing about their columns.
            return LogicalProps(
                columns=columns, keys=left.keys, non_null=left.non_null
            )
        keys = set()
        pairs = equijoin_pairs(op.predicate)
        left_ids = left.column_ids
        right_ids = right.column_ids
        # N:1 joins preserve the left side's keys (and symmetrically).
        right_join_cols = frozenset(
            (b if b.cid in right_ids else a).cid for a, b in pairs
        )
        left_join_cols = frozenset(
            (a if a.cid in left_ids else b).cid for a, b in pairs
        )
        right_unique = pairs and right.has_key(right_join_cols)
        left_unique = pairs and left.has_key(left_join_cols)
        if right_unique:
            keys.update(left.keys)
        if left_unique and kind is not JoinKind.LEFT_OUTER:
            keys.update(right.keys)
        # Combined keys always hold for inner/cross/outer joins.
        for lkey in left.keys:
            for rkey in right.keys:
                keys.add(lkey | rkey)
        if kind is JoinKind.LEFT_OUTER:
            # Right side may be NULL-extended, and preserved left rows need
            # not satisfy the predicate, so it contributes nothing.
            non_null = left.non_null
        else:
            # Inner/cross joins only emit rows where the predicate held, so
            # its strict comparisons null-reject columns on both sides.
            non_null = (
                left.non_null
                | right.non_null
                | self._null_rejected(op.predicate, left)
                | self._null_rejected(op.predicate, right)
            )
        return LogicalProps(
            columns=columns, keys=_prune_keys(keys), non_null=non_null
        )

    def _derive_apply(self, op, child_props, columns) -> LogicalProps:
        """Apply[SEMI/ANTI] derives exactly like the matching semi/anti
        join: output is the left side, and only a SEMI apply's predicate
        null-rejects surviving left columns."""
        left, _right = child_props
        if op.apply_kind is JoinKind.SEMI:
            return LogicalProps(
                columns=columns,
                keys=left.keys,
                non_null=left.non_null
                | self._null_rejected(op.predicate, left),
            )
        return LogicalProps(
            columns=columns, keys=left.keys, non_null=left.non_null
        )

    def _derive_gbagg(self, op: GbAgg, child_props, columns) -> LogicalProps:
        (child,) = child_props
        keys = {frozenset(column.cid for column in op.group_by)}
        non_null = {
            column
            for column in op.group_by
            if column in child.non_null
        }
        for column, call in op.aggregates:
            if not call.result_nullable():
                non_null.add(column)
            elif op.group_by and call.argument is not None and not is_nullable(
                call.argument, child.non_null
            ):
                # With grouping columns, every emitted group has at least one
                # row; SUM/MIN/MAX/AVG over a never-NULL argument cannot
                # return NULL.  (Scalar aggregates can: the input may be
                # empty.)
                non_null.add(column)
        return LogicalProps(
            columns=columns,
            keys=_prune_keys(keys),
            non_null=frozenset(non_null),
        )

    def _derive_setop(self, op, child_props, columns) -> LogicalProps:
        left, right = child_props
        remap_left = dict(zip(op.left_columns, columns))
        non_null = set()
        if op.kind in (OpKind.UNION_ALL, OpKind.UNION):
            remap_right = dict(zip(op.right_columns, columns))
            left_nn = {remap_left[c] for c in left.non_null if c in remap_left}
            right_nn = {
                remap_right[c] for c in right.non_null if c in remap_right
            }
            non_null = left_nn & right_nn
        else:
            # INTERSECT / EXCEPT output rows come from the left input.
            non_null = {
                remap_left[c] for c in left.non_null if c in remap_left
            }
        keys = set()
        if op.kind in (OpKind.UNION, OpKind.INTERSECT, OpKind.EXCEPT):
            keys.add(column_ids(columns))
        return LogicalProps(
            columns=columns,
            keys=_prune_keys(keys),
            non_null=frozenset(non_null),
        )

    def _derive_distinct(
        self, op: Distinct, child_props, columns
    ) -> LogicalProps:
        (child,) = child_props
        keys = set(child.keys)
        keys.add(child.column_ids)
        return LogicalProps(
            columns=columns,
            keys=_prune_keys(keys),
            non_null=child.non_null,
        )

    def _derive_passthrough(self, op, child_props, columns) -> LogicalProps:
        (child,) = child_props
        return child

    _HANDLERS = {
        OpKind.GET: _derive_get,
        OpKind.SELECT: _derive_select,
        OpKind.PROJECT: _derive_project,
        OpKind.JOIN: _derive_join,
        OpKind.APPLY: _derive_apply,
        OpKind.GB_AGG: _derive_gbagg,
        OpKind.UNION_ALL: _derive_setop,
        OpKind.UNION: _derive_setop,
        OpKind.INTERSECT: _derive_setop,
        OpKind.EXCEPT: _derive_setop,
        OpKind.DISTINCT: _derive_distinct,
        OpKind.SORT: _derive_passthrough,
        OpKind.LIMIT: _derive_passthrough,
    }
