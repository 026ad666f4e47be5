"""Physical operators.

Physical operators are the executable counterparts of the logical algebra.
Like logical operators they are immutable and may hold either concrete
children (an executable plan tree) or :class:`GroupRef` placeholders (inside
the memo during cost-based implementation).

They make the logical operators' declarations (:class:`Operator`):
``child_fields`` names the inputs, from which ``children`` and
``with_children`` follow; ``column_reads()`` says which columns each
argument reads from which input; ``result_columns(inputs)`` gives the
columns the operator outputs.  The plan sanitizer checks extracted plans
against these declarations alone.

Each operator documents the *ordering* it provides/preserves -- the physical
property the optimizer tracks (with ``Sort`` as the enforcer), which is what
makes merge joins and stream aggregates competitive exactly when an order is
already available.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, replace
from typing import Tuple

from repro.expr.aggregates import AggregateCall
from repro.expr.expressions import TRUE, Column, Expr, referenced_columns
from repro.logical.operators import (
    Binary,
    ColumnRead,
    JoinKind,
    Operator,
    SortKey,
    Unary,
)


class PhysOpKind(enum.Enum):
    TABLE_SCAN = "TableScan"
    FILTER = "Filter"
    COMPUTE_SCALAR = "ComputeScalar"
    NESTED_LOOPS_JOIN = "NestedLoopsJoin"
    NESTED_APPLY = "NestedApply"
    HASH_JOIN = "HashJoin"
    MERGE_JOIN = "MergeJoin"
    HASH_AGGREGATE = "HashAggregate"
    STREAM_AGGREGATE = "StreamAggregate"
    SORT = "PhysicalSort"
    CONCAT = "Concat"
    HASH_UNION = "HashUnion"
    HASH_DISTINCT = "HashDistinct"
    HASH_INTERSECT = "HashIntersect"
    HASH_EXCEPT = "HashExcept"
    TOP = "Top"


#: An ordering is a tuple of (column id, ascending) pairs; ``()`` means none.
Ordering = Tuple[Tuple[int, bool], ...]


def ordering_satisfies(provided: Ordering, required: Ordering) -> bool:
    """Does ``provided`` satisfy ``required``?  (prefix containment)"""
    if len(provided) < len(required):
        return False
    return provided[: len(required)] == required


def ordering_of_keys(keys: Tuple[SortKey, ...]) -> Ordering:
    return tuple((key.column.cid, key.ascending) for key in keys)


#: How :meth:`ColumnRead.missing` words a column a plan node's input does
#: not produce.
_NOT_PRODUCED = (
    "{label} references column {column.qualified_name}#{column.cid}, which "
    "its input does not produce"
)


def _read(label: str, columns, inputs: Tuple[int, ...]) -> ColumnRead:
    return ColumnRead(label, columns, inputs, _NOT_PRODUCED)


class PhysicalOp(Operator):
    """Base class for physical operators."""

    __slots__ = ()
    kind: PhysOpKind

    def with_children(self, children: Tuple) -> "PhysicalOp":
        """The operator over new inputs, one per ``child_fields`` entry."""
        if len(children) != len(self.child_fields):
            raise ValueError(
                f"{self.kind.value} takes {len(self.child_fields)} "
                f"input(s), got {len(children)}"
            )
        if not children:
            return self
        return replace(self, **dict(zip(self.child_fields, children)))

    def required_child_orderings(self) -> Tuple[Ordering, ...]:
        """Ordering this operator requires from each child."""
        return tuple(() for _ in self.children)

    def provided_ordering(self, child_orderings: Tuple[Ordering, ...]) -> Ordering:
        """Ordering this operator's output has, given its children's."""
        return ()


@dataclass(frozen=True)
class TableScan(PhysicalOp):
    table: str
    columns: Tuple[Column, ...]
    alias: str

    kind = PhysOpKind.TABLE_SCAN

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return ()

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        return self.columns

    def describe(self) -> str:
        return f"TableScan({self.table})"


@dataclass(frozen=True)
class Filter(Unary, PhysicalOp):
    child: object
    predicate: Expr

    kind = PhysOpKind.FILTER

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return (_read("predicate", referenced_columns(self.predicate), (0,)),)

    def provided_ordering(self, child_orderings):
        return child_orderings[0]

    def describe(self) -> str:
        return f"Filter({self.predicate})"


@dataclass(frozen=True)
class ComputeScalar(Unary, PhysicalOp):
    child: object
    outputs: Tuple[Tuple[Column, Expr], ...]

    kind = PhysOpKind.COMPUTE_SCALAR

    @property
    def output_columns(self) -> Tuple[Column, ...]:
        return tuple(column for column, _ in self.outputs)

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return tuple(
            _read("output expression", referenced_columns(expr), (0,))
            for _, expr in self.outputs
        )

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        return self.output_columns

    def provided_ordering(self, child_orderings):
        # Ordering survives if the ordering columns pass through unchanged.
        passthrough = {
            expr.column.cid
            for column, expr in self.outputs
            if hasattr(expr, "column") and expr.column.cid == column.cid
        }
        provided = []
        for cid, ascending in child_orderings[0]:
            if cid in passthrough:
                provided.append((cid, ascending))
            else:
                break
        return tuple(provided)

    def describe(self) -> str:
        items = ", ".join(f"{col.name}" for col, _ in self.outputs)
        return f"ComputeScalar({items})"


@dataclass(frozen=True)
class NestedLoopsJoin(Binary, PhysicalOp):
    """Tuple-at-a-time join; handles any predicate and every join kind."""

    join_kind: JoinKind
    left: object
    right: object
    predicate: Expr = TRUE

    kind = PhysOpKind.NESTED_LOOPS_JOIN

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return (_read("predicate", referenced_columns(self.predicate), (0, 1)),)

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        return self.join_kind.result_columns(*inputs)

    def provided_ordering(self, child_orderings):
        return child_orderings[0]  # preserves outer order

    def describe(self) -> str:
        return f"NestedLoopsJoin[{self.join_kind.value}]({self.predicate})"


@dataclass(frozen=True)
class NestedApply(Binary, PhysicalOp):
    """Naive correlated-subquery execution: re-run the inner side per outer
    row, emitting the outer row when a match exists (SEMI) or when none
    does (ANTI).  Deliberately priced above an equivalent nested-loops
    join, so unnesting an Apply measurably pays off."""

    apply_kind: JoinKind
    left: object
    right: object
    predicate: Expr = TRUE

    kind = PhysOpKind.NESTED_APPLY

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return (_read("predicate", referenced_columns(self.predicate), (0, 1)),)

    def provided_ordering(self, child_orderings):
        return child_orderings[0]  # preserves outer order

    def describe(self) -> str:
        return f"NestedApply[{self.apply_kind.value}]({self.predicate})"


class _EquiJoin(Binary, PhysicalOp):
    """What the equi-joins share: ``left_keys`` / ``right_keys`` are the
    equi-join columns of each input; ``residual`` is the non-equality
    remainder of the predicate (applied to joined rows)."""

    __slots__ = ()

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return (
            _read("left keys", self.left_keys, (0,)),
            _read("right keys", self.right_keys, (1,)),
            _read("residual", referenced_columns(self.residual), (0, 1)),
        )

    def _key_pairs(self) -> str:
        return ", ".join(
            f"{l.name}={r.name}" for l, r in zip(self.left_keys, self.right_keys)
        )


@dataclass(frozen=True)
class HashJoin(_EquiJoin):
    """Equi-join by hashing the right (build) side."""

    join_kind: JoinKind
    left: object
    right: object
    left_keys: Tuple[Column, ...]
    right_keys: Tuple[Column, ...]
    residual: Expr = TRUE

    kind = PhysOpKind.HASH_JOIN

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        return self.join_kind.result_columns(*inputs)

    def describe(self) -> str:
        keys = self._key_pairs()
        if self.residual != TRUE:
            return (
                f"HashJoin[{self.join_kind.value}]({keys}; "
                f"residual: {self.residual})"
            )
        return f"HashJoin[{self.join_kind.value}]({keys})"


@dataclass(frozen=True)
class MergeJoin(_EquiJoin):
    """Inner equi-join over inputs sorted on the join keys."""

    left: object
    right: object
    left_keys: Tuple[Column, ...]
    right_keys: Tuple[Column, ...]
    residual: Expr = TRUE

    kind = PhysOpKind.MERGE_JOIN

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        left, right = inputs
        return left + right

    def required_child_orderings(self) -> Tuple[Ordering, ...]:
        left = tuple((column.cid, True) for column in self.left_keys)
        right = tuple((column.cid, True) for column in self.right_keys)
        return (left, right)

    def provided_ordering(self, child_orderings):
        return tuple((column.cid, True) for column in self.left_keys)

    def describe(self) -> str:
        return f"MergeJoin({self._key_pairs()})"


@dataclass(frozen=True)
class _Aggregate(Unary, PhysicalOp):
    child: object
    group_by: Tuple[Column, ...]
    aggregates: Tuple[Tuple[Column, AggregateCall], ...]

    @property
    def output_columns(self) -> Tuple[Column, ...]:
        return self.group_by + tuple(col for col, _ in self.aggregates)

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return (_read("grouping", self.group_by, (0,)),) + tuple(
            _read("aggregate argument", referenced_columns(call.argument), (0,))
            for _, call in self.aggregates
            if call.argument is not None
        )

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        return self.output_columns

    def describe(self) -> str:
        groups = ", ".join(column.name for column in self.group_by)
        return f"{self.kind.value}([{groups}])"


@dataclass(frozen=True)
class HashAggregate(_Aggregate):
    kind = PhysOpKind.HASH_AGGREGATE


@dataclass(frozen=True)
class StreamAggregate(_Aggregate):
    """Aggregate over input sorted by the grouping columns."""

    kind = PhysOpKind.STREAM_AGGREGATE

    def required_child_orderings(self) -> Tuple[Ordering, ...]:
        ordering = tuple(
            (column.cid, True)
            for column in sorted(self.group_by, key=lambda c: c.cid)
        )
        return (ordering,)

    def provided_ordering(self, child_orderings):
        return self.required_child_orderings()[0]


@dataclass(frozen=True)
class Sort(Unary, PhysicalOp):
    """The ordering enforcer (also implements logical Sort)."""

    child: object
    keys: Tuple[SortKey, ...]

    kind = PhysOpKind.SORT

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return (_read("sort key", tuple(key.column for key in self.keys), (0,)),)

    def provided_ordering(self, child_orderings):
        return ordering_of_keys(self.keys)

    def describe(self) -> str:
        return f"Sort({', '.join(str(key) for key in self.keys)})"


@dataclass(frozen=True)
class _SetOpPhysical(Binary, PhysicalOp):
    left: object
    right: object
    output_columns: Tuple[Column, ...]
    left_columns: Tuple[Column, ...]
    right_columns: Tuple[Column, ...]

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return (
            _read("left input columns", self.left_columns, (0,)),
            _read("right input columns", self.right_columns, (1,)),
        )

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        return self.output_columns


@dataclass(frozen=True)
class Concat(_SetOpPhysical):
    """UNION ALL: stream the left input, then the right."""

    kind = PhysOpKind.CONCAT


@dataclass(frozen=True)
class HashUnion(_SetOpPhysical):
    """UNION (distinct) via a hash table over both inputs."""

    kind = PhysOpKind.HASH_UNION


@dataclass(frozen=True)
class HashIntersect(_SetOpPhysical):
    kind = PhysOpKind.HASH_INTERSECT


@dataclass(frozen=True)
class HashExcept(_SetOpPhysical):
    kind = PhysOpKind.HASH_EXCEPT


@dataclass(frozen=True)
class HashDistinct(Unary, PhysicalOp):
    child: object

    kind = PhysOpKind.HASH_DISTINCT

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return ()


@dataclass(frozen=True)
class Top(Unary, PhysicalOp):
    """Return the first ``count`` rows of the child."""

    child: object
    count: int

    kind = PhysOpKind.TOP

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return ()

    def provided_ordering(self, child_orderings):
        return child_orderings[0]

    def describe(self) -> str:
        return f"Top({self.count})"


def plan_signature(op: PhysicalOp) -> str:
    """Short structural fingerprint of a physical plan.

    Physical operators are frozen dataclasses whose ``repr`` is fully
    structural (children, predicates, keys), so hashing the repr gives a
    stable identity within one process (the repr embeds column ``cid``
    values, which are process-local).  Used to key execution result
    caches, coalesce identical executions inside a batch, and annotate
    executor trace spans.

    Computed on first use and kept on the plan's root, which is frozen and
    therefore cannot change under the stored value; it is no dataclass
    field, so ``==``, ``hash`` and ``repr`` never see it.
    """
    try:
        return op._signature
    except AttributeError:
        digest = hashlib.sha256(repr(op).encode("utf-8")).hexdigest()[:16]
        object.__setattr__(op, "_signature", digest)
        return digest
