"""Physical operators.

Physical operators are the executable counterparts of the logical algebra.
Like logical operators they are immutable and may hold either concrete
children (an executable plan tree) or :class:`GroupRef` placeholders (inside
the memo during cost-based implementation).

Each operator documents the *ordering* it provides/preserves -- the physical
property the optimizer tracks (with ``Sort`` as the enforcer), which is what
makes merge joins and stream aggregates competitive exactly when an order is
already available.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.expr.aggregates import AggregateCall
from repro.expr.expressions import TRUE, Column, Expr
from repro.logical.operators import JoinKind, SortKey


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


class PhysicalOp:
    """Base class for physical operators."""

    __slots__ = ()
    kind: PhysOpKind

    @property
    def children(self) -> Tuple:
        raise NotImplementedError

    def with_children(self, children: Tuple) -> "PhysicalOp":
        raise NotImplementedError

    def walk(self) -> Iterator["PhysicalOp"]:
        yield self
        for child in self.children:
            if isinstance(child, PhysicalOp):
                yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [pad + self.describe()]
        for child in self.children:
            if isinstance(child, PhysicalOp):
                lines.append(child.pretty(indent + 1))
            else:
                lines.append("  " * (indent + 1) + repr(child))
        return "\n".join(lines)

    def describe(self) -> str:
        return self.kind.value

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

    @property
    def children(self) -> Tuple:
        return ()

    def with_children(self, children: Tuple) -> "TableScan":
        if children:
            raise ValueError("TableScan is a leaf")
        return self

    def describe(self) -> str:
        return f"TableScan({self.table})"


@dataclass(frozen=True)
class Filter(PhysicalOp):
    child: object
    predicate: Expr

    kind = PhysOpKind.FILTER

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "Filter":
        (child,) = children
        return Filter(child, self.predicate)

    def provided_ordering(self, child_orderings):
        return child_orderings[0]

    def describe(self) -> str:
        return f"Filter({self.predicate})"


@dataclass(frozen=True)
class ComputeScalar(PhysicalOp):
    child: object
    outputs: Tuple[Tuple[Column, Expr], ...]

    kind = PhysOpKind.COMPUTE_SCALAR

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "ComputeScalar":
        (child,) = children
        return ComputeScalar(child, self.outputs)

    @property
    def output_columns(self) -> Tuple[Column, ...]:
        return tuple(column for column, _ in self.outputs)

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
class NestedLoopsJoin(PhysicalOp):
    """Tuple-at-a-time join; handles any predicate and every join kind."""

    join_kind: JoinKind
    left: object
    right: object
    predicate: Expr = TRUE

    kind = PhysOpKind.NESTED_LOOPS_JOIN

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)

    def with_children(self, children: Tuple) -> "NestedLoopsJoin":
        left, right = children
        return NestedLoopsJoin(self.join_kind, left, right, self.predicate)

    def provided_ordering(self, child_orderings):
        return child_orderings[0]  # preserves outer order

    def describe(self) -> str:
        return f"NestedLoopsJoin[{self.join_kind.value}]({self.predicate})"


@dataclass(frozen=True)
class NestedApply(PhysicalOp):
    """Naive correlated-subquery execution: re-run the inner side per outer
    row, emitting the outer row when a match exists (SEMI) or when none
    does (ANTI).  Deliberately priced above an equivalent nested-loops
    join, so unnesting an Apply measurably pays off."""

    apply_kind: JoinKind
    left: object
    right: object
    predicate: Expr = TRUE

    kind = PhysOpKind.NESTED_APPLY

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)

    def with_children(self, children: Tuple) -> "NestedApply":
        left, right = children
        return NestedApply(self.apply_kind, left, right, self.predicate)

    def provided_ordering(self, child_orderings):
        return child_orderings[0]  # preserves outer order

    def describe(self) -> str:
        return f"NestedApply[{self.apply_kind.value}]({self.predicate})"


@dataclass(frozen=True)
class HashJoin(PhysicalOp):
    """Equi-join by hashing the right (build) side.

    ``left_keys``/``right_keys`` are the equi-join columns; ``residual`` is
    the non-equality remainder of the predicate (applied to joined rows).
    """

    join_kind: JoinKind
    left: object
    right: object
    left_keys: Tuple[Column, ...]
    right_keys: Tuple[Column, ...]
    residual: Expr = TRUE

    kind = PhysOpKind.HASH_JOIN

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)

    def with_children(self, children: Tuple) -> "HashJoin":
        left, right = children
        return HashJoin(
            self.join_kind, left, right, self.left_keys, self.right_keys,
            self.residual,
        )

    def describe(self) -> str:
        keys = ", ".join(
            f"{l.name}={r.name}" for l, r in zip(self.left_keys, self.right_keys)
        )
        from repro.expr.expressions import TRUE as _TRUE

        if self.residual != _TRUE:
            return (
                f"HashJoin[{self.join_kind.value}]({keys}; "
                f"residual: {self.residual})"
            )
        return f"HashJoin[{self.join_kind.value}]({keys})"


@dataclass(frozen=True)
class MergeJoin(PhysicalOp):
    """Inner equi-join over inputs sorted on the join keys."""

    left: object
    right: object
    left_keys: Tuple[Column, ...]
    right_keys: Tuple[Column, ...]
    residual: Expr = TRUE

    kind = PhysOpKind.MERGE_JOIN

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)

    def with_children(self, children: Tuple) -> "MergeJoin":
        left, right = children
        return MergeJoin(
            left, right, self.left_keys, self.right_keys, self.residual
        )

    def required_child_orderings(self) -> Tuple[Ordering, ...]:
        left = tuple((column.cid, True) for column in self.left_keys)
        right = tuple((column.cid, True) for column in self.right_keys)
        return (left, right)

    def provided_ordering(self, child_orderings):
        return tuple((column.cid, True) for column in self.left_keys)

    def describe(self) -> str:
        keys = ", ".join(
            f"{l.name}={r.name}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"MergeJoin({keys})"


@dataclass(frozen=True)
class HashAggregate(PhysicalOp):
    child: object
    group_by: Tuple[Column, ...]
    aggregates: Tuple[Tuple[Column, AggregateCall], ...]

    kind = PhysOpKind.HASH_AGGREGATE

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "HashAggregate":
        (child,) = children
        return HashAggregate(child, self.group_by, self.aggregates)

    @property
    def output_columns(self) -> Tuple[Column, ...]:
        return self.group_by + tuple(col for col, _ in self.aggregates)

    def describe(self) -> str:
        groups = ", ".join(column.name for column in self.group_by)
        return f"HashAggregate([{groups}])"


@dataclass(frozen=True)
class StreamAggregate(PhysicalOp):
    """Aggregate over input sorted by the grouping columns."""

    child: object
    group_by: Tuple[Column, ...]
    aggregates: Tuple[Tuple[Column, AggregateCall], ...]

    kind = PhysOpKind.STREAM_AGGREGATE

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "StreamAggregate":
        (child,) = children
        return StreamAggregate(child, self.group_by, self.aggregates)

    @property
    def output_columns(self) -> Tuple[Column, ...]:
        return self.group_by + tuple(col for col, _ in self.aggregates)

    def required_child_orderings(self) -> Tuple[Ordering, ...]:
        ordering = tuple(
            (column.cid, True)
            for column in sorted(self.group_by, key=lambda c: c.cid)
        )
        return (ordering,)

    def provided_ordering(self, child_orderings):
        return self.required_child_orderings()[0]

    def describe(self) -> str:
        groups = ", ".join(column.name for column in self.group_by)
        return f"StreamAggregate([{groups}])"


@dataclass(frozen=True)
class Sort(PhysicalOp):
    """The ordering enforcer (also implements logical Sort)."""

    child: object
    keys: Tuple[SortKey, ...]

    kind = PhysOpKind.SORT

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "Sort":
        (child,) = children
        return Sort(child, self.keys)

    def provided_ordering(self, child_orderings):
        return ordering_of_keys(self.keys)

    def describe(self) -> str:
        return f"Sort({', '.join(str(key) for key in self.keys)})"


@dataclass(frozen=True)
class _SetOpPhysical(PhysicalOp):
    left: object
    right: object
    output_columns: Tuple[Column, ...]
    left_columns: Tuple[Column, ...]
    right_columns: Tuple[Column, ...]

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)

    def with_children(self, children: Tuple):
        left, right = children
        return type(self)(
            left, right, self.output_columns, self.left_columns,
            self.right_columns,
        )


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
class HashDistinct(PhysicalOp):
    child: object

    kind = PhysOpKind.HASH_DISTINCT

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "HashDistinct":
        (child,) = children
        return HashDistinct(child)


@dataclass(frozen=True)
class Top(PhysicalOp):
    """Return the first ``count`` rows of the child."""

    child: object
    count: int

    kind = PhysOpKind.TOP

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "Top":
        (child,) = children
        return Top(child, self.count)

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
