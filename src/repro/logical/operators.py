"""Logical relational operators.

A *logical query tree* (paper, Section 2.2) is a tree of these operators,
each instantiated with its arguments -- e.g. ``Get`` carries the table it
reads and the bound output columns, ``Join`` carries its kind and predicate.

The same node classes serve two roles:

* as plain trees (children are operators), produced by the query generators
  and consumed by the optimizer's initializer and the SQL generator; and
* as memo *group expressions* (children are :class:`GroupRef` placeholders),
  inside the optimizer.

Nodes are immutable; ``with_children`` rebuilds a node around new children,
which is how rules construct substitutes and how the memo rewrites trees
into group references.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.expr.aggregates import AggregateCall
from repro.expr.expressions import TRUE, Column, Expr


class OpKind(enum.Enum):
    """Logical operator kinds; also the vocabulary of rule patterns."""

    GET = "Get"
    SELECT = "Select"
    PROJECT = "Project"
    JOIN = "Join"
    GB_AGG = "GbAgg"
    UNION_ALL = "UnionAll"
    UNION = "Union"
    INTERSECT = "Intersect"
    EXCEPT = "Except"
    DISTINCT = "Distinct"
    SORT = "Sort"
    LIMIT = "Limit"
    APPLY = "Apply"


class JoinKind(enum.Enum):
    INNER = "INNER"
    CROSS = "CROSS"
    LEFT_OUTER = "LEFT OUTER"
    SEMI = "SEMI"
    ANTI = "ANTI"

    @property
    def preserves_right_columns(self) -> bool:
        """Do right-side columns appear in the join output?"""
        return self in (JoinKind.INNER, JoinKind.CROSS, JoinKind.LEFT_OUTER)


@dataclass(frozen=True)
class GroupRef:
    """A placeholder child pointing at a memo group."""

    group_id: int

    def __repr__(self) -> str:
        return f"G{self.group_id}"


class LogicalOp:
    """Base class for all logical operators."""

    __slots__ = ()
    kind: OpKind

    @property
    def children(self) -> Tuple:
        raise NotImplementedError

    def with_children(self, children: Tuple) -> "LogicalOp":
        raise NotImplementedError

    @property
    def arity(self) -> int:
        return len(self.children)

    def is_tree(self) -> bool:
        """True when all descendants are operators (no group references)."""
        return all(
            isinstance(child, LogicalOp) and child.is_tree()
            for child in self.children
        )

    def walk(self) -> Iterator["LogicalOp"]:
        """Pre-order traversal (tree mode only)."""
        yield self
        for child in self.children:
            if isinstance(child, LogicalOp):
                yield from child.walk()

    def tree_size(self) -> int:
        """Number of operator nodes in this tree."""
        return sum(1 for _ in self.walk())

    def fingerprint(self) -> str:
        """Stable structural content hash (tree mode only).

        See :mod:`repro.logical.fingerprint`; equal trees hash equal across
        processes, which makes the fingerprint usable as a cache key.

        Computed on first use and kept on the node: operators are frozen,
        the hash is a pure function of the tree, and it does not depend on
        the process, so the stored value stays right under ``pickle`` and
        ``copy``.  It is no dataclass field: ``==``, ``hash``, ``repr``,
        ``replace`` and ``with_children`` never see it.  A memo-form node
        raises before anything is stored.
        """
        try:
            return self._fingerprint
        except AttributeError:
            pass  # not in the handler: a FingerprintError is raised bare
        from repro.logical.fingerprint import fingerprint

        value = fingerprint(self)
        object.__setattr__(self, "_fingerprint", value)
        return value

    def pretty(self, indent: int = 0) -> str:
        """Indented multi-line rendering of the tree."""
        pad = "  " * indent
        lines = [pad + self.describe()]
        for child in self.children:
            if isinstance(child, LogicalOp):
                lines.append(child.pretty(indent + 1))
            else:
                lines.append("  " * (indent + 1) + repr(child))
        return "\n".join(lines)

    def describe(self) -> str:
        """One-line description (operator name plus arguments)."""
        return self.kind.value


@dataclass(frozen=True)
class Get(LogicalOp):
    """Access a base table, binding fresh output columns.

    ``alias`` distinguishes multiple uses of the same table in one query;
    ``columns`` are the bound :class:`Column` objects, positionally aligned
    with the table definition.
    """

    table: str
    columns: Tuple[Column, ...]
    alias: str

    kind = OpKind.GET

    @property
    def children(self) -> Tuple:
        return ()

    def with_children(self, children: Tuple) -> "Get":
        if children:
            raise ValueError("Get is a leaf")
        return self

    def describe(self) -> str:
        if self.alias != self.table:
            return f"Get({self.table} AS {self.alias})"
        return f"Get({self.table})"


@dataclass(frozen=True)
class Select(LogicalOp):
    """Filter rows by a predicate (relational selection)."""

    child: object
    predicate: Expr

    kind = OpKind.SELECT

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def describe(self) -> str:
        return f"Select({self.predicate})"


@dataclass(frozen=True)
class Project(LogicalOp):
    """Compute output columns.

    ``outputs`` is an ordered tuple of ``(column, expression)`` pairs.  A
    pass-through output uses the *same* Column object it forwards, keeping
    column identity stable across the projection.
    """

    child: object
    outputs: Tuple[Tuple[Column, Expr], ...]

    kind = OpKind.PROJECT

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "Project":
        (child,) = children
        return Project(child, self.outputs)

    @property
    def output_columns(self) -> Tuple[Column, ...]:
        return tuple(column for column, _ in self.outputs)

    def describe(self) -> str:
        items = ", ".join(
            f"{column.name}={expr}" for column, expr in self.outputs
        )
        return f"Project({items})"


@dataclass(frozen=True)
class Join(LogicalOp):
    """Binary join of any :class:`JoinKind`; CROSS joins carry TRUE."""

    join_kind: JoinKind
    left: object
    right: object
    predicate: Expr = TRUE

    kind = OpKind.JOIN

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)

    def with_children(self, children: Tuple) -> "Join":
        left, right = children
        return Join(self.join_kind, left, right, self.predicate)

    def describe(self) -> str:
        return f"Join[{self.join_kind.value}]({self.predicate})"


@dataclass(frozen=True)
class Apply(LogicalOp):
    """A not-yet-unnested ``[NOT] EXISTS`` / ``IN`` subquery.

    The binder produces Apply for every subquery predicate; the unnesting
    rules (:mod:`repro.rules.exploration.subquery_rules`) rewrite it into
    the equivalent semi/anti :class:`Join`.  ``apply_kind`` is restricted to
    ``JoinKind.SEMI`` (EXISTS / IN) and ``JoinKind.ANTI`` (NOT EXISTS /
    NOT IN); ``predicate`` carries the correlation condition, which may
    reference columns of both sides (columns are globally id-bound, so no
    capture is possible).  Output schema is the left side's columns --
    identical to the matching semi/anti join.
    """

    apply_kind: JoinKind
    left: object
    right: object
    predicate: Expr = TRUE

    kind = OpKind.APPLY

    def __post_init__(self) -> None:
        if self.apply_kind not in (JoinKind.SEMI, JoinKind.ANTI):
            raise ValueError(
                f"Apply kind must be SEMI or ANTI, got {self.apply_kind}"
            )

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)

    def with_children(self, children: Tuple) -> "Apply":
        left, right = children
        return Apply(self.apply_kind, left, right, self.predicate)

    def describe(self) -> str:
        return f"Apply[{self.apply_kind.value}]({self.predicate})"


@dataclass(frozen=True)
class GbAgg(LogicalOp):
    """Group-By / Aggregate.

    ``group_by`` are the grouping columns (possibly empty: scalar aggregate
    over the whole input).  ``aggregates`` is an ordered tuple of
    ``(output column, aggregate call)`` pairs.  Output schema is the grouping
    columns followed by the aggregate outputs.

    ``phase`` is an optimizer annotation ("single", "local" or "global")
    set by the aggregation-splitting rules so they do not re-split their own
    products; it has no execution semantics.
    """

    child: object
    group_by: Tuple[Column, ...]
    aggregates: Tuple[Tuple[Column, AggregateCall], ...]
    phase: str = "single"

    kind = OpKind.GB_AGG

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "GbAgg":
        (child,) = children
        return GbAgg(child, self.group_by, self.aggregates, self.phase)

    @property
    def output_columns(self) -> Tuple[Column, ...]:
        return self.group_by + tuple(col for col, _ in self.aggregates)

    def describe(self) -> str:
        groups = ", ".join(column.name for column in self.group_by)
        aggs = ", ".join(
            f"{column.name}={call}" for column, call in self.aggregates
        )
        return f"GbAgg([{groups}] {aggs})"


class _SetOp(LogicalOp):
    """Shared shape for the binary set operators."""

    __slots__ = ()

    def describe(self) -> str:
        return self.kind.value


@dataclass(frozen=True)
class UnionAll(_SetOp):
    """Bag union.  Output columns are fresh (``output_columns``), mapped
    positionally from each input's columns."""

    left: object
    right: object
    output_columns: Tuple[Column, ...]
    left_columns: Tuple[Column, ...]
    right_columns: Tuple[Column, ...]

    kind = OpKind.UNION_ALL

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)

    def with_children(self, children: Tuple) -> "UnionAll":
        left, right = children
        return UnionAll(
            left, right, self.output_columns, self.left_columns,
            self.right_columns,
        )


@dataclass(frozen=True)
class Union(_SetOp):
    """Set union (duplicates eliminated)."""

    left: object
    right: object
    output_columns: Tuple[Column, ...]
    left_columns: Tuple[Column, ...]
    right_columns: Tuple[Column, ...]

    kind = OpKind.UNION

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)

    def with_children(self, children: Tuple) -> "Union":
        left, right = children
        return Union(
            left, right, self.output_columns, self.left_columns,
            self.right_columns,
        )


@dataclass(frozen=True)
class Intersect(_SetOp):
    """Set intersection (SQL INTERSECT: distinct output)."""

    left: object
    right: object
    output_columns: Tuple[Column, ...]
    left_columns: Tuple[Column, ...]
    right_columns: Tuple[Column, ...]

    kind = OpKind.INTERSECT

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)

    def with_children(self, children: Tuple) -> "Intersect":
        left, right = children
        return Intersect(
            left, right, self.output_columns, self.left_columns,
            self.right_columns,
        )


@dataclass(frozen=True)
class Except(_SetOp):
    """Set difference (SQL EXCEPT: distinct output)."""

    left: object
    right: object
    output_columns: Tuple[Column, ...]
    left_columns: Tuple[Column, ...]
    right_columns: Tuple[Column, ...]

    kind = OpKind.EXCEPT

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)

    def with_children(self, children: Tuple) -> "Except":
        left, right = children
        return Except(
            left, right, self.output_columns, self.left_columns,
            self.right_columns,
        )


@dataclass(frozen=True)
class Distinct(LogicalOp):
    """Duplicate elimination over the child's full row."""

    child: object

    kind = OpKind.DISTINCT

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "Distinct":
        (child,) = children
        return Distinct(child)


@dataclass(frozen=True)
class SortKey:
    column: Column
    ascending: bool = True

    def __str__(self) -> str:
        direction = "ASC" if self.ascending else "DESC"
        return f"{self.column.name} {direction}"


@dataclass(frozen=True)
class Sort(LogicalOp):
    """Logical order-by (presentation order)."""

    child: object
    keys: Tuple[SortKey, ...]

    kind = OpKind.SORT

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "Sort":
        (child,) = children
        return Sort(child, self.keys)

    def describe(self) -> str:
        return f"Sort({', '.join(str(key) for key in self.keys)})"


@dataclass(frozen=True)
class Limit(LogicalOp):
    """Return the first ``count`` rows of the child."""

    child: object
    count: int

    kind = OpKind.LIMIT

    @property
    def children(self) -> Tuple:
        return (self.child,)

    def with_children(self, children: Tuple) -> "Limit":
        (child,) = children
        return Limit(child, self.count)

    def describe(self) -> str:
        return f"Limit({self.count})"


SET_OP_KINDS = (OpKind.UNION_ALL, OpKind.UNION, OpKind.INTERSECT, OpKind.EXCEPT)


def is_set_op(op: LogicalOp) -> bool:
    return op.kind in SET_OP_KINDS


def make_get(table_def, alias: Optional[str] = None) -> Get:
    """Bind a Get over ``table_def`` with fresh output columns."""
    alias = alias or table_def.name
    columns = tuple(
        Column(
            name=column.name,
            data_type=column.data_type,
            nullable=column.nullable,
            table=alias,
        )
        for column in table_def.columns
    )
    return Get(table=table_def.name, columns=columns, alias=alias)
