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

Each operator class is the one place its structural facts are written:
``child_fields`` (its inputs, hence its arity), its dataclass fields and
properties (the attributes a rule may read), ``join_kind_field`` (what a
pattern's join-kind restriction reads), :meth:`Operator.column_reads`
(which columns its arguments read, and from which input) and
:meth:`Operator.result_columns` (the columns it outputs).  Validation,
property derivation, the plan sanitizer, the pattern matcher and the
static analyses all read these declarations; none keeps its own copy.
:data:`OPERATOR_CLASSES` maps each :class:`OpKind` to its class.

:class:`Operator`, :class:`Unary` and :class:`Binary` are shared with the
physical algebra (:mod:`repro.physical.operators`), whose operators make
the same declarations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Collection,
    FrozenSet,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.expr.aggregates import AggregateCall
from repro.expr.expressions import TRUE, Column, Expr, referenced_columns


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

    def result_columns(self, left: Tuple, right: Tuple) -> Tuple:
        """A join's output columns, given its inputs'."""
        return left + right if self.preserves_right_columns else left


#: How :meth:`ColumnRead.missing` words a column that is not there.
_NOT_VISIBLE = (
    "{label}: column {column.qualified_name}#{column.cid} is not visible "
    "from the operator's inputs"
)
_NOT_IN_INPUT = "{label} {column.qualified_name} not in input"
_NOT_DRAWN = "{label}"


class ColumnRead(NamedTuple):
    """Columns one argument of an operator reads, and where they come from.

    ``inputs`` are the child positions whose output columns the read may
    use: ``(0,)`` for the only or the left input, ``(1,)`` for the right
    one, ``(0, 1)`` for either.  ``label`` and ``wording`` word the error
    for a column none of those inputs produces (:meth:`missing`).
    """

    label: str
    columns: Collection[Column]
    inputs: Tuple[int, ...]
    wording: str = _NOT_VISIBLE

    def visible(self, produced: Tuple[FrozenSet[int], ...]) -> FrozenSet[int]:
        """The column ids the read may use, given those each input
        produces."""
        if len(self.inputs) == 1:
            return produced[self.inputs[0]]
        return frozenset().union(*(produced[i] for i in self.inputs))

    def missing(self, column: Column) -> str:
        return self.wording.format(label=self.label, column=column)


@dataclass(frozen=True)
class GroupRef:
    """A placeholder child pointing at a memo group."""

    group_id: int

    def __repr__(self) -> str:
        return f"G{self.group_id}"


class Operator:
    """What the operators of both algebras share: their inputs and the
    columns they read and produce, declared once per class.

    ``child_fields`` names the fields holding the inputs, in child order;
    ``children`` and the tree walks read them.  A node's children may be
    operators (a tree) or :class:`GroupRef` placeholders (a memo
    expression).
    """

    __slots__ = ()
    #: The fields holding the operator's inputs, in child order.
    child_fields: Tuple[str, ...] = ()

    @property
    def children(self) -> Tuple:
        return ()

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        """What the operator's own arguments read (children excluded).

        Every operator class declares it, an empty tuple included, so
        no operator is left out of validation and the plan sanitizer.
        """
        raise NotImplementedError

    def dangling_read(
        self, produced: Tuple[FrozenSet[int], ...]
    ) -> Optional[Tuple[ColumnRead, Column]]:
        """The first read column its inputs do not produce, with its read;
        ``produced`` holds the column ids of each input."""
        for read in self.column_reads():
            visible = read.visible(produced)
            for column in read.columns:
                if column.cid not in visible:
                    return read, column
        return None

    def result_columns(
        self, inputs: Sequence[Tuple[Column, ...]]
    ) -> Tuple[Column, ...]:
        """The operator's output columns, given each input's in child order.

        The one place an operator's output schema is written.  By default
        the only (or left) input's columns pass through.
        """
        return inputs[0]

    def walk(self) -> Iterator["Operator"]:
        """Pre-order traversal (tree mode only)."""
        yield self
        for child in self.children:
            if isinstance(child, Operator):
                yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        """Indented multi-line rendering of the tree."""
        pad = "  " * indent
        lines = [pad + self.describe()]
        for child in self.children:
            if isinstance(child, Operator):
                lines.append(child.pretty(indent + 1))
            else:
                lines.append("  " * (indent + 1) + repr(child))
        return "\n".join(lines)

    def describe(self) -> str:
        """One-line description (operator name plus arguments)."""
        return self.kind.value


class Unary(Operator):
    """An operator over one input, held in ``child``."""

    __slots__ = ()
    child_fields = ("child",)

    @property
    def children(self) -> Tuple:
        return (self.child,)


class Binary(Operator):
    """An operator over two inputs, held in ``left`` and ``right``."""

    __slots__ = ()
    child_fields = ("left", "right")

    @property
    def children(self) -> Tuple:
        return (self.left, self.right)


class LogicalOp(Operator):
    """Base class for all logical operators."""

    __slots__ = ()
    kind: OpKind
    #: The field a pattern's ``join_kinds`` restriction reads, if any.
    join_kind_field: Optional[str] = None

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

    def with_children(self, children: Tuple) -> "Get":
        if children:
            raise ValueError("Get is a leaf")
        return self

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return ()

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        return self.columns

    def describe(self) -> str:
        if self.alias != self.table:
            return f"Get({self.table} AS {self.alias})"
        return f"Get({self.table})"


@dataclass(frozen=True)
class Select(Unary, LogicalOp):
    """Filter rows by a predicate (relational selection)."""

    child: object
    predicate: Expr

    kind = OpKind.SELECT

    def with_children(self, children: Tuple) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return (
            ColumnRead(
                "Select predicate", referenced_columns(self.predicate), (0,)
            ),
        )

    def describe(self) -> str:
        return f"Select({self.predicate})"


@dataclass(frozen=True)
class Project(Unary, LogicalOp):
    """Compute output columns.

    ``outputs`` is an ordered tuple of ``(column, expression)`` pairs.  A
    pass-through output uses the *same* Column object it forwards, keeping
    column identity stable across the projection.
    """

    child: object
    outputs: Tuple[Tuple[Column, Expr], ...]

    kind = OpKind.PROJECT

    def with_children(self, children: Tuple) -> "Project":
        (child,) = children
        return Project(child, self.outputs)

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return tuple(
            ColumnRead(
                f"Project output {column.name}",
                referenced_columns(expr),
                (0,),
            )
            for column, expr in self.outputs
        )

    @property
    def output_columns(self) -> Tuple[Column, ...]:
        return tuple(column for column, _ in self.outputs)

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        return self.output_columns

    def describe(self) -> str:
        items = ", ".join(
            f"{column.name}={expr}" for column, expr in self.outputs
        )
        return f"Project({items})"


@dataclass(frozen=True)
class Join(Binary, LogicalOp):
    """Binary join of any :class:`JoinKind`; CROSS joins carry TRUE."""

    join_kind: JoinKind
    left: object
    right: object
    predicate: Expr = TRUE

    kind = OpKind.JOIN
    join_kind_field = "join_kind"

    def with_children(self, children: Tuple) -> "Join":
        left, right = children
        return Join(self.join_kind, left, right, self.predicate)

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return (
            ColumnRead(
                "Join predicate", referenced_columns(self.predicate), (0, 1)
            ),
        )

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        return self.join_kind.result_columns(*inputs)

    def describe(self) -> str:
        return f"Join[{self.join_kind.value}]({self.predicate})"


@dataclass(frozen=True)
class Apply(Binary, LogicalOp):
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
    join_kind_field = "apply_kind"

    def __post_init__(self) -> None:
        if self.apply_kind not in (JoinKind.SEMI, JoinKind.ANTI):
            raise ValueError(
                f"Apply kind must be SEMI or ANTI, got {self.apply_kind}"
            )

    def with_children(self, children: Tuple) -> "Apply":
        left, right = children
        return Apply(self.apply_kind, left, right, self.predicate)

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return (
            ColumnRead(
                "Apply predicate", referenced_columns(self.predicate), (0, 1)
            ),
        )

    def describe(self) -> str:
        return f"Apply[{self.apply_kind.value}]({self.predicate})"


@dataclass(frozen=True)
class GbAgg(Unary, LogicalOp):
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

    def with_children(self, children: Tuple) -> "GbAgg":
        (child,) = children
        return GbAgg(child, self.group_by, self.aggregates, self.phase)

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        grouping = ColumnRead(
            "GbAgg: grouping column", self.group_by, (0,), _NOT_IN_INPUT
        )
        return (grouping,) + tuple(
            ColumnRead(
                f"aggregate {column.name}",
                referenced_columns(call.argument),
                (0,),
            )
            for column, call in self.aggregates
            if call.argument is not None
        )

    @property
    def output_columns(self) -> Tuple[Column, ...]:
        return self.group_by + tuple(col for col, _ in self.aggregates)

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        return self.output_columns

    def describe(self) -> str:
        groups = ", ".join(column.name for column in self.group_by)
        aggs = ", ".join(
            f"{column.name}={call}" for column, call in self.aggregates
        )
        return f"GbAgg([{groups}] {aggs})"


@dataclass(frozen=True)
class _SetOp(Binary, LogicalOp):
    """Shared shape for the binary set operators.

    Output columns are fresh (``output_columns``), mapped positionally from
    each input's branch columns (``left_columns``, ``right_columns``): a
    subset of that input's columns, one per output position, which the
    executor projects the input onto.
    """

    left: object
    right: object
    output_columns: Tuple[Column, ...]
    left_columns: Tuple[Column, ...]
    right_columns: Tuple[Column, ...]

    def with_children(self, children: Tuple) -> "_SetOp":
        left, right = children
        return type(self)(
            left, right, self.output_columns, self.left_columns,
            self.right_columns,
        )

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        name = self.kind.value
        return (
            ColumnRead(
                f"{name}: left_columns not drawn from left input",
                self.left_columns,
                (0,),
                _NOT_DRAWN,
            ),
            ColumnRead(
                f"{name}: right_columns not drawn from right input",
                self.right_columns,
                (1,),
                _NOT_DRAWN,
            ),
        )

    def result_columns(self, inputs) -> Tuple[Column, ...]:
        return self.output_columns


@dataclass(frozen=True)
class UnionAll(_SetOp):
    """Bag union."""

    kind = OpKind.UNION_ALL


@dataclass(frozen=True)
class Union(_SetOp):
    """Set union (duplicates eliminated)."""

    kind = OpKind.UNION


@dataclass(frozen=True)
class Intersect(_SetOp):
    """Set intersection (SQL INTERSECT: distinct output)."""

    kind = OpKind.INTERSECT


@dataclass(frozen=True)
class Except(_SetOp):
    """Set difference (SQL EXCEPT: distinct output)."""

    kind = OpKind.EXCEPT


@dataclass(frozen=True)
class Distinct(Unary, LogicalOp):
    """Duplicate elimination over the child's full row."""

    child: object

    kind = OpKind.DISTINCT

    def with_children(self, children: Tuple) -> "Distinct":
        (child,) = children
        return Distinct(child)

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return ()


@dataclass(frozen=True)
class SortKey:
    column: Column
    ascending: bool = True

    def __str__(self) -> str:
        direction = "ASC" if self.ascending else "DESC"
        return f"{self.column.name} {direction}"


@dataclass(frozen=True)
class Sort(Unary, LogicalOp):
    """Logical order-by (presentation order)."""

    child: object
    keys: Tuple[SortKey, ...]

    kind = OpKind.SORT

    def with_children(self, children: Tuple) -> "Sort":
        (child,) = children
        return Sort(child, self.keys)

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return (
            ColumnRead(
                "Sort: key column",
                tuple(key.column for key in self.keys),
                (0,),
                _NOT_IN_INPUT,
            ),
        )

    def describe(self) -> str:
        return f"Sort({', '.join(str(key) for key in self.keys)})"


@dataclass(frozen=True)
class Limit(Unary, LogicalOp):
    """Return the first ``count`` rows of the child."""

    child: object
    count: int

    kind = OpKind.LIMIT

    def with_children(self, children: Tuple) -> "Limit":
        (child,) = children
        return Limit(child, self.count)

    def column_reads(self) -> Tuple[ColumnRead, ...]:
        return ()

    def describe(self) -> str:
        return f"Limit({self.count})"


#: The operator class of every kind.
OPERATOR_CLASSES = {
    cls.kind: cls
    for cls in (
        Get, Select, Project, Join, Apply, GbAgg, UnionAll, Union,
        Intersect, Except, Distinct, Sort, Limit,
    )
}

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
