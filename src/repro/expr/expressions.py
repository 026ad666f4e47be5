"""Scalar expression trees.

Expressions reference columns through :class:`Column` objects, which carry a
process-unique integer id.  Identity by id (rather than by name) is what lets
transformation rules move expressions freely across operators without name
capture -- the same design used by Cascades-style optimizers, where columns
are bound once when a ``Get`` is instantiated and referenced by id thereafter.

All expression nodes are immutable and hashable so they can live inside memo
group expressions and be used as dictionary keys.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.catalog.schema import DataType

_column_ids = itertools.count(1)


def _next_column_id() -> int:
    return next(_column_ids)


@dataclass(frozen=True, eq=False)
class Column:
    """A bound column: unique id plus display metadata.

    Equality and hashing are by ``cid`` alone; two Column objects with the
    same id are the same column regardless of display name.
    """

    name: str
    data_type: DataType
    nullable: bool = True
    table: Optional[str] = None
    cid: int = field(default_factory=_next_column_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Column) and other.cid == self.cid

    def __hash__(self) -> int:
        return hash(self.cid)

    @property
    def qualified_name(self) -> str:
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name

    def __repr__(self) -> str:
        return f"Column({self.qualified_name}#{self.cid})"


class ComparisonOp(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flipped(self) -> "ComparisonOp":
        """The operator with operand sides swapped (e.g. ``<`` -> ``>``)."""
        return _FLIPPED[self]

    def negated(self) -> "ComparisonOp":
        return _NEGATED[self]


_FLIPPED = {
    ComparisonOp.EQ: ComparisonOp.EQ,
    ComparisonOp.NE: ComparisonOp.NE,
    ComparisonOp.LT: ComparisonOp.GT,
    ComparisonOp.LE: ComparisonOp.GE,
    ComparisonOp.GT: ComparisonOp.LT,
    ComparisonOp.GE: ComparisonOp.LE,
}

_NEGATED = {
    ComparisonOp.EQ: ComparisonOp.NE,
    ComparisonOp.NE: ComparisonOp.EQ,
    ComparisonOp.LT: ComparisonOp.GE,
    ComparisonOp.LE: ComparisonOp.GT,
    ComparisonOp.GT: ComparisonOp.LE,
    ComparisonOp.GE: ComparisonOp.LT,
}


class ArithmeticOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


class BoolConnective(enum.Enum):
    AND = "AND"
    OR = "OR"


#: Attributes an expression keeps about itself on first use (see
#: :func:`_hash_kept`, :func:`referenced_columns`); none is a field.
_KEPT = ("_hash", "_columns")


class Expr:
    """Base class for all scalar expressions."""

    __slots__ = ()

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal over this expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def __getstate__(self) -> dict:
        """The fields only: ``pickle`` and ``copy`` never carry a kept
        value, and the hash is only right in the process that took it
        (it depends on ``PYTHONHASHSEED``)."""
        return {
            name: value
            for name, value in self.__dict__.items()
            if name not in _KEPT
        }


def _hash_kept(cls):
    """Keep the dataclass-generated ``__hash__`` of ``cls`` on the instance.

    Expressions are frozen, so the hash is computed on first use and
    stored as ``_hash``: no field, so ``==``, ``repr``, ``fields`` and
    ``replace`` never see it, and :meth:`Expr.__getstate__` drops it.
    An expression is hashed each time an operator holding it is, and a
    memo hashes every operator it interns or probes.
    """
    generated = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = generated(self)
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__
    return cls


@_hash_kept
@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to a bound column."""

    column: Column

    def __str__(self) -> str:
        return self.column.qualified_name


@_hash_kept
@dataclass(frozen=True)
class Literal(Expr):
    """A typed constant; ``value is None`` represents SQL NULL."""

    value: object
    data_type: DataType

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if self.data_type is DataType.STRING:
            escaped = str(self.value).replace("'", "''")
            return f"'{escaped}'"
        if self.data_type is DataType.BOOL:
            return "TRUE" if self.value else "FALSE"
        return str(self.value)


TRUE = Literal(True, DataType.BOOL)
FALSE = Literal(False, DataType.BOOL)
NULL_BOOL = Literal(None, DataType.BOOL)


@_hash_kept
@dataclass(frozen=True)
class Comparison(Expr):
    """Binary comparison with SQL NULL semantics (NULL operand -> UNKNOWN)."""

    op: ComparisonOp
    left: Expr
    right: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


@_hash_kept
@dataclass(frozen=True)
class BoolExpr(Expr):
    """N-ary AND / OR with Kleene three-valued semantics."""

    op: BoolConnective
    args: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.args) < 2:
            raise ValueError(f"{self.op.value} needs at least 2 arguments")

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        sep = f" {self.op.value} "
        return "(" + sep.join(str(arg) for arg in self.args) + ")"


@_hash_kept
@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,)

    def __str__(self) -> str:
        return f"NOT ({self.arg})"


@_hash_kept
@dataclass(frozen=True)
class IsNull(Expr):
    """``arg IS NULL`` -- always two-valued (never UNKNOWN)."""

    arg: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,)

    def __str__(self) -> str:
        return f"{self.arg} IS NULL"


@_hash_kept
@dataclass(frozen=True)
class Arithmetic(Expr):
    op: ArithmeticOp
    left: Expr
    right: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


# --------------------------------------------------------------------- helpers


def conjunction(parts) -> Expr:
    """AND together ``parts`` (empty -> TRUE, singleton -> the part itself)."""
    parts = [part for part in parts if part is not None]
    flattened = []
    for part in parts:
        if isinstance(part, BoolExpr) and part.op is BoolConnective.AND:
            flattened.extend(part.args)
        else:
            flattened.append(part)
    flattened = [part for part in flattened if part != TRUE]
    if not flattened:
        return TRUE
    if len(flattened) == 1:
        return flattened[0]
    return BoolExpr(BoolConnective.AND, tuple(flattened))


def conjuncts(expr: Expr) -> Tuple[Expr, ...]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if isinstance(expr, BoolExpr) and expr.op is BoolConnective.AND:
        result = []
        for arg in expr.args:
            result.extend(conjuncts(arg))
        return tuple(result)
    return (expr,)


def column_ids(columns: Iterable[Column]) -> FrozenSet[int]:
    """The ids of ``columns``."""
    return frozenset(column.cid for column in columns)


def referenced_columns(expr: Expr) -> frozenset:
    """The set of :class:`Column` objects referenced anywhere in ``expr``.

    Kept on ``expr`` as ``_columns`` on first use, like its hash (see
    :func:`_hash_kept`): rule preconditions and property derivation ask
    for the same predicates' columns on every attempt.
    """
    try:
        return expr._columns
    except AttributeError:
        pass
    value = frozenset(
        node.column for node in expr.walk() if isinstance(node, ColumnRef)
    )
    object.__setattr__(expr, "_columns", value)
    return value


def substitute_columns(expr: Expr, mapping) -> Expr:
    """Rewrite ``expr`` replacing each column per ``mapping`` (Column->Column
    or Column->Expr).  Columns absent from the mapping are left untouched."""
    if isinstance(expr, ColumnRef):
        replacement = mapping.get(expr.column)
        if replacement is None:
            return expr
        if isinstance(replacement, Expr):
            return replacement
        return ColumnRef(replacement)
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op,
            substitute_columns(expr.left, mapping),
            substitute_columns(expr.right, mapping),
        )
    if isinstance(expr, BoolExpr):
        return BoolExpr(
            expr.op,
            tuple(substitute_columns(arg, mapping) for arg in expr.args),
        )
    if isinstance(expr, Not):
        return Not(substitute_columns(expr.arg, mapping))
    if isinstance(expr, IsNull):
        return IsNull(substitute_columns(expr.arg, mapping))
    if isinstance(expr, Arithmetic):
        return Arithmetic(
            expr.op,
            substitute_columns(expr.left, mapping),
            substitute_columns(expr.right, mapping),
        )
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def expression_type(expr: Expr) -> DataType:
    """Infer the result type of ``expr``."""
    if isinstance(expr, ColumnRef):
        return expr.column.data_type
    if isinstance(expr, Literal):
        return expr.data_type
    if isinstance(expr, (Comparison, BoolExpr, Not, IsNull)):
        return DataType.BOOL
    if isinstance(expr, Arithmetic):
        left = expression_type(expr.left)
        right = expression_type(expr.right)
        if DataType.FLOAT in (left, right) or expr.op is ArithmeticOp.DIV:
            return DataType.FLOAT
        return DataType.INT
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def is_nullable(expr: Expr, non_null_columns: frozenset = frozenset()) -> bool:
    """Conservative nullability: can ``expr`` evaluate to NULL?

    ``non_null_columns`` are columns known NOT NULL in the current context.
    Boolean-valued comparisons can yield UNKNOWN (treated as nullable);
    IS NULL never can.
    """
    if isinstance(expr, ColumnRef):
        if expr.column in non_null_columns:
            return False
        return expr.column.nullable
    if isinstance(expr, Literal):
        return expr.value is None
    if isinstance(expr, IsNull):
        return False
    if isinstance(expr, (Comparison, Arithmetic)):
        return is_nullable(expr.left, non_null_columns) or is_nullable(
            expr.right, non_null_columns
        )
    if isinstance(expr, Not):
        return is_nullable(expr.arg, non_null_columns)
    if isinstance(expr, BoolExpr):
        return any(is_nullable(arg, non_null_columns) for arg in expr.args)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def is_null_rejecting(expr: Expr, columns: frozenset) -> bool:
    """True if ``expr`` cannot evaluate to TRUE when every column in
    ``columns`` that it references is NULL.

    This is the precondition for simplifying an outer join to an inner join:
    a null-rejecting predicate above a left outer join filters out all
    NULL-extended rows, making the outer join equivalent to an inner join.
    The test is conservative (may return False for predicates that are in
    fact null-rejecting).
    """
    if isinstance(expr, Comparison):
        refs = referenced_columns(expr)
        return bool(refs & columns)
    if isinstance(expr, BoolExpr):
        if expr.op is BoolConnective.AND:
            return any(is_null_rejecting(arg, columns) for arg in expr.args)
        return all(is_null_rejecting(arg, columns) for arg in expr.args)
    if isinstance(expr, Not):
        # NOT(x IS NULL) rejects NULLs in x's columns.
        if isinstance(expr.arg, IsNull):
            refs = referenced_columns(expr.arg)
            return bool(refs) and refs <= columns
        return False
    return False
