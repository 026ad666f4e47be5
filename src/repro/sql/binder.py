"""Name binding: SQL AST -> logical query tree.

Completes the round trip ``tree -> SQL -> AST -> tree``: the rebound tree
has fresh column ids but identical semantics, which the test suite verifies
by executing both against the same database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.catalog.schema import Catalog, DataType
from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import (
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
    expression_type,
    referenced_columns,
)
from repro.logical.operators import (
    Apply,
    Distinct,
    Except,
    GbAgg,
    Intersect,
    Join,
    JoinKind,
    Limit,
    LogicalOp,
    Project,
    Select,
    Sort,
    SortKey,
    Union,
    UnionAll,
    make_get,
)
from repro.sql import ast


class BindError(Exception):
    """Raised when names cannot be resolved or a shape is unsupported."""


class NameScope:
    """Maps SQL identifiers (bare and qualified) to bound columns.

    A select list's output scope holds bare names only, and keeps the
    scope of the FROM clause it came from: a qualified name that clause
    holds is looked up bare (``ORDER BY n.n_name`` after ``SELECT n_name
    FROM nation AS n``).  Any other qualified name must be held as it is
    written.
    """

    def __init__(self, source: Optional["NameScope"] = None) -> None:
        self._names: Dict[str, Column] = {}
        self._ambiguous: Set[str] = set()
        self._source = source

    @classmethod
    def of_relation(
        cls, alias: str, columns: Tuple[Column, ...]
    ) -> "NameScope":
        """The scope of one FROM-clause relation: each column by its bare
        and its ``alias.``-qualified name, in one pass that marks a name
        ambiguous when it is already bound to a different column."""
        scope = cls()
        names, ambiguous = scope._names, scope._ambiguous
        for column in columns:
            bare = column.name
            qualified = f"{alias}.{bare}"
            if bare in names and names[bare] != column:
                ambiguous.add(bare)
            if qualified in names and names[qualified] != column:
                ambiguous.add(qualified)
            names[bare] = names[qualified] = column
        return scope

    def add(self, name: str, column: Column) -> None:
        if name in self._names and self._names[name] != column:
            self._ambiguous.add(name)
        self._names[name] = column

    def lookup(self, ref: ast.NameRef) -> Column:
        key = name = ref.name
        if ref.qualifier:
            key = f"{ref.qualifier}.{name}"
            if self._source is None or key not in self._source._names:
                name = key
        if name in self._ambiguous:
            raise BindError(f"ambiguous column reference {name!r}")
        column = self._names.get(name)
        if column is None:
            raise BindError(f"unknown column {key!r}")
        return column

    def merged(self, other: "NameScope") -> "NameScope":
        result = NameScope()
        result._names = dict(self._names)
        result._ambiguous = set(self._ambiguous)
        for name, column in other._names.items():
            result.add(name, column)
        result._ambiguous |= other._ambiguous
        return result


@dataclass
class BoundRelation:
    """A bound relational expression plus its naming environment."""

    op: LogicalOp
    columns: Tuple[Column, ...]
    scope: NameScope


class Binder:
    """Binds parsed SQL against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # -------------------------------------------------------------- queries

    def bind(self, query: ast.QueryExpr) -> BoundRelation:
        if isinstance(query, ast.SetOpExpr):
            return self._bind_setop(query)
        if isinstance(query, ast.SelectBlock):
            return self._bind_select_block(query)
        raise BindError(f"unsupported query node {type(query).__name__}")

    def bind_statement(self, query: ast.QueryExpr) -> LogicalOp:
        return self.bind(query).op

    def _bind_setop(self, query: ast.SetOpExpr) -> BoundRelation:
        left = self.bind(query.left)
        right = self.bind(query.right)
        if len(left.columns) != len(right.columns):
            raise BindError(
                f"{query.op}: branch column counts differ "
                f"({len(left.columns)} vs {len(right.columns)})"
            )
        outputs = tuple(
            Column(
                name=lcol.name,
                data_type=lcol.data_type,
                nullable=True,
            )
            for lcol in left.columns
        )
        ctor = {
            "UNION ALL": UnionAll,
            "UNION": Union,
            "INTERSECT": Intersect,
            "EXCEPT": Except,
        }[query.op]
        op = ctor(left.op, right.op, outputs, left.columns, right.columns)
        scope = NameScope()
        for column in outputs:
            scope.add(column.name, column)
        return BoundRelation(op=op, columns=outputs, scope=scope)

    # -------------------------------------------------------- select blocks

    def _bind_select_block(self, block: ast.SelectBlock) -> BoundRelation:
        if block.table is None:
            raise BindError("SELECT without FROM is not supported")
        source = self._bind_table(block.table)

        op = source.op
        if block.where is not None:
            op = self._apply_where(block.where, source, op)

        has_aggregates = not block.star and any(
            _contains_func(item.expr) for item in block.items
        )
        if block.group_by or has_aggregates:
            op, columns, scope = self._bind_aggregation(block, source, op)
        elif block.star:
            columns, scope = source.columns, source.scope
        else:
            op, columns, scope = self._bind_projection(block, source, op)

        if block.distinct:
            op = Distinct(op)
        if block.order_by:
            keys = tuple(
                SortKey(scope.lookup(item.name), item.ascending)
                for item in block.order_by
            )
            op = Sort(op, keys)
        if block.limit is not None:
            op = Limit(op, block.limit)
        return BoundRelation(op=op, columns=columns, scope=scope)

    def _apply_where(
        self, where: ast.SqlNode, source: BoundRelation, op: LogicalOp
    ) -> LogicalOp:
        """Apply a WHERE clause: scalar conjuncts become one Select, each
        top-level ``[NOT] EXISTS`` / ``[NOT] IN`` conjunct becomes an
        :class:`Apply` stacked on top (the unnesting rules turn those into
        semi/anti joins during optimization)."""
        scalar: List[ast.SqlNode] = []
        subqueries: List[ast.SqlNode] = []
        for part in _ast_conjuncts(where):
            if isinstance(part, (ast.ExistsExpr, ast.InExpr)):
                subqueries.append(part)
            else:
                scalar.append(part)
        if scalar:
            bound = [self._bind_expr(part, source.scope) for part in scalar]
            op = Select(op, conjunction(bound))
        for part in subqueries:
            if isinstance(part, ast.ExistsExpr):
                op = self._bind_exists(part, source, op)
            else:
                op = self._bind_in(part, source, op)
        return op

    def _bind_exists(
        self, exists: ast.ExistsExpr, source: BoundRelation, op: LogicalOp
    ) -> LogicalOp:
        """Bind ``[NOT] EXISTS (SELECT 1 FROM <sub> WHERE cond)`` as an
        Apply (the inverse of the SQL generator's rendering)."""
        inner = exists.query
        if not isinstance(inner, ast.SelectBlock) or inner.table is None:
            raise BindError("unsupported EXISTS subquery shape")
        if inner.star or inner.group_by or inner.distinct:
            raise BindError("unsupported EXISTS subquery shape")
        sub = self._bind_table(inner.table)
        if inner.where is None:
            raise BindError("EXISTS subquery without correlation predicate")
        merged = source.scope.merged(sub.scope)
        condition = self._bind_expr(inner.where, merged)
        right, predicate = self._split_subquery_condition(condition, sub)
        kind = JoinKind.ANTI if exists.negated else JoinKind.SEMI
        return Apply(kind, op, right, predicate)

    def _bind_in(
        self, in_expr: ast.InExpr, source: BoundRelation, op: LogicalOp
    ) -> LogicalOp:
        """Bind ``x [NOT] IN (SELECT c FROM <sub> [WHERE ...])`` as an
        Apply; NOT IN gets the NULL-aware anti-join predicate
        ``x = c OR x IS NULL OR c IS NULL``."""
        inner = in_expr.query
        if not isinstance(inner, ast.SelectBlock) or inner.table is None:
            raise BindError("unsupported IN subquery shape")
        if inner.star or inner.group_by or inner.distinct:
            raise BindError("unsupported IN subquery shape")
        if len(inner.items) != 1:
            raise BindError("IN subquery must select exactly one column")
        sub = self._bind_table(inner.table)
        operand = self._bind_expr(in_expr.operand, source.scope)
        member = self._bind_expr(inner.items[0].expr, sub.scope)
        comparison: Expr = Comparison(ComparisonOp.EQ, operand, member)
        if in_expr.negated:
            comparison = BoolExpr(
                BoolConnective.OR,
                (comparison, IsNull(operand), IsNull(member)),
            )
        right: LogicalOp = sub.op
        parts: List[Expr] = [comparison]
        if inner.where is not None:
            merged = source.scope.merged(sub.scope)
            condition = self._bind_expr(inner.where, merged)
            right, correlated = self._split_subquery_condition(condition, sub)
            if correlated != TRUE:
                parts.append(correlated)
        kind = JoinKind.ANTI if in_expr.negated else JoinKind.SEMI
        return Apply(kind, op, right, conjunction(parts))

    def _split_subquery_condition(
        self, condition: Expr, sub: BoundRelation
    ) -> Tuple[LogicalOp, Expr]:
        """Split a bound subquery WHERE into (right child, apply predicate).

        Conjuncts referencing only subquery columns become a Select inside
        the right child -- giving the decorrelation rules a non-trivial
        shape to push through -- while conjuncts referencing the outer side
        stay in the Apply's correlation predicate.
        """
        sub_ids = {column.cid for column in sub.columns}
        if (
            isinstance(condition, BoolExpr)
            and condition.op is BoolConnective.AND
        ):
            conjuncts = list(condition.args)
        else:
            conjuncts = [condition]
        inner_parts: List[Expr] = []
        outer_parts: List[Expr] = []
        for part in conjuncts:
            refs = {column.cid for column in referenced_columns(part)}
            if refs and refs <= sub_ids:
                inner_parts.append(part)
            else:
                outer_parts.append(part)
        right: LogicalOp = sub.op
        if inner_parts:
            right = Select(right, conjunction(inner_parts))
        return right, conjunction(outer_parts)

    def _bind_aggregation(
        self, block: ast.SelectBlock, source: BoundRelation, op: LogicalOp
    ):
        group_columns = tuple(
            source.scope.lookup(ref) for ref in block.group_by
        )
        group_set = set(group_columns)
        aggregates: List[Tuple[Column, AggregateCall]] = []
        ordered: List[Column] = []
        scope = NameScope(source=source.scope)
        for item in block.items:
            if isinstance(item.expr, ast.FuncCall):
                call = self._bind_aggregate(item.expr, source.scope)
                name = item.alias or item.expr.name.lower()
                out = Column(
                    name=name,
                    data_type=call.result_type(),
                    nullable=call.result_nullable(),
                )
                aggregates.append((out, call))
                ordered.append(out)
                scope.add(name, out)
            elif isinstance(item.expr, ast.NameRef):
                column = source.scope.lookup(item.expr)
                if column not in group_set:
                    raise BindError(
                        f"column {item.expr} is neither aggregated nor "
                        "grouped"
                    )
                ordered.append(column)
                scope.add(item.alias or column.name, column)
            else:
                raise BindError(
                    "only grouping columns and aggregates are supported in "
                    "an aggregating select list"
                )
        agg_op = GbAgg(op, group_columns, tuple(aggregates))
        columns = tuple(ordered)
        if columns != agg_op.output_columns:
            projected = Project(
                agg_op, tuple((c, ColumnRef(c)) for c in columns)
            )
            return projected, columns, scope
        return agg_op, columns, scope

    def _bind_aggregate(
        self, call: ast.FuncCall, scope: NameScope
    ) -> AggregateCall:
        if call.argument is None:
            return AggregateCall(AggregateFunction.COUNT_STAR)
        argument = self._bind_expr(call.argument, scope)
        function = AggregateFunction[call.name]
        return AggregateCall(function, argument)

    def _bind_projection(
        self, block: ast.SelectBlock, source: BoundRelation, op: LogicalOp
    ):
        outputs: List[Tuple[Column, Expr]] = []
        ordered: List[Column] = []
        scope = NameScope(source=source.scope)
        for item in block.items:
            expr = self._bind_expr(item.expr, source.scope)
            if isinstance(expr, ColumnRef) and (
                item.alias is None or item.alias == expr.column.name
            ):
                column = expr.column  # pure pass-through keeps identity
            else:
                name = item.alias or f"expr_{len(ordered)}"
                column = Column(
                    name=name,
                    data_type=expression_type(expr),
                    nullable=True,
                )
            outputs.append((column, expr))
            ordered.append(column)
            scope.add(item.alias or column.name, column)
        return Project(op, tuple(outputs)), tuple(ordered), scope

    # ------------------------------------------------------------ table refs

    def _bind_table(self, node: ast.SqlNode) -> BoundRelation:
        if isinstance(node, ast.TableName):
            table = self.catalog.table(node.name)
            alias = node.alias or node.name
            get = make_get(table, alias)
            scope = NameScope.of_relation(alias, get.columns)
            return BoundRelation(op=get, columns=get.columns, scope=scope)
        if isinstance(node, ast.DerivedTable):
            inner = self.bind(node.query)
            scope = NameScope.of_relation(node.alias, inner.columns)
            return BoundRelation(
                op=inner.op, columns=inner.columns, scope=scope
            )
        if isinstance(node, ast.JoinedTable):
            left = self._bind_table(node.left)
            right = self._bind_table(node.right)
            scope = left.scope.merged(right.scope)
            if node.kind == "CROSS":
                op = Join(JoinKind.CROSS, left.op, right.op)
            else:
                kind = (
                    JoinKind.LEFT_OUTER
                    if node.kind == "LEFT"
                    else JoinKind.INNER
                )
                condition = self._bind_expr(node.condition, scope)
                op = Join(kind, left.op, right.op, condition)
            return BoundRelation(
                op=op, columns=left.columns + right.columns, scope=scope
            )
        raise BindError(f"unsupported table reference {type(node).__name__}")

    # ----------------------------------------------------------- expressions

    def _bind_expr(self, node: ast.SqlNode, scope: NameScope) -> Expr:
        if isinstance(node, ast.NameRef):
            return ColumnRef(scope.lookup(node))
        if isinstance(node, ast.NumberLit):
            value = node.value
            data_type = (
                DataType.FLOAT if isinstance(value, float) else DataType.INT
            )
            return Literal(value, data_type)
        if isinstance(node, ast.StringLit):
            return Literal(node.value, DataType.STRING)
        if isinstance(node, ast.BoolLit):
            return Literal(node.value, DataType.BOOL)
        if isinstance(node, ast.BinaryOp):
            left = self._bind_expr(node.left, scope)
            right = self._bind_expr(node.right, scope)
            if node.op in _COMPARISON_OPS:
                return Comparison(_COMPARISON_OPS[node.op], left, right)
            return Arithmetic(_ARITHMETIC_OPS[node.op], left, right)
        if isinstance(node, ast.BoolOp):
            connective = (
                BoolConnective.AND if node.op == "AND" else BoolConnective.OR
            )
            return BoolExpr(
                connective,
                tuple(self._bind_expr(arg, scope) for arg in node.args),
            )
        if isinstance(node, ast.NotOp):
            return Not(self._bind_expr(node.arg, scope))
        if isinstance(node, ast.IsNullOp):
            inner = IsNull(self._bind_expr(node.arg, scope))
            return Not(inner) if node.negated else inner
        if isinstance(node, ast.FuncCall):
            raise BindError(
                "aggregate functions are only allowed in the select list"
            )
        if isinstance(node, (ast.ExistsExpr, ast.InExpr)):
            raise BindError(
                "subquery predicates are only supported as top-level "
                "WHERE conjuncts"
            )
        raise BindError(f"unsupported expression {type(node).__name__}")


_COMPARISON_OPS = {
    "=": ComparisonOp.EQ,
    "<>": ComparisonOp.NE,
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
}

_ARITHMETIC_OPS = {
    "+": ArithmeticOp.ADD,
    "-": ArithmeticOp.SUB,
    "*": ArithmeticOp.MUL,
    "/": ArithmeticOp.DIV,
}


def _ast_conjuncts(node: ast.SqlNode) -> List[ast.SqlNode]:
    """Top-level AND conjuncts of a WHERE clause AST."""
    if isinstance(node, ast.BoolOp) and node.op == "AND":
        return list(node.args)
    return [node]


def _contains_func(node: ast.SqlNode) -> bool:
    if isinstance(node, ast.FuncCall):
        return True
    if isinstance(node, ast.BinaryOp):
        return _contains_func(node.left) or _contains_func(node.right)
    if isinstance(node, ast.BoolOp):
        return any(_contains_func(arg) for arg in node.args)
    if isinstance(node, (ast.NotOp,)):
        return _contains_func(node.arg)
    if isinstance(node, ast.IsNullOp):
        return _contains_func(node.arg)
    return False


def sql_to_tree(text: str, catalog: Catalog) -> LogicalOp:
    """Parse and bind one SQL statement into a logical query tree."""
    from repro.sql.parser import parse_sql

    return Binder(catalog).bind_statement(parse_sql(text))
