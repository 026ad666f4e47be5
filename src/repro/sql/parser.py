"""Recursive-descent parser for the generated SQL dialect."""

from __future__ import annotations

from typing import Optional

from repro.sql.ast import (
    BinaryOp,
    BoolLit,
    BoolOp,
    DerivedTable,
    ExistsExpr,
    FuncCall,
    InExpr,
    IsNullOp,
    JoinedTable,
    NameRef,
    NotOp,
    NumberLit,
    OrderItem,
    QueryExpr,
    SelectBlock,
    SelectItem,
    SetOpExpr,
    SqlNode,
    StringLit,
    TableName,
)
from repro.sql.lexer import EOF, IDENT, NUMBER, STRING, scan, token_positions

_AGG_KEYWORDS = {"COUNT", "SUM", "MIN", "MAX", "AVG"}
_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}
_BOOL_LITERALS = {"TRUE": True, "FALSE": False, "NULL": None}


class ParseError(Exception):
    """Raised on syntactically invalid input."""


class Parser:
    """One-statement SQL parser.

    It reads the lexer's parallel lists and decides on ``self._kinds``
    alone: a keyword or symbol test is one string ``==``.  A token's
    position is worked out only for an error message.
    """

    def __init__(self, text: str) -> None:
        self._text = text
        self._kinds, self._values = scan(text)
        self._index = 0

    def _position(self, index: int) -> int:
        return token_positions(self._text)[index]

    # ----------------------------------------------------------- token utils

    def _kind(self) -> str:
        return self._kinds[self._index]

    def _advance(self) -> str:
        """Consume the current token and return its value."""
        self._index += 1
        return self._values[self._index - 1]

    def _accept(self, kind: str) -> bool:
        if self._kinds[self._index] == kind:
            self._index += 1
            return True
        return False

    def _expect(self, kind: str) -> str:
        """Consume a token of ``kind`` and return its value."""
        index = self._index
        if self._kinds[index] != kind:
            if kind == IDENT:
                wanted = "identifier"
            else:
                wanted = kind if kind[0].isalpha() else repr(kind)
            raise ParseError(
                f"expected {wanted} at position {self._position(index)}, "
                f"got {self._values[index]!r}"
            )
        self._index = index + 1
        return self._values[index]

    # ------------------------------------------------------------ statements

    def parse(self) -> QueryExpr:
        query = self._query_expr()
        index = self._index
        if self._kinds[index] != EOF:
            raise ParseError(
                f"trailing input at position {self._position(index)}: "
                f"{self._values[index]!r}"
            )
        return query

    def _query_expr(self) -> QueryExpr:
        left = self._query_term()
        while True:
            kind = self._kind()
            if kind == "UNION":
                self._index += 1
                op = "UNION ALL" if self._accept("ALL") else "UNION"
            elif kind == "INTERSECT" or kind == "EXCEPT":
                self._index += 1
                op = kind
            else:
                return left
            left = SetOpExpr(op, left, self._query_term())

    def _query_term(self) -> QueryExpr:
        if self._accept("("):
            inner = self._query_expr()
            self._expect(")")
            return inner
        return self._select_block()

    def _select_block(self) -> SelectBlock:
        self._expect("SELECT")
        block = SelectBlock()
        block.distinct = self._accept("DISTINCT")
        if self._accept("*"):
            block.star = True
        else:
            block.items.append(self._select_item())
            while self._accept(","):
                block.items.append(self._select_item())
        self._expect("FROM")
        block.table = self._table_ref()
        if self._accept("WHERE"):
            block.where = self._expr()
        if self._accept("GROUP"):
            self._expect("BY")
            block.group_by.append(self._name_ref())
            while self._accept(","):
                block.group_by.append(self._name_ref())
        if self._accept("ORDER"):
            self._expect("BY")
            block.order_by.append(self._order_item())
            while self._accept(","):
                block.order_by.append(self._order_item())
        if self._accept("LIMIT"):
            index = self._index
            value = self._values[index]
            if self._kinds[index] != NUMBER:
                raise ParseError(f"expected number after LIMIT, got {value!r}")
            if "." in value:
                raise ParseError(
                    f"expected an integer after LIMIT at position "
                    f"{self._position(index)}, got {value!r}"
                )
            block.limit = int(self._advance())
        return block

    def _select_item(self) -> SelectItem:
        expr = self._expr()
        alias: Optional[str] = None
        if self._accept("AS"):
            alias = self._expect(IDENT)
        return SelectItem(expr, alias)

    def _order_item(self) -> OrderItem:
        name = self._name_ref()
        ascending = True
        if self._accept("DESC"):
            ascending = False
        else:
            self._accept("ASC")
        return OrderItem(name, ascending)

    def _name_ref(self) -> NameRef:
        first = self._expect(IDENT)
        if self._accept("."):
            return NameRef(first, self._expect(IDENT))
        return NameRef(None, first)

    # ------------------------------------------------------------ table refs

    def _table_ref(self) -> SqlNode:
        left = self._table_primary()
        while True:
            kind = self._kind()
            if kind == "CROSS":
                self._index += 1
                self._expect("JOIN")
                right = self._table_primary()
                left = JoinedTable("CROSS", left, right, None)
            elif kind == "INNER" or kind == "JOIN":
                self._accept("INNER")
                self._expect("JOIN")
                right = self._table_primary()
                self._expect("ON")
                left = JoinedTable("INNER", left, right, self._expr())
            elif kind == "LEFT":
                self._index += 1
                self._accept("OUTER")
                self._expect("JOIN")
                right = self._table_primary()
                self._expect("ON")
                left = JoinedTable("LEFT", left, right, self._expr())
            else:
                return left

    def _table_primary(self) -> SqlNode:
        if self._accept("("):
            query = self._query_expr()
            self._expect(")")
            self._expect("AS")
            alias = self._expect(IDENT)
            return DerivedTable(query, alias)
        name = self._expect(IDENT)
        alias = None
        if self._accept("AS"):
            alias = self._expect(IDENT)
        return TableName(name, alias)

    # ----------------------------------------------------------- expressions

    def _expr(self) -> SqlNode:
        return self._or_expr()

    def _or_expr(self) -> SqlNode:
        parts = [self._and_expr()]
        while self._accept("OR"):
            parts.append(self._and_expr())
        if len(parts) == 1:
            return parts[0]
        return BoolOp("OR", tuple(parts))

    def _and_expr(self) -> SqlNode:
        parts = [self._not_expr()]
        while self._accept("AND"):
            parts.append(self._not_expr())
        if len(parts) == 1:
            return parts[0]
        return BoolOp("AND", tuple(parts))

    def _not_expr(self) -> SqlNode:
        if self._accept("NOT"):
            if self._kind() == "EXISTS":
                exists = self._exists()
                return ExistsExpr(exists.query, negated=True)
            return NotOp(self._not_expr())
        if self._kind() == "EXISTS":
            return self._exists()
        return self._predicate()

    def _exists(self) -> ExistsExpr:
        self._expect("EXISTS")
        self._expect("(")
        query = self._query_expr()
        self._expect(")")
        return ExistsExpr(query, negated=False)

    def _predicate(self) -> SqlNode:
        left = self._additive()
        kind = self._kind()
        if kind in _COMPARISONS:
            op = self._advance()
            right = self._additive()
            return BinaryOp(op, left, right)
        if kind == "IS":
            self._index += 1
            negated = self._accept("NOT")
            self._expect("NULL")
            return IsNullOp(left, negated)
        if kind == "IN":
            self._index += 1
            return self._in_subquery(left, negated=False)
        if kind == "NOT":
            self._index += 1
            self._expect("IN")
            return self._in_subquery(left, negated=True)
        return left

    def _in_subquery(self, operand: SqlNode, negated: bool) -> InExpr:
        self._expect("(")
        query = self._query_expr()
        self._expect(")")
        return InExpr(operand, query, negated)

    def _additive(self) -> SqlNode:
        left = self._multiplicative()
        while True:
            kind = self._kind()
            if kind == "+" or kind == "-":
                self._index += 1
                left = BinaryOp(kind, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> SqlNode:
        left = self._primary()
        while True:
            kind = self._kind()
            if kind == "*" or kind == "/":
                self._index += 1
                left = BinaryOp(kind, left, self._primary())
            else:
                return left

    def _primary(self) -> SqlNode:
        kind = self._kind()
        if kind == IDENT:
            return self._name_ref()
        if kind == NUMBER:
            return NumberLit(self._advance())
        if kind == STRING:
            return StringLit(self._advance())
        if kind in _BOOL_LITERALS:
            self._index += 1
            return BoolLit(_BOOL_LITERALS[kind])
        if kind in _AGG_KEYWORDS:
            self._index += 1
            self._expect("(")
            argument: Optional[SqlNode]
            if kind == "COUNT" and self._accept("*"):
                argument = None
            else:
                argument = self._expr()
            self._expect(")")
            return FuncCall(kind, argument)
        if self._accept("("):
            inner = self._expr()
            self._expect(")")
            return inner
        raise ParseError(
            f"unexpected token {self._values[self._index]!r} at position "
            f"{self._position(self._index)}"
        )


def parse_sql(text: str) -> QueryExpr:
    """Parse one SQL statement into an AST."""
    return Parser(text).parse()
