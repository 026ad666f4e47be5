"""Unit tests for the SQL parser."""

import pytest

from repro.sql import ast, lexer
from repro.sql.parser import ParseError, parse_sql


class TestSelectBlocks:
    def test_star_select(self):
        block = parse_sql("SELECT * FROM t")
        assert isinstance(block, ast.SelectBlock)
        assert block.star
        assert isinstance(block.table, ast.TableName)
        assert block.table.name == "t"

    def test_item_aliases(self):
        block = parse_sql("SELECT a AS x, b FROM t")
        assert [item.alias for item in block.items] == ["x", None]

    def test_distinct(self):
        assert parse_sql("SELECT DISTINCT * FROM t").distinct

    def test_where_group_order_limit(self):
        block = parse_sql(
            "SELECT a FROM t WHERE a > 1 GROUP BY a ORDER BY a DESC LIMIT 5"
        )
        assert block.where is not None
        assert [ref.name for ref in block.group_by] == ["a"]
        assert block.order_by[0].ascending is False
        assert block.limit == 5

    def test_table_alias(self):
        block = parse_sql("SELECT * FROM orders AS o")
        assert block.table.alias == "o"

    def test_derived_table_requires_alias(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT * FROM (SELECT * FROM t)")


class TestJoins:
    def test_inner_join(self):
        block = parse_sql("SELECT * FROM a INNER JOIN b ON x = y")
        table = block.table
        assert isinstance(table, ast.JoinedTable)
        assert table.kind == "INNER"
        assert isinstance(table.condition, ast.BinaryOp)

    def test_bare_join_means_inner(self):
        block = parse_sql("SELECT * FROM a JOIN b ON x = y")
        assert block.table.kind == "INNER"

    def test_left_outer_join(self):
        block = parse_sql("SELECT * FROM a LEFT OUTER JOIN b ON x = y")
        assert block.table.kind == "LEFT"

    def test_left_join_without_outer(self):
        block = parse_sql("SELECT * FROM a LEFT JOIN b ON x = y")
        assert block.table.kind == "LEFT"

    def test_cross_join_has_no_condition(self):
        block = parse_sql("SELECT * FROM a CROSS JOIN b")
        assert block.table.kind == "CROSS"
        assert block.table.condition is None

    def test_join_chain_left_associative(self):
        block = parse_sql(
            "SELECT * FROM a JOIN b ON x = y CROSS JOIN c"
        )
        outer = block.table
        assert outer.kind == "CROSS"
        assert outer.left.kind == "INNER"


class TestSetOps:
    @pytest.mark.parametrize(
        "keyword,expected",
        [
            ("UNION ALL", "UNION ALL"),
            ("UNION", "UNION"),
            ("INTERSECT", "INTERSECT"),
            ("EXCEPT", "EXCEPT"),
        ],
    )
    def test_set_operators(self, keyword, expected):
        query = parse_sql(f"SELECT a FROM t {keyword} SELECT b FROM u")
        assert isinstance(query, ast.SetOpExpr)
        assert query.op == expected

    def test_set_op_left_associative(self):
        query = parse_sql(
            "SELECT a FROM t UNION SELECT b FROM u UNION SELECT c FROM v"
        )
        assert isinstance(query.left, ast.SetOpExpr)


class TestExpressions:
    def _where(self, text):
        return parse_sql(f"SELECT * FROM t WHERE {text}").where

    def test_precedence_or_lower_than_and(self):
        expr = self._where("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, ast.BoolOp) and expr.op == "OR"
        assert isinstance(expr.args[1], ast.BoolOp)
        assert expr.args[1].op == "AND"

    def test_arithmetic_precedence(self):
        expr = self._where("a + b * c > 1")
        assert isinstance(expr, ast.BinaryOp) and expr.op == ">"
        add = expr.left
        assert add.op == "+"
        assert add.right.op == "*"

    def test_is_null_and_not_null(self):
        assert self._where("a IS NULL") == ast.IsNullOp(
            ast.NameRef(None, "a"), negated=False
        )
        assert self._where("a IS NOT NULL") == ast.IsNullOp(
            ast.NameRef(None, "a"), negated=True
        )

    def test_not(self):
        expr = self._where("NOT a = 1")
        assert isinstance(expr, ast.NotOp)

    def test_exists(self):
        expr = self._where("EXISTS (SELECT 1 FROM u WHERE x = y)")
        assert isinstance(expr, ast.ExistsExpr)
        assert not expr.negated

    def test_not_exists(self):
        expr = self._where("NOT EXISTS (SELECT 1 FROM u WHERE x = y)")
        assert isinstance(expr, ast.ExistsExpr)
        assert expr.negated

    def test_count_star(self):
        block = parse_sql("SELECT COUNT(*) AS n FROM t")
        call = block.items[0].expr
        assert isinstance(call, ast.FuncCall)
        assert call.name == "COUNT" and call.argument is None

    def test_aggregate_with_expression(self):
        block = parse_sql("SELECT SUM(a + b) AS s FROM t")
        call = block.items[0].expr
        assert call.name == "SUM"
        assert isinstance(call.argument, ast.BinaryOp)

    def test_literals(self):
        expr = self._where("a = 'x' AND b = TRUE AND c = NULL")
        values = [arg.right for arg in expr.args]
        assert isinstance(values[0], ast.StringLit)
        assert isinstance(values[1], ast.BoolLit) and values[1].value is True
        assert isinstance(values[2], ast.BoolLit) and values[2].value is None

    def test_number_literal_types(self):
        assert ast.NumberLit("3").value == 3
        assert ast.NumberLit("3.5").value == 3.5


class TestErrors:
    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing input"):
            parse_sql("SELECT * FROM t garbage garbage")

    def test_missing_from(self):
        with pytest.raises(ParseError, match="expected FROM"):
            parse_sql("SELECT a, b")

    def test_bad_limit(self):
        with pytest.raises(ParseError, match="expected number"):
            parse_sql("SELECT * FROM t LIMIT x")

    def test_unexpected_token_in_expression(self):
        with pytest.raises(ParseError, match="unexpected token"):
            parse_sql("SELECT * FROM t WHERE )")


#: Malformed statements and the exact ``ParseError`` text each must keep:
#: the position and the ``got ...`` value of the token the parser stopped at.
MALFORMED = [
    ('SELECT a FROM', "expected identifier at position 13, got ''"),
    ('SELECT FROM t', "unexpected token 'FROM' at position 7"),
    ('SELECT a t', "expected FROM at position 9, got 't'"),
    ('SELECT a FROM t WHERE', "unexpected token '' at position 21"),
    ('SELECT a FROM t LIMIT x', "expected number after LIMIT, got 'x'"),
    ('SELECT a FROM t GROUP a', "expected BY at position 22, got 'a'"),
    ('SELECT a FROM t JOIN u', "expected ON at position 22, got ''"),
    ('SELECT a FROM (SELECT b FROM u)', "expected AS at position 31, got ''"),
    ('SELECT COUNT(* FROM t', "expected ')' at position 15, got 'FROM'"),
    ('SELECT a AS 1 FROM t', "expected identifier at position 12, got '1'"),
    ('SELECT a FROM t ORDER BY 1', "expected identifier at position 25, got '1'"),
    ('SELECT a FROM t WHERE a IS 1', "expected NULL at position 27, got '1'"),
    ('SELECT a FROM t WHERE a NOT EXISTS (SELECT b FROM u)', "expected IN at position 28, got 'EXISTS'"),
    ('SELECT a FROM t t2 x', "trailing input at position 16: 't2'"),
    ('SELECT a FROM t WHERE EXISTS SELECT b FROM u', "expected '(' at position 29, got 'SELECT'"),
    ('(SELECT a FROM t', "expected ')' at position 16, got ''"),
    ('SELECT a FROM t UNION', "expected SELECT at position 21, got ''"),
    ('SELECT t. FROM t', "expected identifier at position 10, got 'FROM'"),
    ('SELECT a FROM t CROSS u', "expected JOIN at position 22, got 'u'"),
    ('SELECT a FROM t LEFT OUTER u ON a = b', "expected JOIN at position 27, got 'u'"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_parse_error_text_is_stable(text, message):
    with pytest.raises(ParseError) as error:
        parse_sql(text)
    assert str(error.value) == message


def test_parsing_builds_no_token_objects():
    """The parser reads the scanner's parallel lists; a ``Token`` per
    lexeme is what the hot path was rid of and must not come back."""
    text = (
        "SELECT n.n_name, COUNT(*) AS c FROM nation AS n "
        "JOIN region AS r ON n.n_regionkey = r.r_regionkey "
        "JOIN supplier AS s ON s.s_nationkey = n.n_nationkey "
        "WHERE r.r_name = 'ASIA' AND s.s_acctbal > 100.5 "
        "GROUP BY n.n_name ORDER BY n.n_name DESC LIMIT 5"
    )
    assert not hasattr(lexer, "Token") and not hasattr(lexer, "tokenize")
    kinds, values, positions = lexer.scan(text)
    assert {type(kind) for kind in kinds} == {type(v) for v in values} == {str}
    assert {type(position) for position in positions} == {int}
    assert parse_sql(text).limit == 5
