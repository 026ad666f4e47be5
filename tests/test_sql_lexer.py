"""Unit tests for the SQL tokenizer, read through :func:`scan`'s
``(kinds, values)`` lists and :func:`token_positions`."""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sql.generate import to_sql
from repro.sql.lexer import (
    EOF,
    IDENT,
    KEYWORDS,
    NUMBER,
    STRING,
    LexError,
    scan,
    token_positions,
)
from repro.testing.random_gen import RandomQueryGenerator


def _values(text):
    return scan(text)[1][:-1]  # drop EOF


class TestTokenization:
    def test_keywords_uppercased(self):
        kinds, values = scan("select From WHERE")
        assert values[:-1] == ["SELECT", "FROM", "WHERE"]
        assert kinds[:-1] == values[:-1]  # a keyword's kind is its text

    def test_identifiers_keep_case(self):
        kinds, values = scan("MyTable my_col")
        assert values[:-1] == ["MyTable", "my_col"]
        assert kinds[0] == IDENT

    def test_numbers(self):
        assert _values("42 3.14") == ["42", "3.14"]
        kinds, _ = scan("42 3.14")
        assert kinds[0] == NUMBER

    def test_qualified_name_dot_is_punct(self):
        values = _values("t.a")
        assert values == ["t", ".", "a"]

    def test_number_then_dot_identifier(self):
        # "1.x" must not swallow the dot into the number.
        values = _values("q1.x")
        assert values == ["q1", ".", "x"]

    def test_string_literal(self):
        kinds, values = scan("'hello'")
        assert kinds[0] == STRING
        assert values[0] == "hello"

    def test_string_with_escaped_quote(self):
        assert _values("'o''brien'") == ["o'brien"]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError, match="unterminated"):
            scan("'oops")

    def test_operators_longest_match(self):
        assert _values("a <= b <> c >= d") == ["a", "<=", "b", "<>", "c", ">=", "d"]

    def test_punct(self):
        assert _values("(a, b)") == ["(", "a", ",", "b", ")"]

    def test_unknown_character_raises(self):
        with pytest.raises(LexError, match="unexpected character"):
            scan("a ; b")

    def test_eof_token_present(self):
        kinds, values = scan("a")
        assert (kinds[-1], values[-1]) == (EOF, "")
        assert token_positions("a") == [0, 1]

    def test_aggregate_names_are_keywords(self):
        kinds, _ = scan("COUNT SUM MIN MAX AVG")
        assert all(kind in KEYWORDS for kind in kinds[:-1])


# ------------------------------------------- the character-loop reference


def _reference_tokens(text):
    """The lexer as a loop over characters: the reference the one-pattern
    scanner must reproduce, as ``(kind, value, position)`` triples in
    :func:`scan`'s vocabulary."""
    position = 0
    length = len(text)
    while position < length:
        ch = text[position]
        if ch.isspace():
            position += 1
            continue
        if ch == "'":
            end = position + 1
            chunks = []
            while True:
                if end >= length:
                    raise LexError(f"unterminated string at {position}")
                if text[end] == "'":
                    if end + 1 < length and text[end + 1] == "'":
                        chunks.append("'")
                        end += 2
                        continue
                    break
                chunks.append(text[end])
                end += 1
            yield (STRING, "".join(chunks), position)
            position = end + 1
            continue
        if ch.isdigit():
            end = position
            saw_dot = False
            while end < length and (
                text[end].isdigit() or (text[end] == "." and not saw_dot)
            ):
                if text[end] == ".":
                    # A dot not followed by a digit is punctuation.
                    if end + 1 >= length or not text[end + 1].isdigit():
                        break
                    saw_dot = True
                end += 1
            yield (NUMBER, text[position:end], position)
            position = end
            continue
        if ch.isalpha() or ch == "_":
            end = position
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[position:end]
            upper = word.upper()
            if upper in KEYWORDS:
                yield (upper, upper, position)
            else:
                yield (IDENT, word, position)
            position = end
            continue
        for operator in ("<>", "<=", ">=", "=", "<", ">", "+", "-", "*", "/"):
            if text.startswith(operator, position):
                yield (operator, operator, position)
                position += len(operator)
                break
        else:
            if ch in "(),.":
                yield (ch, ch, position)
                position += 1
                continue
            raise LexError(f"unexpected character {ch!r} at {position}")
    yield (EOF, "", length)


def _outcome(lex, text):
    try:
        return list(lex(text))
    except LexError as error:
        return f"LexError: {error}"


def _triples(text):
    kinds, values = scan(text)
    return list(zip(kinds, values, token_positions(text)))


def _assert_same_as_reference(text):
    assert _outcome(_triples, text) == _outcome(_reference_tokens, text)


def _digit_not_decimal(ch):
    return ch.isdigit() and not ch.isdecimal()


_SQL_ALPHABET = "SELCTFROMWHINAXDUabz_019.,()<>=+-*/' \n\t\u00a0\u3000é"


class TestScannerMatchesReference:
    @given(text=st.text())
    @settings(max_examples=500, deadline=None)
    def test_any_text(self, text):
        assume(not any(map(_digit_not_decimal, text)))
        _assert_same_as_reference(text)

    @given(text=st.text(alphabet=_SQL_ALPHABET))
    @settings(max_examples=500, deadline=None)
    def test_sql_like_text(self, text):
        assume(not any(map(_digit_not_decimal, text)))
        _assert_same_as_reference(text)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_generated_statements(self, tpch_db, seed):
        tree = RandomQueryGenerator(
            tpch_db.catalog, seed=seed, min_operators=2, max_operators=7
        ).random_tree()
        _assert_same_as_reference(to_sql(tree))

    @pytest.mark.parametrize("text", [
        "", "   ", "'", "''", "'''", "'a''", "'a'''", "'a''''b'", "1.", "1..2",
        "1.2.3", ".5", "a.b", "ſelect", "x\u3000y", "a²", "½", "a ; b",
        "t1.c1<>=<=>=", "'it''s' AND x", "٣.٤",
    ])
    def test_corner_cases(self, text):
        _assert_same_as_reference(text)

    def test_a_digit_that_is_not_decimal_starts_no_token(self):
        """``"²".isdigit()`` is true, so the character loop read ``"²"`` as
        a NUMBER that ``int``/``float`` then refuse; ``\\d`` is
        ``str.isdecimal`` and does not match it.  Such a character is
        rejected where a token would start, like any other stray one, and
        stays legal inside an identifier, where ``str.isalnum`` admits it."""
        with pytest.raises(LexError, match=r"unexpected character '²' at 4"):
            scan("a = ²")
        with pytest.raises(LexError, match=r"unexpected character '³' at 1"):
            scan("1³")
        assert _values("a²") == ["a²"]
        assert list(_reference_tokens("²"))[0] == (NUMBER, "²", 0)

    def test_regex_classes_are_the_reference_predicates(self):
        """The pattern's ``\\s``, ``\\d`` and ``\\w`` are exactly
        ``isspace``, ``isdecimal`` and ``isalnum or _`` over every code
        point, so the reference and the scanner differ only where the
        reference called ``isdigit``."""
        every = "".join(
            chr(code) for code in range(0x110000)
            if not 0xD800 <= code < 0xE000
        )
        for pattern, predicate in [
            (r"\s", str.isspace),
            (r"\d", str.isdecimal),
            (r"\w", lambda ch: ch.isalnum() or ch == "_"),
        ]:
            assert set(re.findall(pattern, every)) == set(
                filter(predicate, every)
            ), pattern
