"""SQL tokenizer for the dialect emitted by :mod:`repro.sql.generate`.

:func:`scan` is the parser's lexer: one compiled pattern, three parallel
lists.  A keyword, operator or punctuation token's *kind* is its own
upper-case text (``"SELECT"``, ``"<="``, ``"("``); every other token's kind
is one of :data:`IDENT`, :data:`NUMBER`, :data:`STRING` or :data:`EOF`.
"""

from __future__ import annotations

import re
from typing import List, Tuple


KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT",
    "AS", "JOIN", "INNER", "LEFT", "OUTER", "CROSS", "ON", "UNION", "ALL",
    "INTERSECT", "EXCEPT", "AND", "OR", "NOT", "IS", "NULL", "TRUE", "FALSE",
    "EXISTS", "IN", "ASC", "DESC", "COUNT", "SUM", "MIN", "MAX", "AVG",
}

_OPERATORS = ("<>", "<=", ">=", "=", "<", ">", "+", "-", "*", "/")
_PUNCT = "(),."

#: Kinds of the tokens whose text does not name them; lower case, so no
#: keyword or symbol kind can equal one.
IDENT, NUMBER, STRING, EOF = "ident", "number", "string", "eof"

#: Upper-case text -> the one interned kind string the parser compares with.
_KINDS = {kind: kind for kind in (*KEYWORDS, *_OPERATORS, *_PUNCT)}

# One match is one token and the whitespace before it.  ``\d`` is
# ``str.isdecimal`` and ``\w`` is ``str.isalnum`` or ``_``; a word must start
# with a letter or ``_``, which :func:`scan` checks after the match.  A
# string's closing quote is the first one not doubled, hence ``(?!')``.
_TOKEN = re.compile(
    r"\s*(?:(?P<word>[^\W\d]\w*)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<string>'[^']*(?:''[^']*)*'(?!'))"
    r"|(?P<symbol><>|<=|>=|[-=<>+*/(),.]))"
)
_SPACE = re.compile(r"\s*")


class LexError(Exception):
    """Raised on unrecognized input."""


def _gap(text: str, position: int) -> LexError:
    """The error for the first character at or after ``position`` that no
    token starts with."""
    position = _SPACE.match(text, position).end()
    if text[position] == "'":
        return LexError(f"unterminated string at {position}")
    return LexError(f"unexpected character {text[position]!r} at {position}")


def scan(text: str) -> Tuple[List[str], List[str], List[int]]:
    """``(kinds, values, positions)`` of ``text``; always ends with EOF."""
    kinds: List[str] = []
    values: List[str] = []
    positions: List[int] = []
    position = 0
    for match in _TOKEN.finditer(text):
        if match.start() != position:
            raise _gap(text, position)
        position = match.end()
        group = match.lastgroup
        start = match.start(group)
        value = match.group(group)
        if group == "word":
            kind = _KINDS.get(value.upper())
            if kind is not None:
                value = kind
            elif value[0].isalpha() or value[0] == "_":
                kind = IDENT
            else:  # a numeric character such as "½" or "²"
                raise _gap(text, start)
        elif group == "symbol":
            kind = value = _KINDS[value]
        elif group == "number":
            kind = NUMBER
        else:
            kind = STRING
            value = value[1:-1].replace("''", "'")
        kinds.append(kind)
        values.append(value)
        positions.append(start)
    if position != len(text) and not text[position:].isspace():
        raise _gap(text, position)
    kinds.append(EOF)
    values.append("")
    positions.append(len(text))
    return kinds, values, positions
