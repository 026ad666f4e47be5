"""SQL tokenizer for the dialect emitted by :mod:`repro.sql.generate`.

:func:`scan` is the parser's lexer: one ``findall`` over one compiled
pattern, two parallel lists.  A keyword, operator or punctuation token's
*kind* is its own upper-case text (``"SELECT"``, ``"<="``, ``"("``); every
other token's kind is one of :data:`IDENT`, :data:`NUMBER`, :data:`STRING`
or :data:`EOF`.  Token positions are needed only for an error message, so
:func:`scan` builds none; :func:`token_positions` works them out from the
same pattern when one is.
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

# One match is one token and the whitespace before it; the one group is the
# token's text.  ``\d`` is ``str.isdecimal`` and ``\w`` is ``str.isalnum`` or
# ``_``.  A string's closing quote is the first one not doubled, hence
# ``(?!')``.  The last alternative takes any other character, so the matches
# cover every non-space character and a character no token starts with comes
# back as a token of its own, which :func:`scan` rejects: a stray character,
# the quote of an unterminated string, or a word whose first character is
# numeric but not decimal (``"½"``).
_TOKEN = re.compile(
    r"\s*([^\W\d]\w*"
    r"|\d+(?:\.\d+)?"
    r"|'[^']*(?:''[^']*)*'(?!')"
    r"|<>|<=|>=|[-=<>+*/(),.]"
    r"|\S)"
)


class LexError(Exception):
    """Raised on unrecognized input."""


def token_positions(text: str) -> List[int]:
    """The start of each token of ``text`` as :func:`scan` splits it, then
    EOF's (``len(text)``): an error message's positions, which the hot
    path never builds."""
    positions = [match.start(1) for match in _TOKEN.finditer(text)]
    positions.append(len(text))
    return positions


def scan(text: str) -> Tuple[List[str], List[str]]:
    """``(kinds, values)`` of ``text``; always ends with EOF."""
    kinds: List[str] = []
    values: List[str] = []
    for value in _TOKEN.findall(text):
        kind = _KINDS.get(value.upper())
        if kind is not None:
            value = kind
        else:
            first = value[0]
            if first.isalpha() or first == "_":
                kind = IDENT
            elif first.isdecimal():
                kind = NUMBER
            elif first == "'" and len(value) > 1:
                kind = STRING
                value = value[1:-1].replace("''", "'")
            else:
                position = token_positions(text)[len(kinds)]
                if first == "'":
                    raise LexError(f"unterminated string at {position}")
                raise LexError(
                    f"unexpected character {first!r} at {position}"
                )
        kinds.append(kind)
        values.append(value)
    kinds.append(EOF)
    values.append("")
    return kinds, values
