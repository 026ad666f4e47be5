"""SQL text front/back end: generation, lexing, parsing and binding."""

from repro.sql.dialect import (
    DIALECTS,
    DUCKDB_DIALECT,
    ENGINE_DIALECT,
    SQLITE_DIALECT,
    Dialect,
)
from repro.sql.generate import SqlGenerator, sql_name, to_sql
from repro.sql.lexer import LexError

__all__ = [
    "DIALECTS",
    "DUCKDB_DIALECT",
    "Dialect",
    "ENGINE_DIALECT",
    "LexError",
    "SQLITE_DIALECT",
    "SqlGenerator",
    "sql_name",
    "to_sql",
]


def parse_sql(text: str):
    """Parse one SQL statement into an AST (lazy import avoids cycles)."""
    from repro.sql.parser import parse_sql as _parse

    return _parse(text)


def sql_to_tree(text: str, catalog):
    """Parse and bind SQL text into a logical query tree."""
    from repro.sql.binder import sql_to_tree as _bind

    return _bind(text, catalog)
