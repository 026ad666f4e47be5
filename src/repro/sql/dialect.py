"""SQL dialects: the per-backend rendering knobs of the generator.

The paper's generator targets a single engine, so its SQL only has to be
*self*-consistent.  Differential testing across independent backends
(:mod:`repro.backends`) needs the same logical tree rendered with each
backend's semantics instead -- the alternative is a skip list that silently
shrinks the differential surface (the old ``"/" not in sql`` filter dropped
every query with arithmetic division).

A :class:`Dialect` captures exactly the axes on which the supported
backends disagree:

* **Division.**  The in-process engine (and DuckDB) divide exactly:
  ``7 / 2 = 3.5``.  SQLite truncates integer division, so its dialect
  renders ``a / b`` as ``CAST(a AS REAL) / b``.  Division by zero yields
  NULL in all supported backends, matching the engine's evaluator
  (:mod:`repro.expr.vector`) and its reference, ``_arith`` in
  :mod:`repro.testing.reference_executor`.
* **Boolean literals.**  The engine dialect keeps the ``TRUE`` / ``FALSE``
  keywords; SQLite has no boolean type and stores ``1`` / ``0``.
* **Identifier quoting.**  Generated identifiers (``<name>_<cid>``, table
  names, aliases) are keyword-safe by construction, but external backends
  get them double-quoted anyway so the emitted SQL survives schemas whose
  names collide with reserved words.

Dialects are frozen values; :data:`DIALECTS` maps their names for CLI and
backend lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Dialect:
    """Rendering rules for one SQL dialect."""

    name: str
    #: Quote character wrapped around identifiers ("" leaves them bare).
    identifier_quote: str = ""
    #: Literal text for boolean TRUE / FALSE.
    true_literal: str = "TRUE"
    false_literal: str = "FALSE"
    #: Whether ``/`` divides exactly on integer operands (true division).
    #: When False, division renders with a REAL cast on the left operand.
    true_division: bool = True

    def identifier(self, name: str) -> str:
        """Render one identifier (column alias, table name, query alias)."""
        if not self.identifier_quote:
            return name
        quote = self.identifier_quote
        return f"{quote}{name.replace(quote, quote * 2)}{quote}"

    def qualified(self, qualifier: str, name: str) -> str:
        """Render ``qualifier.name`` with both parts quoted."""
        return f"{self.identifier(qualifier)}.{self.identifier(name)}"

    def bool_literal(self, value: bool) -> str:
        return self.true_literal if value else self.false_literal

    def division(self, left: str, right: str) -> str:
        """Render ``left / right`` with this dialect's division semantics."""
        if self.true_division:
            return f"({left} / {right})"
        return f"(CAST({left} AS REAL) / {right})"


#: The in-process engine's native dialect: bare identifiers, TRUE/FALSE
#: keywords, exact division.  This is the dialect the lexer/parser/binder
#: round-trip, and the default everywhere -- rendering with it is
#: byte-identical to the pre-dialect generator.
ENGINE_DIALECT = Dialect(name="engine")

#: stdlib ``sqlite3``: truncating integer division (worked around with a
#: REAL cast), no boolean type (1/0 literals), quoted identifiers.
SQLITE_DIALECT = Dialect(
    name="sqlite",
    identifier_quote='"',
    true_literal="1",
    false_literal="0",
    true_division=False,
)

#: DuckDB: ``/`` is true division (``//`` is the integer form), booleans
#: are first-class, identifiers quote like SQLite's.
DUCKDB_DIALECT = Dialect(
    name="duckdb",
    identifier_quote='"',
    true_division=True,
)

#: Name -> dialect, for backend registries and CLI flags.
DIALECTS: Dict[str, Dialect] = {
    dialect.name: dialect
    for dialect in (ENGINE_DIALECT, SQLITE_DIALECT, DUCKDB_DIALECT)
}
