"""DuckDB as an optional fleet backend.

DuckDB is a genuinely different execution architecture (vectorized,
columnar) with its own optimizer, which makes it a strong third opinion
when it is installed.  The dependency is optional by design: importing
this module never imports ``duckdb``; constructing :class:`DuckDBBackend`
raises :class:`BackendUnavailable` when the driver is missing, and the
backend registry (:mod:`repro.backends.registry`) turns that into a clean
per-backend skip instead of a hard failure.

DuckDB's ``/`` is exact division and its booleans are first-class, so the
dialect only differs from the engine's in identifier quoting (see
:data:`repro.sql.dialect.DUCKDB_DIALECT`).
"""

from __future__ import annotations

from repro.backends.base import (
    BackendUnavailable,
    ConnectionBackend,
    mirror_tables,
)
from repro.catalog.schema import DataType
from repro.sql.dialect import DUCKDB_DIALECT
from repro.storage.database import Database

#: Catalog types as DuckDB column types (DATE columns hold ordinal ints).
DUCKDB_TYPES = {
    DataType.INT: "BIGINT",
    DataType.FLOAT: "DOUBLE",
    DataType.STRING: "VARCHAR",
    DataType.DATE: "BIGINT",
    DataType.BOOL: "BOOLEAN",
}


def _import_duckdb():
    try:
        import duckdb
    except ImportError as exc:
        raise BackendUnavailable(
            "duckdb is not installed in this environment"
        ) from exc
    return duckdb


class DuckDBBackend(ConnectionBackend):
    """Optional third opinion; construction fails cleanly when missing."""

    name = "duckdb"
    dialect = DUCKDB_DIALECT

    def __init__(self) -> None:
        super().__init__()
        self._duckdb = _import_duckdb()

    def mirror(self, database: Database):
        conn = self._duckdb.connect(":memory:")
        mirror_tables(conn, database, self.dialect, DUCKDB_TYPES)
        return conn
