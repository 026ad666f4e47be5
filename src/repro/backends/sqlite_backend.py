"""stdlib ``sqlite3`` as a fleet backend.

Lifted out of the original one-off differential test
(``tests/test_sqlite_differential.py``): the test database is mirrored
into an in-memory SQLite database and every query runs as SQL text
rendered in the SQLite dialect -- truncating integer division is
compensated with a REAL cast, booleans render as ``1``/``0`` (see
:data:`repro.sql.dialect.SQLITE_DIALECT`), so no query needs to be
skip-listed anymore.

The differential runner drives every backend on its calling thread, so
the connection keeps sqlite3's default same-thread check.
"""

from __future__ import annotations

import sqlite3

from repro.backends.base import ConnectionBackend, mirror_tables
from repro.catalog.schema import DataType
from repro.sql.dialect import SQLITE_DIALECT
from repro.storage.database import Database

#: Our catalog types rendered as SQLite storage classes.  DATE columns are
#: stored as ordinal integers throughout the workloads; BOOL has no SQLite
#: type and becomes INTEGER (result bags normalize booleans to ints).
SQLITE_TYPES = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.STRING: "TEXT",
    DataType.DATE: "INTEGER",
    DataType.BOOL: "INTEGER",
}


def sqlite_mirror(database: Database) -> sqlite3.Connection:
    """Materialize ``database`` as an in-memory SQLite database."""
    conn = sqlite3.connect(":memory:")
    mirror_tables(conn, database, SQLITE_DIALECT, SQLITE_TYPES)
    conn.commit()
    return conn


class SqliteBackend(ConnectionBackend):
    """The battle-tested independent executor every environment has."""

    name = "sqlite"
    dialect = SQLITE_DIALECT
    driver_error = sqlite3.Error

    def mirror(self, database: Database) -> sqlite3.Connection:
        return sqlite_mirror(database)
