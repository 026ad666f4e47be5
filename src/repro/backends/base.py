"""The backend protocol of the differential fleet.

A *backend* is one independent implementation of SQL semantics that the
differential runner (:mod:`repro.testing.differential`) can fan test
queries out to.  The in-process engine is one backend; stdlib ``sqlite3``
is another; DuckDB a third when installed.  Every backend receives the
*same logical query tree* and renders it through its own
:class:`~repro.sql.dialect.Dialect`, so dialect differences (integer
division, boolean literals, quoting) are compiled away instead of
skip-listed.

The protocol is deliberately small:

* :meth:`Backend.setup` -- create the schema and load the test database;
* :meth:`Backend.run_many` -- the one way to run queries: a batch of
  trees in, one :class:`BackendRun` per tree out (rows and digest), any
  failure converted into an error-carrying run (one backend crashing
  must not abort the fleet).

:class:`ConnectionBackend` is that protocol for drivers that execute SQL
text (sqlite, duckdb): one mirror loop (:func:`mirror_tables`), one fetch,
and a ``run_many`` that renders, fetches and digests each query in turn:
one statement per query.  The in-process engine batches its own
``run_many`` (:mod:`repro.backends.engine`).

Result comparison is *bag* comparison over canonicalized rows: floats are
quantized (:func:`repro.engine.results.canonical_row`) and booleans map to
integers, because SQLite has no boolean type and DuckDB returns genuine
``bool`` -- both are correct renderings of the same relation.  The
equality test is the :class:`~repro.engine.digest.BagDigest` every run
carries; the exact bag (:func:`normalized_bag`) is built only to explain
a difference or to fingerprint a collect artifact.
"""

from __future__ import annotations

import abc
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.engine.digest import BagDigest, digest_rows
from repro.engine.results import QueryResult, canonical_row
from repro.logical.operators import LogicalOp
from repro.sql.dialect import Dialect
from repro.sql.generate import to_sql
from repro.storage.database import Database


class BackendError(Exception):
    """A backend failed to set up or execute a query."""


class BackendUnavailable(BackendError):
    """The backend's driver is not installed in this environment."""


#: A normalized result bag: canonical row -> multiplicity.
ResultBag = Counter


def normalized_bag(rows: Iterable[Tuple]) -> ResultBag:
    """Canonical comparison bag: floats quantized, booleans as integers."""
    bag: ResultBag = Counter()
    for row in rows:
        bag[
            canonical_row(
                tuple(
                    int(value) if isinstance(value, bool) else value
                    for value in row
                )
            )
        ] += 1
    return bag


def bag_fingerprint(bag: ResultBag) -> str:
    """Order-independent digest of a result bag (collect artifacts)."""
    payload = repr(sorted(bag.items(), key=repr)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def bag_diff_summary(expected: ResultBag, actual: ResultBag) -> str:
    """Short description of how two bags differ (mirrors
    :func:`repro.engine.results.diff_summary` for backend bags)."""
    only_expected = expected - actual
    only_actual = actual - expected
    parts = [
        f"rows: {sum(expected.values())} vs {sum(actual.values())}"
    ]
    if only_expected:
        sample = min(only_expected, key=repr)
        parts.append(
            f"{sum(only_expected.values())} rows only in reference, "
            f"e.g. {sample}"
        )
    if only_actual:
        sample = min(only_actual, key=repr)
        parts.append(
            f"{sum(only_actual.values())} rows only here, e.g. {sample}"
        )
    return "; ".join(parts)


@dataclass
class BackendRun:
    """One backend's outcome for one query."""

    backend: str
    query_id: int
    sql: str
    #: What the rows are read from: the fetched row list, or the engine's
    #: :class:`QueryResult`, whose rows are built from its columns only
    #: when :attr:`bag` needs them; ``None`` when the run errored.
    source: Union[Sequence[Tuple], QueryResult, None] = field(
        default=None, repr=False
    )
    #: What the runner compares (process-local, never written out).
    digest: Optional[BagDigest] = None
    row_count: int = 0
    column_count: int = 0
    error: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.error is None

    def record(self, rows: Sequence[Tuple]) -> None:
        """Attach a successful execution's fetched rows."""
        self.source = rows
        self.digest = digest_rows(rows)
        self.row_count = len(rows)
        self.column_count = len(rows[0]) if rows else 0

    def record_result(self, result: QueryResult) -> None:
        """Attach an engine result: its cached digest, and its rows only
        if :attr:`bag` is ever read."""
        self.source = result
        self.digest = result.bag_digest()
        self.row_count = result.row_count
        self.column_count = len(result.columns) if result.row_count else 0

    @property
    def rows(self) -> Optional[Sequence[Tuple]]:
        """The raw rows; ``None`` when the run errored."""
        source = self.source
        return source.rows if isinstance(source, QueryResult) else source

    @cached_property
    def bag(self) -> Optional[ResultBag]:
        """The exact bag, built on first read: explains a disagreement,
        fingerprints a collect artifact -- never decides a verdict."""
        return None if self.source is None else normalized_bag(self.rows)

    def to_json_dict(self) -> dict:
        return {
            "sql": self.sql,
            "error": self.error,
            "rows": self.row_count,
            "columns": self.column_count,
            "bag_fingerprint": (
                bag_fingerprint(self.bag) if self.bag is not None else None
            ),
        }


class Backend(abc.ABC):
    """One SQL semantics implementation in the differential fleet."""

    #: Display/registry name; fleet-unique (the runner enforces it).
    name: str = "backend"
    #: The dialect trees are rendered with before reaching this backend.
    dialect: Dialect

    def __init__(self) -> None:
        self._ready = False

    @abc.abstractmethod
    def setup(self, database: Database) -> None:
        """Create the schema and load every table of ``database``."""

    @abc.abstractmethod
    def run_many(
        self, requests: Sequence[Tuple[int, LogicalOp]]
    ) -> List[BackendRun]:
        """One :class:`BackendRun` per ``(query_id, tree)`` request, in
        order; never raises -- a failing query is an error-carrying run,
        so one backend crashing cannot abort the fleet."""

    def close(self) -> None:
        """Release any resources (connections)."""

    def ensure_ready(self, database: Database) -> None:
        if not self._ready:
            self.setup(database)
            self._ready = True

    def _rendered(self, query_id: int, tree: LogicalOp) -> BackendRun:
        """A run holding ``tree`` rendered in this backend's dialect, or
        the rendering failure as its error."""
        try:
            sql = to_sql(tree, self.dialect)
        except Exception as exc:  # rendering bug: attribute, don't abort
            return BackendRun(
                backend=self.name, query_id=query_id, sql="",
                error=f"sql rendering failed: {exc}",
            )
        return BackendRun(backend=self.name, query_id=query_id, sql=sql)


def mirror_tables(
    conn, database: Database, dialect: Dialect, column_types: Dict
) -> None:
    """CREATE and fill every table of ``database`` over a DB-API
    connection, with ``column_types`` mapping catalog types to the
    driver's column types."""
    for table in database.tables():
        definition = table.definition
        name = dialect.identifier(definition.name)
        columns = ", ".join(
            f"{dialect.identifier(column.name)} "
            f"{column_types[column.data_type]}"
            for column in definition.columns
        )
        conn.execute(f"CREATE TABLE {name} ({columns})")
        if table.rows:
            slots = ", ".join("?" * len(definition.columns))
            conn.executemany(
                f"INSERT INTO {name} VALUES ({slots})", table.rows
            )


class ConnectionBackend(Backend):
    """A backend that mirrors the test database over a DB-API connection
    and runs each query as SQL text.

    Subclasses supply :meth:`mirror`; failures of the driver
    (``driver_error``) become :class:`BackendError` messages prefixed with
    the backend's name.
    """

    #: What the driver raises for a failed statement.
    driver_error: type = Exception

    def __init__(self) -> None:
        super().__init__()
        self._conn = None

    @abc.abstractmethod
    def mirror(self, database: Database):
        """A fresh in-memory connection holding every table of
        ``database`` (see :func:`mirror_tables`)."""

    def setup(self, database: Database) -> None:
        try:
            self._conn = self.mirror(database)
        except self.driver_error as exc:
            raise BackendError(f"{self.name} mirror failed: {exc}") from exc

    def fetch(self, sql: str) -> List[Tuple]:
        """Every row of one statement; raises :class:`BackendError`."""
        if self._conn is None:
            raise BackendError(f"{self.name} backend is not set up")
        try:
            return self._conn.execute(sql).fetchall()
        except self.driver_error as exc:
            raise BackendError(f"{self.name} error: {exc}") from exc

    def run_many(
        self, requests: Sequence[Tuple[int, LogicalOp]]
    ) -> List[BackendRun]:
        runs = []
        for query_id, tree in requests:
            run = self._rendered(query_id, tree)
            runs.append(run)
            if run.error is not None:
                continue
            try:
                run.record(self.fetch(run.sql))
            except BackendError as exc:
                run.error = str(exc)
        return runs

    def run(self, query_id: int, tree: LogicalOp) -> BackendRun:
        """:meth:`run_many` of one request (the benchmark probe times
        sqlite one query at a time)."""
        (run,) = self.run_many([(query_id, tree)])
        return run

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
