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
* :meth:`Backend.execute` -- run one tree, return raw rows;
* :meth:`Backend.explain` -- optional: a normalized :class:`PlanShape`;
* :meth:`Backend.run` -- the template method the runner calls: renders
  SQL, executes, digests the result bag, captures the plan shape, and
  converts any failure into an error-carrying :class:`BackendRun` (one
  backend crashing must not abort the fleet).

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
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.engine.digest import BagDigest, digest_rows
from repro.engine.results import canonical_row
from repro.logical.operators import LogicalOp
from repro.sql.dialect import Dialect
from repro.sql.generate import to_sql
from repro.storage.database import Database


class BackendError(Exception):
    """A backend failed to set up or execute a query."""


class BackendUnavailable(BackendError):
    """The backend's driver is not installed in this environment."""


@dataclass(frozen=True)
class PlanShape:
    """A normalized query plan: operator labels with tree depths.

    ``language`` names the plan vocabulary (``"repro"`` for the in-process
    engine's physical operators, ``"sqlite-eqp"`` for SQLite's EXPLAIN
    QUERY PLAN rows, ...).  Shapes are only comparable within one
    language: two backends speaking different plan languages legitimately
    disagree on shape, so the differential runner diffs shapes only
    between same-language backends (the plan-guidance oracle of Ba &
    Rigger, applied across differently-configured instances of one
    engine).
    """

    language: str
    #: Pre-order ``(depth, operator label)`` pairs.
    nodes: Tuple[Tuple[int, str], ...]

    def fingerprint(self) -> str:
        payload = repr((self.language, self.nodes)).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_text(self) -> str:
        return "\n".join(
            f"{'  ' * depth}{label}" for depth, label in self.nodes
        )

    def to_json_dict(self) -> dict:
        return {
            "language": self.language,
            "nodes": [[depth, label] for depth, label in self.nodes],
            "fingerprint": self.fingerprint(),
        }


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
    #: The backend's raw rows; ``None`` when the run errored.
    rows: Optional[Sequence[Tuple]] = field(default=None, repr=False)
    #: What the runner compares (process-local, never written out).
    digest: Optional[BagDigest] = None
    row_count: int = 0
    column_count: int = 0
    plan: Optional[PlanShape] = None
    error: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.error is None

    def record(
        self, rows: Sequence[Tuple], digest: Optional[BagDigest] = None
    ) -> None:
        """Attach a successful execution's rows (and digest, if the
        caller already has one for exactly these rows)."""
        self.rows = rows
        self.digest = digest if digest is not None else digest_rows(rows)
        self.row_count = len(rows)
        self.column_count = len(rows[0]) if rows else 0

    @cached_property
    def bag(self) -> Optional[ResultBag]:
        """The exact bag, built on first read: explains a disagreement,
        fingerprints a collect artifact -- never decides a verdict."""
        return None if self.rows is None else normalized_bag(self.rows)

    def to_json_dict(self) -> dict:
        payload = {
            "sql": self.sql,
            "error": self.error,
            "rows": self.row_count,
            "columns": self.column_count,
            "bag_fingerprint": (
                bag_fingerprint(self.bag) if self.bag is not None else None
            ),
            "plan": self.plan.to_json_dict() if self.plan else None,
        }
        return payload


class Backend(abc.ABC):
    """One SQL semantics implementation in the differential fleet."""

    #: Display/registry name; fleet-unique (the runner enforces it).
    name: str = "backend"
    #: The dialect trees are rendered with before reaching this backend.
    dialect: Dialect
    #: Plan vocabulary of :meth:`explain`, or ``None`` when unsupported.
    plan_language: Optional[str] = None

    def __init__(self) -> None:
        self._ready = False

    # ------------------------------------------------------------- protocol

    @abc.abstractmethod
    def setup(self, database: Database) -> None:
        """Create the schema and load every table of ``database``."""

    @abc.abstractmethod
    def execute(self, tree: LogicalOp, sql: str) -> Sequence[Tuple]:
        """Execute one query and return its raw rows.

        ``sql`` is ``tree`` rendered in this backend's dialect; external
        backends run the text, the in-process engine optimizes the tree.
        Raise :class:`BackendError` on failure.
        """

    def explain(self, tree: LogicalOp, sql: str) -> Optional[PlanShape]:
        """Normalized plan shape for one query (``None``: unsupported)."""
        return None

    def close(self) -> None:
        """Release any resources (connections)."""

    # ------------------------------------------------------------- template

    @property
    def capabilities(self) -> Tuple[str, ...]:
        flags: List[str] = ["execute"]
        if self.plan_language is not None:
            flags.append("explain")
        return tuple(flags)

    def sql_for(self, tree: LogicalOp) -> str:
        return to_sql(tree, self.dialect)

    def ensure_ready(self, database: Database) -> None:
        if not self._ready:
            self.setup(database)
            self._ready = True

    def run(self, query_id: int, tree: LogicalOp) -> BackendRun:
        """Render, execute and digest one query; never raises."""
        try:
            sql = self.sql_for(tree)
        except Exception as exc:  # rendering bug: attribute, don't abort
            return BackendRun(
                backend=self.name, query_id=query_id, sql="",
                error=f"sql rendering failed: {exc}",
            )
        run = BackendRun(backend=self.name, query_id=query_id, sql=sql)
        try:
            rows = list(self.execute(tree, sql))
        except BackendError as exc:
            run.error = str(exc)
            return run
        run.record(rows)
        if self.plan_language is not None:
            try:
                run.plan = self.explain(tree, sql)
            except BackendError:
                # A missing plan is informational, not a verdict change.
                run.plan = None
        return run

    def run_many(
        self, requests: Sequence[Tuple[int, LogicalOp]]
    ) -> List[BackendRun]:
        """Batch form of :meth:`run`; one :class:`BackendRun` per request.

        The default runs serially; backends with a batched execution
        path (the in-process engine) override it to share scans and
        coalesce identical plans while producing byte-identical runs.
        """
        return [self.run(query_id, tree) for query_id, tree in requests]
