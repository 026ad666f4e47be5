"""Pluggable execution backends for differential correctness testing.

The paper's oracle compares ``Plan(q)`` against ``Plan(q, ¬R)`` inside a
single engine; this package generalizes it into a *fleet* of independent
SQL implementations behind one protocol (:class:`Backend`): the in-process
engine, stdlib ``sqlite3``, and optionally DuckDB.  The differential
runner (:mod:`repro.testing.differential`) fans each test query out across
the fleet and compares normalized result bags -- an independent semantics
implementation catches rule bugs a self-comparison cannot.

See ``docs/BACKENDS.md`` for the protocol, the dialect matrix and how to
add a backend.
"""

from repro.backends.base import (
    Backend,
    BackendError,
    BackendRun,
    BackendUnavailable,
    ConnectionBackend,
    ResultBag,
    bag_diff_summary,
    bag_fingerprint,
    normalized_bag,
)
from repro.backends.engine import EngineBackend
from repro.backends.registry import BACKEND_NAMES, create_backends
from repro.backends.sqlite_backend import (
    SQLITE_TYPES,
    SqliteBackend,
    sqlite_mirror,
)

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "BackendError",
    "BackendRun",
    "BackendUnavailable",
    "ConnectionBackend",
    "EngineBackend",
    "ResultBag",
    "SQLITE_TYPES",
    "SqliteBackend",
    "bag_diff_summary",
    "bag_fingerprint",
    "create_backends",
    "normalized_bag",
    "sqlite_mirror",
]
