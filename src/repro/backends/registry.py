"""Backend registry: names -> fleet members.

The CLI and CI select backends by name (``--backends engine,sqlite,
duckdb``).  :func:`create_backends` instantiates each requested backend
and *partitions* the request into available members and cleanly skipped
ones -- an optional driver that is not installed (DuckDB here) must
degrade to a recorded skip, never abort the campaign.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.backends.base import Backend, BackendUnavailable
from repro.backends.engine import EngineBackend
from repro.backends.sqlite_backend import SqliteBackend
from repro.service import PlanService

#: Names accepted by :func:`create_backends`, in reference-priority order:
#: the first requested name becomes the fleet's reference backend.
BACKEND_NAMES: Tuple[str, ...] = ("engine", "sqlite", "duckdb")


def create_backends(
    names: Sequence[str], service: PlanService
) -> Tuple[List[Backend], Dict[str, str]]:
    """Instantiate a fleet; returns ``(backends, skipped)``.

    ``service`` is the build under test: the engine member plans and
    executes through it (external backends execute SQL text; there is
    nothing to configure).  ``skipped`` maps each unavailable backend
    name -- a driver that is not installed -- to the reason it was
    skipped.  Unknown and repeated names raise ``ValueError``: a typo
    must not silently shrink the fleet.
    """
    backends: List[Backend] = []
    skipped: Dict[str, str] = {}
    for index, name in enumerate(names):
        if name in names[:index]:
            raise ValueError(f"backend {name!r} requested twice")
        if name == "engine":
            backends.append(EngineBackend(service))
        elif name == "sqlite":
            backends.append(SqliteBackend())
        elif name == "duckdb":
            from repro.backends.duckdb_backend import DuckDBBackend

            try:
                backends.append(DuckDBBackend())
            except BackendUnavailable as exc:
                skipped[name] = str(exc)
        else:
            raise ValueError(
                f"unknown backend {name!r} (expected one of "
                f"{', '.join(BACKEND_NAMES)})"
            )
    return backends, skipped
