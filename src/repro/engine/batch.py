"""One execution request's outcome, with per-item error capture.

The correctness hot path executes many plans against one database — the
baseline plan plus one plan per disabled-rule variant per query, times
every mutant of a campaign.  Many of those plans are *identical* (a
mutant that never fires reproduces the baseline plan exactly);
:meth:`repro.service.PlanService.execute_many` runs each distinct plan
once through :func:`execute_item` and hands every requester the same
:class:`~repro.engine.results.QueryResult` object — which also shares
the cached bag digest, making the follow-up comparisons O(1).

A plan that fails is its own item's verdict: whatever it raises while
executing is captured as that item's :class:`ExecutionError`, so a batch
never raises for a plan and its other items still execute.

Table scans are shared across executions for free: the columnar
executor reads the per-table column snapshot cached on
:class:`~repro.storage.table.StoredTable`, which an insert extends with
the new rows into new lists, never mutating those a result holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.engine.columnar import ExecutionError, execute_plan
from repro.engine.results import QueryResult
from repro.obs.trace import NULL_TRACER, Tracer
from repro.physical.operators import PhysicalOp
from repro.storage.database import Database


@dataclass
class BatchItem:
    """Outcome of one request of an ``execute_many`` call."""

    result: Optional[QueryResult] = None
    error: Optional[ExecutionError] = None
    #: True when this request reused another request's execution.
    coalesced: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def execute_item(
    plan: PhysicalOp,
    database: Database,
    output_columns: Optional[Tuple] = None,
    *,
    tracer: Tracer = NULL_TRACER,
    metrics=None,
) -> BatchItem:
    """Execute one plan; a plan that fails to execute yields an item
    carrying an :class:`ExecutionError` instead of raising, so one bad
    plan does not abort its batch (mirroring how campaign runners handle
    per-query errors).  Any other exception -- a mutated rule's plan
    reading a column its input lacks raises ``KeyError`` -- becomes an
    ``ExecutionError`` reading ``"<Type>: <message>"``, chained from it."""
    try:
        return BatchItem(result=execute_plan(
            plan, database, output_columns, tracer=tracer, metrics=metrics
        ))
    except ExecutionError as exc:
        return BatchItem(error=exc)
    except Exception as exc:
        error = ExecutionError(f"{type(exc).__name__}: {exc}")
        error.__cause__ = exc
        return BatchItem(error=error)
