"""Batched plan execution with within-batch coalescing.

The correctness hot path executes many plans against one database — the
baseline plan plus one plan per disabled-rule variant per query, times
every mutant of a campaign.  Many of those plans are *identical* (a
mutant that never fires reproduces the baseline plan exactly), so
:func:`execute_many` coalesces duplicate ``(plan, output columns)``
requests into one execution and hands every requester the same
:class:`~repro.engine.results.QueryResult` object — which also shares
the cached bag digest, making the follow-up comparisons O(1).

Table scans are shared across the whole batch for free: the columnar
executor reads the per-table column snapshot cached on
:class:`~repro.storage.table.StoredTable`, which stays valid for as long
as the database is not mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.executor import ExecutionError, execute_plan
from repro.engine.results import QueryResult
from repro.obs.trace import NULL_TRACER, Tracer
from repro.physical.operators import PhysicalOp
from repro.storage.database import Database

#: One execution request: a physical plan plus optional output projection.
ExecRequest = Tuple[PhysicalOp, Optional[Tuple]]


@dataclass
class BatchItem:
    """Outcome of one request inside an :func:`execute_many` batch."""

    result: Optional[QueryResult] = None
    error: Optional[ExecutionError] = None
    #: True when this request reused another request's execution.
    coalesced: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def execute_many(
    requests: Sequence[ExecRequest],
    database: Database,
    *,
    tracer: Tracer = NULL_TRACER,
    metrics=None,
) -> List[BatchItem]:
    """Execute ``requests`` against ``database``, coalescing duplicates.

    Returns one :class:`BatchItem` per request, in request order.  A plan
    that fails to execute yields an item carrying the
    :class:`ExecutionError` instead of raising, so one bad plan does not
    abort the batch (mirroring how campaign runners handle per-query
    errors).
    """
    items: List[Optional[BatchItem]] = [None] * len(requests)

    # Group identical (plan, projection) requests; physical operators are
    # frozen dataclasses, so plans hash and compare structurally.
    groups: Dict[Tuple, List[int]] = {}
    group_order: List[Tuple] = []
    for index, (plan, outputs) in enumerate(requests):
        key = (plan, tuple(outputs) if outputs is not None else None)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [index]
            group_order.append(key)
        else:
            bucket.append(index)

    for key in group_order:
        plan, outputs = key
        indices = groups[key]
        try:
            result = execute_plan(
                plan, database, outputs, tracer=tracer, metrics=metrics
            )
            error = None
        except ExecutionError as exc:
            result = None
            error = exc
        for rank, index in enumerate(indices):
            items[index] = BatchItem(
                result=result, error=error, coalesced=rank > 0
            )
        if metrics is not None:
            metrics.counter("exec.batches").inc()
            if len(indices) > 1:
                metrics.counter("exec.coalesced").inc(len(indices) - 1)
    return items
