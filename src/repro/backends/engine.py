"""The in-process engine as a fleet backend.

Wraps the optimize-then-execute pipeline (``PlanService.optimize_many`` +
``PlanService.execute_many``) behind the
:class:`~repro.backends.base.Backend` protocol.  This is the *system under
test*: its optimizer applies the transformation rules whose correctness
the fleet checks, while the external backends execute the rendered SQL
text directly and therefore provide independent ground truth.

The member is built from its :class:`PlanService`: the service's
registry, config and database are the build under test.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.backends.base import Backend, BackendError, BackendRun
from repro.logical.operators import LogicalOp
from repro.optimizer.result import OptimizationError
from repro.service import PlanService
from repro.sql.dialect import ENGINE_DIALECT
from repro.storage.database import Database


class EngineBackend(Backend):
    """The repro optimizer + columnar executor as one fleet member."""

    name = "engine"
    dialect = ENGINE_DIALECT

    def __init__(self, service: PlanService) -> None:
        super().__init__()
        if service.database is None:
            raise ValueError(
                "EngineBackend needs a PlanService built over a database "
                "to execute plans against"
            )
        self.service = service

    def setup(self, database: Database) -> None:
        # The engine executes against the in-memory Database directly;
        # nothing to materialize, but the fleet must be self-consistent.
        if database is not self.service.database:
            raise BackendError(
                "engine backend was constructed over a different database "
                "than the fleet is running against"
            )

    def run_many(
        self, requests: Sequence[Tuple[int, LogicalOp]]
    ) -> List[BackendRun]:
        """Optimize the queries as one batch, then execute them as one.

        :meth:`PlanService.execute_many` shares table scans and coalesces
        identical plans, so a plan the correctness runner already
        executed comes back out of the execution cache, digest included.
        A run keeps the result itself: its rows are built only if the
        run's exact bag is read.
        """
        runs = [self._rendered(query_id, tree) for query_id, tree in requests]
        rendered = [
            (run, tree)
            for run, (_, tree) in zip(runs, requests)
            if run.error is None
        ]
        optimized = self.service.optimize_many(
            [tree for _, tree in rendered], return_errors=True
        )
        planned = []  # (run, OptimizeResult) of every query that optimized
        for (run, _), result in zip(rendered, optimized):
            if isinstance(result, OptimizationError):
                run.error = f"optimization failed: {result}"
            else:
                planned.append((run, result))
        exec_requests = [
            (result.plan, result.output_columns) for _, result in planned
        ]
        items = (
            self.service.execute_many(exec_requests) if exec_requests else []
        )
        for (run, _), item in zip(planned, items):
            if item.error is not None:
                run.error = f"execution failed: {item.error}"
            else:
                run.record_result(item.result)
        return runs
