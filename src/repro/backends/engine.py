"""The in-process engine as a fleet backend.

Wraps the optimize-then-execute pipeline (``PlanService.optimize`` +
``PlanService.execute_many``) behind the
:class:`~repro.backends.base.Backend` protocol.  This is the *system under
test*: its optimizer applies the transformation rules whose correctness
the fleet checks, while the external backends execute the rendered SQL
text directly and therefore provide independent ground truth.

Several engine backends can join one fleet under distinct names with
different :class:`OptimizerConfig` values (e.g. a rule disabled, the
sanitizer on).  All engine variants speak plan language ``"repro"``, so
the runner diffs their plan shapes pairwise -- the plan-guidance oracle:
same results, possibly different plans; a *result* difference between two
engine configs is a rule bug caught without any external backend.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.backends.base import Backend, BackendError, BackendRun, PlanShape
from repro.logical.operators import LogicalOp
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.result import OptimizationError
from repro.physical.operators import PhysicalOp
from repro.rules.registry import RuleRegistry
from repro.service import PlanService
from repro.sql.dialect import ENGINE_DIALECT
from repro.storage.database import Database

#: Plan vocabulary shared by every engine-backend variant.
ENGINE_PLAN_LANGUAGE = "repro"


def physical_plan_shape(plan: PhysicalOp) -> PlanShape:
    """Normalize a physical plan: operator kinds with tree depths only
    (predicates, columns and costs are irrelevant to *shape*)."""
    nodes = []

    def visit(op: PhysicalOp, depth: int) -> None:
        nodes.append((depth, op.kind.value))
        for child in op.children:
            if isinstance(child, PhysicalOp):
                visit(child, depth + 1)

    visit(plan, 0)
    return PlanShape(language=ENGINE_PLAN_LANGUAGE, nodes=tuple(nodes))


class EngineBackend(Backend):
    """The repro optimizer + columnar executor as one fleet member."""

    dialect = ENGINE_DIALECT
    plan_language = ENGINE_PLAN_LANGUAGE

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        registry: Optional[RuleRegistry] = None,
        config: Optional[OptimizerConfig] = None,
        service: Optional[PlanService] = None,
        name: str = "engine",
    ) -> None:
        super().__init__()
        self.name = name
        if service is None:
            if database is None:
                raise ValueError(
                    "EngineBackend needs a database or a PlanService"
                )
            service = PlanService(
                database, registry=registry, cache_dir=None
            )
        self.service = service
        self.config = config
        self.database = database if database is not None else service.database
        if self.database is None:
            raise ValueError(
                "EngineBackend needs a database (directly or via the "
                "service) to execute plans against"
            )

    def setup(self, database: Database) -> None:
        # The engine executes against the in-memory Database directly;
        # nothing to materialize, but the fleet must be self-consistent.
        if database is not self.database:
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
            [(tree, self.config) for _, tree in rendered], return_errors=True
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
            self.service.execute_many(exec_requests, database=self.database)
            if exec_requests
            else []
        )
        for (run, result), item in zip(planned, items):
            if item.error is not None:
                run.error = f"execution failed: {item.error}"
                continue
            run.record_result(item.result)
            run.plan = physical_plan_shape(result.plan)
        return runs
