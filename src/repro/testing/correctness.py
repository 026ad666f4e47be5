"""Test-suite execution for correctness testing (paper, Sections 2.3 / 4).

For every selected query the runner executes ``Plan(q)`` once; for every
(rule node, query) edge of the compression plan it executes
``Plan(q, ¬R)`` and compares the two results as bags.  A mismatch is a
correctness bug in (at least one of) the disabled rules.

Per the paper's footnote, when the two plans are structurally identical the
execution/comparison is skipped -- the results are guaranteed equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.results import QueryResult, diff_summary, results_identical
from repro.optimizer.result import OptimizationError
from repro.rules.registry import RuleRegistry
from repro.service import PlanService
from repro.storage.database import Database
from repro.testing.compression import CompressionPlan
from repro.testing.suite import RuleNode, TestSuite


@dataclass(frozen=True)
class ComparisonRecord:
    """Per-edge verdict: what happened for one ``(rule node, query)`` pair.

    ``outcome`` is one of ``"identical"`` (plans matched, execution
    skipped), ``"equal"`` (executed, bags matched), ``"mismatch"``
    (executed, bags differed -- a correctness bug) or ``"error"``
    (optimization or execution failed).  Baseline failures are recorded
    with an empty rule node.  The mutation campaign derives per-suite
    kill verdicts from these records without re-executing anything.
    """

    rule_node: RuleNode
    query_id: int
    outcome: str
    detail: str = ""

    def __str__(self) -> str:
        rules = " + ".join(self.rule_node)
        return f"[{rules}] query {self.query_id}: {self.detail}"


@dataclass
class CorrectnessReport:
    """Outcome of executing one compression plan: one record per failed
    baseline and per edge, baselines first.  Every count is a fold over
    ``records`` except ``queries_executed``: a baseline that executes
    leaves no record."""

    records: List[ComparisonRecord] = field(default_factory=list)
    queries_executed: int = 0

    def _outcomes(self, *outcomes: str) -> List[ComparisonRecord]:
        return [r for r in self.records if r.outcome in outcomes]

    @property
    def issues(self) -> List[ComparisonRecord]:
        """The correctness bugs: every ``mismatch`` record."""
        return self._outcomes("mismatch")

    @property
    def errors(self) -> List[str]:
        return [
            f"query {r.query_id}"
            + (f" ¬{r.rule_node}" if r.rule_node else "")
            + f": {r.detail}"
            for r in self._outcomes("error")
        ]

    @property
    def disabled_plans_executed(self) -> int:
        return len(self._outcomes("equal", "mismatch"))

    @property
    def skipped_identical_plans(self) -> int:
        return len(self._outcomes("identical"))

    @property
    def passed(self) -> bool:
        return not self._outcomes("mismatch", "error")


class CorrectnessRunner:
    """Executes a compression plan against the test database."""

    def __init__(
        self,
        database: Database,
        registry: RuleRegistry,
        monotonicity_guard=None,
        service: Optional[PlanService] = None,
    ) -> None:
        self.database = database
        self.registry = registry
        self.service = service or PlanService(database, registry=registry)
        #: Optional :class:`repro.analysis.sanitize.MonotonicityGuard`; when
        #: set, every baseline/disabled cost pair where neither search was
        #: cut is asserted against the ``Cost(q) <= Cost(q, not R)``
        #: invariant.
        self.monotonicity_guard = monotonicity_guard

    def run(self, plan: CompressionPlan, suite: TestSuite) -> CorrectnessReport:
        """Execute the test suite described by ``plan``."""
        with self.service.tracer.span(
            "correctness.run", cat="testing",
            method=plan.method, queries=len(plan.selected_query_ids),
        ):
            return self._run(plan, suite)

    def _run(self, plan: CompressionPlan, suite: TestSuite) -> CorrectnessReport:
        """Ask for every Plan(q) / Plan(q, ¬R) the run needs in one
        ``optimize_many`` batch (distinct plans compute in parallel when
        the service has workers), classify, execute in bulk through
        ``PlanService.execute_many`` (scan sharing, coalescing, the result
        cache), and record in iteration order: baselines by query id, then
        edges in assignment order."""
        tracer = self.service.tracer
        report = CorrectnessReport()

        baseline_ids = sorted(plan.selected_query_ids)
        edges = [
            (node, query_id)
            for node, query_ids in plan.assignments.items()
            for query_id in query_ids
        ]
        config = self.service.config
        base_config = config.with_disabled(())
        optimized = self.service.optimize_many(
            [(suite.query(q).tree, base_config) for q in baseline_ids]
            + [
                (suite.query(q).tree, config.with_disabled(node))
                for node, q in edges
            ],
            return_errors=True,
        )
        baseline_opt = dict(zip(baseline_ids, optimized))
        disabled_opt = optimized[len(baseline_ids):]

        # Baselines: execute every selected query that has a plan.
        pending = [
            q for q in baseline_ids
            if not isinstance(baseline_opt[q], OptimizationError)
        ]
        executed = self.service.execute_many(
            [
                (baseline_opt[q].plan, baseline_opt[q].output_columns)
                for q in pending
            ],
            database=self.database,
        )
        exec_items = dict(zip(pending, executed))
        baseline_results: Dict[int, QueryResult] = {}
        for query_id in baseline_ids:
            item = exec_items.get(query_id)
            failure = baseline_opt[query_id] if item is None else item.error
            if failure is not None:
                report.records.append(
                    ComparisonRecord((), query_id, "error", str(failure))
                )
                continue
            baseline_results[query_id] = item.result
        report.queries_executed = len(baseline_results)

        # Edges: an edge that needs no execution is recorded at once; one
        # that does keeps its slot, filled when the batch returns.
        slots: List[Tuple[int, RuleNode, int]] = []
        requests: List[tuple] = []
        for (node, query_id), disabled in zip(edges, disabled_opt):
            if query_id not in baseline_results:
                continue
            if isinstance(disabled, OptimizationError):
                report.records.append(
                    ComparisonRecord(node, query_id, "error", str(disabled))
                )
                continue
            baseline = baseline_opt[query_id]
            # A cut search's space is truncated, not a superset: the
            # invariant holds only when neither search was cut.
            if self.monotonicity_guard is not None and not (
                baseline.stats.budget_exhausted
                or disabled.stats.budget_exhausted
            ):
                self.monotonicity_guard.observe(
                    f"query {query_id}", baseline.cost, disabled.cost, node,
                )
            if disabled.plan == baseline.plan:
                # Identical plans guarantee identical results (paper,
                # footnote 1): skip execution.
                report.records.append(
                    ComparisonRecord(node, query_id, "identical")
                )
                if tracer.enabled:
                    tracer.event(
                        "correctness.identical_plan", cat="testing",
                        query=query_id, rules=",".join(node),
                    )
                continue
            slots.append((len(report.records), node, query_id))
            report.records.append(None)
            requests.append((disabled.plan, disabled.output_columns))
        disabled_items = self.service.execute_many(
            requests, database=self.database
        )
        for (slot, node, query_id), item in zip(slots, disabled_items):
            if item.error is not None:
                report.records[slot] = ComparisonRecord(
                    node, query_id, "error", str(item.error)
                )
                continue
            if tracer.enabled:
                tracer.event(
                    "correctness.comparison", cat="testing",
                    query=query_id, rules=",".join(node),
                )
            expected = baseline_results[query_id]
            if results_identical(expected, item.result):
                report.records[slot] = ComparisonRecord(
                    node, query_id, "equal"
                )
            else:
                report.records[slot] = ComparisonRecord(
                    node, query_id, "mismatch",
                    diff_summary(expected, item.result),
                )
        return report
