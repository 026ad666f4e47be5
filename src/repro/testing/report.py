"""Campaign reporting: one markdown artifact for a full testing run.

`run_campaign` drives the complete framework over a database -- coverage
generation for every rule, suite construction, all compression strategies,
correctness execution -- and renders the outcome as a markdown report a
test-engineering team can archive per optimizer build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.rules.registry import RuleRegistry
from repro.service import PlanService
from repro.storage.database import Database
from repro.testing.compression import COMPRESSION_METHODS, CompressionPlan
from repro.testing.correctness import CorrectnessReport, CorrectnessRunner
from repro.testing.coverage import CoverageCampaign, CoverageReport
from repro.testing.generator import QueryGenerator
from repro.testing.suite import CostOracle, TestSuite, rule_suite


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    rule_names: List[str]
    coverage: CoverageReport
    suite: TestSuite
    plans: Dict[str, CompressionPlan]
    executed_method: str
    correctness: CorrectnessReport
    elapsed_seconds: float
    service_stats: Optional[Dict[str, int]] = None
    #: ``(rule, considered, fired, rejected)`` rows aggregated over every
    #: optimization the campaign ran (worker processes included), from the
    #: service's :class:`~repro.obs.metrics.MetricsRegistry` when one is
    #: attached.
    rule_metrics: Optional[List[tuple]] = None

    @property
    def passed(self) -> bool:
        return self.correctness.passed and not self.coverage.uncovered

    def to_markdown(self) -> str:
        lines: List[str] = []
        lines.append("# Transformation-rule testing campaign")
        lines.append("")
        lines.append(
            f"- rules under test: **{len(self.rule_names)}** "
            f"(k={self.suite.k} queries each)"
        )
        lines.append(f"- total wall-clock: {self.elapsed_seconds:.1f}s")
        if self.service_stats:
            lines.append(
                f"- plan service: {self.service_stats['requests']} requests, "
                f"{self.service_stats['hits']} cache hits, "
                f"{self.service_stats['computed']} optimizations"
            )
        lines.append(
            f"- verdict: {'**PASSED**' if self.passed else '**FAILED**'}"
        )
        lines.append("")

        lines.append("## Coverage (pattern-based generation)")
        lines.append("")
        lines.append("| rule | trials | operators |")
        lines.append("|---|---|---|")
        for node, outcome in sorted(self.coverage.outcomes.items()):
            status = outcome.trials if outcome.succeeded else "FAILED"
            lines.append(
                f"| {' + '.join(node)} | {status} | {outcome.operator_count} |"
            )
        lines.append("")

        lines.append("## Suite queries")
        lines.append("")
        lines.append(
            "| query | generated for | considered | fired | rejected "
            "| RuleSet(q) |"
        )
        lines.append("|---|---|---|---|---|---|")
        for query in self.suite.queries:
            considered, fired, rejected = query.rule_firing
            lines.append(
                f"| {query.query_id} | {' + '.join(query.generated_for)} | "
                f"{considered} | {fired} | {rejected} | "
                f"{', '.join(sorted(query.ruleset))} |"
            )
        lines.append("")

        if self.rule_metrics:
            lines.append("## Rule firing totals (all optimizations)")
            lines.append("")
            lines.append("| rule | considered | fired | rejected |")
            lines.append("|---|---|---|---|")
            for rule, considered, fired, rejected in self.rule_metrics:
                lines.append(
                    f"| {rule} | {considered} | {fired} | {rejected} |"
                )
            lines.append("")

        lines.append("## Test-suite compression")
        lines.append("")
        lines.append("| method | est. execution cost | distinct queries |")
        lines.append("|---|---|---|")
        for name, plan in self.plans.items():
            lines.append(
                f"| {name} | {plan.total_cost:.1f} | "
                f"{len(plan.selected_query_ids)} |"
            )
        lines.append("")

        lines.append(f"## Correctness execution ({self.executed_method})")
        lines.append("")
        report = self.correctness
        lines.append(f"- queries executed: {report.queries_executed}")
        lines.append(
            f"- disabled-rule plans executed: {report.disabled_plans_executed}"
        )
        lines.append(
            f"- identical plans skipped: {report.skipped_identical_plans}"
        )
        lines.append(f"- correctness bugs: {len(report.issues)}")
        for issue in report.issues:
            lines.append("")
            lines.append(f"### BUG: {' + '.join(issue.rule_node)}")
            lines.append(f"- mismatch: {issue.detail}")
            lines.append("- failing SQL:")
            lines.append("```sql")
            lines.append(self.suite.query(issue.query_id).sql)
            lines.append("```")
        for error in report.errors:
            lines.append(f"- ERROR: {error}")
        lines.append("")
        return "\n".join(lines)


def run_campaign(
    database: Database,
    registry: RuleRegistry,
    rule_names: Optional[Sequence[str]] = None,
    k: int = 3,
    seed: int = 0,
    service: Optional[PlanService] = None,
) -> CampaignResult:
    """Run the full pipeline and collect a :class:`CampaignResult`.

    All Plan/Cost traffic of every stage flows through one shared
    :class:`PlanService`, so later stages reuse the optimizations the
    earlier ones already paid for.
    """
    start = time.perf_counter()
    if rule_names is None:
        rule_names = registry.exploration_rule_names
    rule_names = list(rule_names)
    service = service or PlanService(database, registry=registry)

    generator = QueryGenerator(database, registry, seed=seed, service=service)
    coverage = CoverageCampaign(generator).singletons(
        rule_names, method="pattern"
    )

    suite = rule_suite(
        database, registry, rule_names, k, seed=seed, service=service
    )
    oracle = CostOracle(database, registry, service=service)
    plans = {
        name: maker(suite, oracle)
        for name, maker in COMPRESSION_METHODS.items()
    }
    cheapest = min(plans.values(), key=lambda plan: plan.total_cost)
    correctness = CorrectnessRunner(
        database, registry, service=service
    ).run(cheapest, suite)

    return CampaignResult(
        rule_names=rule_names,
        coverage=coverage,
        suite=suite,
        plans=plans,
        executed_method=cheapest.method,
        correctness=correctness,
        elapsed_seconds=time.perf_counter() - start,
        service_stats=service.counters.as_dict(),
        rule_metrics=(
            service.metrics.rule_table()
            if service.metrics is not None
            else None
        ),
    )
