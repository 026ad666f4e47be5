"""Rule-coverage campaigns (paper, Section 2.3, "Coverage").

Coverage testing asks for SQL queries such that, when optimized, every rule
(or every rule pair) is exercised -- code coverage for the rule library.
Unlike correctness testing, the queries never need to be *executed*, so a
campaign is just generation plus optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.testing.generator import GenerationOutcome, QueryGenerator
from repro.testing.suite import RuleNode, pair_nodes, singleton_nodes


@dataclass
class CoverageReport:
    """Outcome of a coverage campaign."""

    method: str
    outcomes: Dict[RuleNode, GenerationOutcome] = field(default_factory=dict)

    @property
    def covered(self) -> List[RuleNode]:
        return [
            node
            for node, outcome in self.outcomes.items()
            if outcome.succeeded
        ]

    @property
    def uncovered(self) -> List[RuleNode]:
        return [
            node
            for node, outcome in self.outcomes.items()
            if not outcome.succeeded
        ]

    @property
    def total_trials(self) -> int:
        return sum(outcome.trials for outcome in self.outcomes.values())

    @property
    def total_seconds(self) -> float:
        return sum(
            outcome.elapsed_seconds for outcome in self.outcomes.values()
        )

    def summary(self) -> str:
        lines = [
            f"coverage method={self.method}: "
            f"{len(self.covered)}/{len(self.outcomes)} nodes covered, "
            f"{self.total_trials} trials, {self.total_seconds:.2f}s"
        ]
        for node, outcome in sorted(self.outcomes.items()):
            status = "ok" if outcome.succeeded else "FAILED"
            lines.append(
                f"  {' + '.join(node)}: {outcome.trials} trials "
                f"({status}, {outcome.operator_count} operators)"
            )
        return "\n".join(lines)


class CoverageCampaign:
    """Runs coverage campaigns over singleton rules or rule pairs."""

    def __init__(self, generator: QueryGenerator) -> None:
        self.generator = generator

    def singletons(
        self,
        rule_names: Sequence[str],
        method: str = "pattern",
        max_trials: Optional[int] = None,
    ) -> CoverageReport:
        return self._cover(singleton_nodes(rule_names), method, max_trials)

    def pairs(
        self,
        rule_names: Sequence[str],
        method: str = "pattern",
        max_trials: Optional[int] = None,
    ) -> CoverageReport:
        return self._cover(pair_nodes(rule_names), method, max_trials)

    def _cover(self, nodes, method, max_trials) -> CoverageReport:
        report = CoverageReport(method=method)
        for node in nodes:
            report.outcomes[node] = self.generator.query_for_node(
                node, method, max_trials
            )
        return report
