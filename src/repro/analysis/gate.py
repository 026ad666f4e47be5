"""Pass 6: the rule admission gate.

The door through which a candidate rule -- handwritten or found by
automated rule discovery (a parked ROADMAP direction) -- enters the
registry.
:class:`RuleGate` composes the per-rule entry point
(:meth:`AnalysisPass.check_rule`) of every row of
:data:`repro.analysis.passes.STATIC_PASSES` into a single pass/fail
verdict with machine-readable reasons:

1. **RL** -- :class:`RegistryLinter`: pattern arity, XML round-trip,
   naming, liveness;
2. **SV** -- :class:`SubstitutionVerifier`: the semantic property checks
   over synthesized bindings (schema preservation, derived-property
   loss, provably empty rewrites, ...);
3. **AL** -- :class:`AstLinter`: implementation drift between declared
   pattern and Python source;
4. **IG** -- :class:`InteractionAnalyzer`: the candidate's producer
   edges, self-loop termination hazard, and composition redundancy
   against the registry it would join;
5. **dynamic** (unless ``static_only``) -- a sampled mutation-style
   differential check via :meth:`MutationCampaign.evaluate_rule`: the
   candidate build must survive the paper's ``Plan(q)`` vs
   ``Plan(q, not R)`` oracle over its own pattern-based suite.

A candidate is **rejected** when any static pass reports an ERROR, or
when the dynamic differential detects it (``KILLED``/``CRASHED``/
``NO_FIRE``).  Warnings are carried in the verdict as advisories but do
not reject on their own -- the seed registry's own rules must all pass
the gate, and sampling-caveated findings (dead patterns, redundancy)
need human judgment, not a hard door.

The gate is deliberately cheap on the static side (a few hundred
milliseconds per rule); the dynamic stage stands up a fresh memory-only
plan service per candidate and dominates the cost, which is why
``static_only`` exists for bulk sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.passes import STATIC_PASSES
from repro.analysis.verify import default_workloads
from repro.rules.framework import Rule
from repro.rules.registry import RuleRegistry
from repro.testing.mutation.campaign import (
    DETECTED_STATUSES,
    MutationCampaign,
)

#: Calibrated dynamic-check configuration -- the smallest setup at which
#: the kill-matrix campaign detects all four handwritten faults (the
#: calibration EXPERIMENTS.md records under "Mutation campaign"): TPC-H
#: seed 1, three generation seeds unioned, a pool of 8 queries.
DYNAMIC_SEEDS = (11, 23, 37)
DYNAMIC_POOL = 8
DYNAMIC_K = 2
DYNAMIC_EXTRA_OPERATORS = 2


@dataclass
class GateVerdict:
    """The admission decision for one candidate rule."""

    rule_name: str
    admitted: bool
    #: Machine-readable rejection reasons, ``"<stage>:<code>: <detail>"``.
    reasons: List[str]
    #: Non-rejecting findings worth a human look (WARNING-level).
    advisories: List[str]
    #: Every static diagnostic the gate saw.
    report: AnalysisReport
    #: FULL-variant outcome of the dynamic differential check, or None
    #: when the gate ran static-only or short-circuited on static errors.
    dynamic_status: Optional[str] = None
    dynamic_detail: str = ""
    counters: Dict[str, int] = field(default_factory=dict)

    def to_text(self) -> str:
        line = f"gate {self.rule_name}: "
        line += "ADMITTED" if self.admitted else "REJECTED"
        if self.dynamic_status:
            line += f" (dynamic: {self.dynamic_status})"
        return "\n".join([line, *(f"  - {reason}" for reason in self.reasons)])

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_name,
            "admitted": self.admitted,
            "reasons": list(self.reasons),
            "advisories": list(self.advisories),
            "dynamic_status": self.dynamic_status,
            "dynamic_detail": self.dynamic_detail,
            "static_summary": {
                "errors": len(self.report.errors),
                "warnings": len(self.report.warnings),
                "infos": len(self.report.infos),
            },
            "diagnostics": [d.to_dict() for d in self.report.diagnostics],
        }


class RuleGate:
    """Admission gate composing RL + SV + AL + IG + a dynamic check."""

    def __init__(
        self,
        registry: Optional[RuleRegistry] = None,
        database=None,
        workloads: Optional[Sequence] = None,
        samples_per_workload: int = 4,
        seed: int = 0,
    ) -> None:
        from repro.rules.registry import default_registry

        self.registry = registry or default_registry()
        self.workloads = list(
            workloads if workloads is not None else default_workloads()
        )
        self.samples = samples_per_workload
        self.seed = seed
        self._database = database

    # --------------------------------------------------------------- public

    def check(
        self, rule: Union[Rule, str], static_only: bool = False
    ) -> GateVerdict:
        """Gate one candidate: a :class:`Rule` instance or the name of a
        rule already in the registry (useful for auditing the seed set).
        """
        if isinstance(rule, str):
            rule = self.registry.rule(rule)
        candidate_registry = self._registry_with(rule)
        report = AnalysisReport()
        for static in STATIC_PASSES:
            analyzer = static.build(
                candidate_registry,
                self.workloads,
                samples_per_workload=self.samples,
                seed=self.seed,
            )
            report.merge(analyzer.check_rule(rule))

        reasons = [
            f"static:{d.code}: {d.message}" for d in report.errors
        ]
        advisories = [
            f"static:{d.code}: {d.message}" for d in report.warnings
        ]
        dynamic_status: Optional[str] = None
        dynamic_detail = ""
        if not reasons and not static_only:
            dynamic_status, dynamic_detail = self._dynamic_check(
                rule, candidate_registry
            )
            if dynamic_status in DETECTED_STATUSES:
                detail = (
                    dynamic_detail
                    or "the differential oracle detected the candidate build"
                )
                reasons.append(f"dynamic:{dynamic_status}: {detail}")
        return GateVerdict(
            rule_name=rule.name,
            admitted=not reasons,
            reasons=reasons,
            advisories=advisories,
            report=report,
            dynamic_status=dynamic_status,
            dynamic_detail=dynamic_detail,
            counters=dict(report.counters),
        )

    def check_all(
        self, static_only: bool = False
    ) -> List[GateVerdict]:
        """Gate every exploration rule of the registry in order."""
        return [
            self.check(rule, static_only=static_only)
            for rule in self.registry.exploration_rules
        ]

    # ------------------------------------------------------------ internals

    def _registry_with(self, rule: Rule) -> RuleRegistry:
        """The registry as it would look with ``rule`` admitted."""
        if rule.name in self.registry:
            return self.registry.with_replaced_rule(rule)
        exploration = list(self.registry.exploration_rules)
        implementation = list(self.registry.implementation_rules)
        if rule.is_exploration:
            exploration.append(rule)
        else:
            implementation.append(rule)
        return RuleRegistry(exploration, implementation)

    def _dynamic_check(self, rule: Rule, candidate_registry: RuleRegistry):
        campaign = MutationCampaign(
            self._get_database(),
            candidate_registry,
            pool=DYNAMIC_POOL,
            k=DYNAMIC_K,
            seeds=DYNAMIC_SEEDS,
            extra_operators=DYNAMIC_EXTRA_OPERATORS,
        )
        outcome = campaign.evaluate_rule(rule)
        full = outcome.variants["FULL"]
        return full.status, full.detail

    def _get_database(self):
        if self._database is None:
            from repro.workloads import tpch_database

            self._database = tpch_database(seed=1)
        return self._database
