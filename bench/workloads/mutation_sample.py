"""``mutation_sample``: four mutants, four verdicts.  Many short-lived services.

Chosen because the full mutation campaign (111 mutants x 3 seeds) is the
longest thing a user of this repo runs, and because it uses the same
optimizer differently: a fresh memory-only service per mutant over a
swapped registry, so per-mutant set-up cost and anything shared across
mutants is visible here and nowhere else.  The sample holds one mutant for
each FULL status a mutant can normally end in; the NO_FIRE one is where the
time goes (750 cold optimisations of tiny queries before generation gives
up), the EQUIVALENT one is the heaviest of the rest.

The data seed (1) and the generation seed (11) are the ones the campaign's
kill verdicts were calibrated on and stay pinned; ``--seed`` rotates the
order in which the four mutants are evaluated.
"""

from __future__ import annotations

from typing import Dict, List

from repro.optimizer.config import DEFAULT_CONFIG
from repro.rules.registry import default_registry
from repro.service import PlanService
from repro.testing import TestSuiteBuilder, singleton_nodes
from repro.testing.mutation import MutationCampaign, generate_mutants
from repro.workloads import tpch_database

from bench.harness import Meter, OpTimes
from bench.workloads import DigestRow, Workload, service_counts

DATA_SEED = 1
GENERATION_SEED = 11
POOL = 4
K = 2
EXTRA_OPERATORS = 2
BACKENDS = ("engine", "sqlite")

#: (rule, operator, mutant id, recorded FULL status) -- each (rule, operator)
#: pair yields exactly this one mutant, so one ``run`` call is one mutant.
SAMPLE = (
    ("JoinCommutativity", "widen-join-kind",
     "JoinCommutativity:widen-join-kind:j0+left-outer", "KILLED"),
    ("AvgToSumDivCount", "skip-substitute",
     "AvgToSumDivCount:skip-substitute", "NO_FIRE"),
    ("JoinRightAssociativity", "drop-conjunct",
     "JoinRightAssociativity:drop-conjunct", "EQUIVALENT"),
    ("LojPushSelectLeft", "drop-precondition",
     "LojPushSelectLeft:drop-precondition", "SURVIVED"),
)


class MutationSample(Workload):
    name = "mutation_sample"
    setup_reps = 5
    latency_op = "mutant.EQUIVALENT"

    def layer_values(self, rounds: OpTimes, setups: OpTimes) -> Dict[str, float]:
        return {
            **super().layer_values(rounds, setups),
            # mean per mutant: the four differ 20-fold, a median would not do
            "testing.mutant_ms": 1000.0 * sum(
                rounds.group_sum_s(f"mutant.{status}")
                for _, _, _, status in SAMPLE
            ) / len(SAMPLE),
        }

    def setup(self, meter: Meter) -> None:
        self.database = meter.op(
            "datagen.build", "datagen", tpch_database, seed=DATA_SEED
        )
        self.registry = meter.op("rules.registry", "rules", default_registry)
        shift = self.seed % len(SAMPLE)
        self.sample = SAMPLE[shift:] + SAMPLE[:shift]
        for rule, operator, mutant_id, _ in self.sample:
            mutants = meter.op(
                "mutants.generate", "testing", generate_mutants,
                self.registry, [rule], [operator],
            )
            if [m.mutant_id for m in mutants or ()] != [mutant_id]:
                meter.fail(f"({rule}, {operator}) no longer yields exactly "
                           f"{mutant_id}")
        self.outcomes = []

    def round(self, meter: Meter) -> Dict[str, float]:
        campaign = MutationCampaign(
            self.database, self.registry, pool=POOL, k=K,
            seeds=(GENERATION_SEED,), extra_operators=EXTRA_OPERATORS,
            differential_backends=BACKENDS, metrics=self.obs.metrics,
        )
        outcomes = []
        stats: Dict[str, int] = {}
        for rule, operator, mutant_id, status in self.sample:
            report = meter.op(
                f"mutant.{status}", "testing", campaign.run,
                rule_names=[rule], operators=[operator],
            )
            if report is None:
                continue
            stats = report.service_stats or stats  # cumulative per campaign
            found = [(o.mutant_id, o.status("FULL")) for o in report.outcomes]
            if found != [(mutant_id, status)]:
                meter.fail(f"{mutant_id}: expected FULL status {status}, "
                           f"got {found}")
            outcomes.extend(report.outcomes)
        self.outcomes = outcomes
        expected = [o for o in outcomes if o.expected_detectable]
        counts = service_counts(stats)
        counts["testing.detection_rate"] = (
            sum(o.detected("FULL") for o in expected) / len(expected)
            if expected else 0.0
        )
        counts["testing.mutant_requests"] = (
            stats.get("requests", 0) / len(self.sample)
        )
        return counts

    # ----------------------------------------------------------- inspection

    def _clean_suite(self):
        """The sampled rules' pools on the clean registry."""
        service = PlanService(self.database, registry=self.registry)
        builder = TestSuiteBuilder(
            self.database, self.registry, seed=GENERATION_SEED,
            extra_operators=EXTRA_OPERATORS, service=service,
        )
        return builder.build(
            singleton_nodes([rule for rule, _, _, _ in SAMPLE]), POOL
        )

    def pool(self) -> List:
        return [query.tree for query in self._clean_suite().queries]

    def generated_sql(self) -> List[str]:
        return [query.sql for query in self._clean_suite().queries]

    def digest_rows(self) -> List[DigestRow]:
        """Per mutant and pool query: Cost(q) under the mutated build."""
        token = DEFAULT_CONFIG.cache_token()
        return [
            (f"{outcome.mutant_id}#{query_id}", token, cost,
             (outcome.status("FULL"),))
            for outcome in self.outcomes
            for query_id, cost in outcome.query_costs
        ]
