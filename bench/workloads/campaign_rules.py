"""``campaign_rules``: the paper's pipeline, cold.  The optimizer does the work.

Chosen because it is the flow the paper evaluates (generate a suite that
exercises each rule, build the rule-query graph, compress, run) and the one
where exploration work in the optimizer must show: about 260 cold
optimisations per round, against a few dozen plan executions on a
600-row table.
"""

from __future__ import annotations

from typing import Dict, List

from repro.optimizer.config import DEFAULT_CONFIG
from repro.rules.registry import default_registry
from repro.service import PlanService
from repro.testing import (
    CorrectnessRunner,
    CostOracle,
    TestSuiteBuilder,
    TopKStats,
    baseline_plan,
    pair_nodes,
    set_multicover_plan,
    singleton_nodes,
    top_k_independent_plan,
)
from repro.workloads import tpch_database

from bench.harness import Meter, OpTimes
from bench.workloads import DigestRow, Workload, service_counts

#: Pinned seed of the pattern-based generator (see the package docstring).
GENERATION_SEED = 0
K = 2
PLAN_BUILDERS = (baseline_plan, set_multicover_plan, top_k_independent_plan)


def singleton_rule_nodes(registry):
    """Every 2nd exploration rule: 20 rule nodes."""
    return singleton_nodes(registry.exploration_rule_names[::2])


def build_suite(database, registry, service, nodes, extra_operators=4):
    builder = TestSuiteBuilder(
        database, registry, seed=GENERATION_SEED,
        extra_operators=extra_operators, service=service,
    )
    return builder.build(nodes, K)


def build_plans(suite, oracle):
    """BASELINE, SMC and TOPK over one oracle, which prices each edge once."""
    return [maker(suite, oracle) for maker in PLAN_BUILDERS]


def suite_digest_rows(suite, plan) -> List[DigestRow]:
    """Digest rows of a suite's ``Plan(q)`` costs and a plan's edge costs."""
    rows: List[DigestRow] = [
        (q.tree.fingerprint(), DEFAULT_CONFIG.cache_token(), q.cost, q.ruleset)
        for q in suite.queries
    ]
    for (node, query_id), cost in plan.edge_costs.items():
        rows.append((
            suite.query(query_id).tree.fingerprint(),
            DEFAULT_CONFIG.with_disabled(node).cache_token(),
            cost,
            (),
        ))
    return rows


class CampaignRules(Workload):
    name = "campaign_rules"
    setup_reps = 5
    latency_op = "edge_costs"

    def layer_values(self, rounds: OpTimes, setups: OpTimes) -> Dict[str, float]:
        return {
            **super().layer_values(rounds, setups),
            "testing.generate_s": rounds.group_sum_s("generate"),
            "testing.generate_pairs_s": rounds.group_sum_s("generate_pairs"),
            "testing.edge_costs_s": rounds.group_sum_s("edge_costs"),
            "testing.compress_algo_s": rounds.group_sum_s("compress_algo"),
            "testing.correctness_run_s": rounds.group_sum_s("correctness_run"),
            "service.construct_ms": rounds.median_ms("service.construct"),
        }

    def setup(self, meter: Meter) -> None:
        self.database = meter.op(
            "datagen.build", "datagen", tpch_database, seed=self.seed
        )
        self.registry = meter.op("rules.registry", "rules", default_registry)
        self.singletons = singleton_rule_nodes(self.registry)
        self.pairs = pair_nodes(self.registry.exploration_rule_names[:5])
        self.suite = None
        self.topk = None

    def round(self, meter: Meter) -> Dict[str, float]:
        database, registry = self.database, self.registry
        service = meter.op(
            "service.construct", "service", PlanService, database,
            registry=registry, tracer=self.obs.tracer, metrics=self.obs.metrics,
        )
        suite = meter.op(
            "generate", "testing", build_suite,
            database, registry, service, self.singletons,
        )
        if suite is None:
            return {}
        counts = {
            "testing.gen_trials_per_query":
                service.counters.requests / suite.size,
        }
        oracle = CostOracle(database, registry, service=service)
        # One op: which builder pays for an edge cost depends on their order.
        plans = meter.op("edge_costs", "testing", build_plans, suite, oracle)
        if plans is None:
            return {}
        # The same three algorithms on the now-warm oracle: their own time
        # with no optimizer in it.
        for maker in PLAN_BUILDERS:
            meter.op("compress_algo", "testing", maker, suite, oracle)
        runner = CorrectnessRunner(database, registry, service=service)
        for plan in plans:
            self._run_and_check(meter, runner, plan, suite, "correctness_run")

        pair_suite = meter.op(
            "generate_pairs", "testing", build_suite,
            database, registry, service, self.pairs, 0,
        )
        if pair_suite is None:
            return {}
        pair_oracle = CostOracle(database, registry, service=service)
        stats = TopKStats()
        pair_plan = meter.op(
            "edge_costs_pairs", "testing", top_k_independent_plan,
            pair_suite, pair_oracle, use_monotonicity=True, stats=stats,
        )
        if pair_plan is None:
            return {}
        self._run_and_check(
            meter, runner, pair_plan, pair_suite, "correctness_run_pairs"
        )

        baseline, _, topk = plans
        self.suite, self.topk = suite, topk
        edges = stats.edge_costs_computed + stats.edge_costs_skipped
        counts.update(service_counts(service.counters.as_dict()))
        counts.update({
            "testing.suite_cost_ratio": topk.total_cost / baseline.total_cost,
            "testing.oracle_invocations":
                oracle.invocations + pair_oracle.invocations,
            "testing.mono_skipped_share":
                stats.edge_costs_skipped / edges if edges else 0.0,
            "testing.selected_queries": len(topk.selected_query_ids),
        })
        return counts

    @staticmethod
    def _run_and_check(meter, runner, plan, suite, op_name) -> None:
        if not plan.validates_each_rule_k_times(suite.k):
            meter.fail(f"{plan.method}: a rule node has fewer than k queries")
        report = meter.op(op_name, "testing", runner.run, plan, suite)
        if report is not None and not report.passed:
            detail = (report.issues + report.errors)[0]
            meter.fail(f"{plan.method} on the clean registry: {detail}")

    # ----------------------------------------------------------- inspection

    def _ensure_suite(self) -> None:
        if self.suite is None:
            service = PlanService(self.database, registry=self.registry)
            self.suite = build_suite(
                self.database, self.registry, service, self.singletons
            )
            self.topk = top_k_independent_plan(
                self.suite,
                CostOracle(self.database, self.registry, service=service),
            )

    def pool(self) -> List:
        self._ensure_suite()
        return [query.tree for query in self.suite.queries]

    def generated_sql(self) -> List[str]:
        self._ensure_suite()
        return [query.sql for query in self.suite.queries]

    def digest_rows(self) -> List[DigestRow]:
        self._ensure_suite()
        return suite_digest_rows(self.suite, self.topk)
