"""Deterministic regression pins for ROADMAP item 2's non-monotonicity.

Hypothesis (``tests/test_property_based.py::TestRuleCorrectnessProperty::
test_disabling_rules_never_changes_results``) found real counterexamples
to the well-behavedness property ``Cost(q) <= Cost(q, not R)``: on the
seed-1 TPC-H database, each ``RandomQueryGenerator(seed)`` tree below,
optimized with its rule set disabled, is *cheaper* than the full-registry
plan while the result bags stay identical -- the restricted exploration
reaches a fixpoint the full search misses.

Hypothesis only rediscovers these when it happens to draw one of the
seeds; this file pins the exact reproductions so the failures are
deterministic, and marks the monotonicity half ``xfail(strict=True)`` so
the root-cause fix (likely memo exploration order/dedup, see ROADMAP
item 2) is detected the moment it lands: the xfail will XPASS and fail
the suite, telling the fixer to delete the marker and promote the
assertion.
"""

import pytest

from repro.analysis.sanitize import MonotonicityGuard
from repro.engine import execute_plan, results_identical
from repro.logical.validate import validate_tree
from repro.obs.trace import RecordingTracer
from repro.optimizer.config import DEFAULT_CONFIG, OptimizerConfig
from repro.optimizer.engine import Optimizer
from repro.rules.registry import default_registry
from repro.service import PlanService
from repro.sql.generate import to_sql
from repro.testing.compression import CompressionPlan
from repro.testing.correctness import CorrectnessRunner
from repro.testing.random_gen import RandomQueryGenerator
from repro.testing.suite import SuiteQuery, TestSuite
from repro.workloads import tpch_database

#: ``(seed, disabled rules, full-registry cost, restricted cost)``.
WITNESSES = [
    (1448, ("AvgToSumDivCount", "JoinPredicateToSelect"), 10.343600, 10.319279),
    (796, ("CrossToInnerJoin", "JoinPredicateToSelect"), 33.473732, 33.039132),
    (436, ("CrossToInnerJoin", "SelectCommute"), 37.730761, 30.816041),
]

REGISTRY = default_registry()
DB = tpch_database(seed=1)
STATS = DB.stats_repository()


def _witness_tree(seed):
    generator = RandomQueryGenerator(
        DB.catalog, seed=seed, stats=STATS, min_operators=3, max_operators=7
    )
    tree = generator.random_tree()
    validate_tree(tree, DB.catalog)
    return tree


@pytest.fixture(
    scope="module", params=WITNESSES, ids=[f"seed{w[0]}" for w in WITNESSES]
)
def witness(request):
    seed, disabled, baseline_cost, restricted_cost = request.param
    tree = _witness_tree(seed)

    def optimize(disabled=frozenset()):
        config = OptimizerConfig(disabled_rules=frozenset(disabled))
        return Optimizer(DB.catalog, STATS, REGISTRY, config).optimize(tree)

    return (optimize(), optimize(disabled)), (baseline_cost, restricted_cost)


class TestNonMonotonicityWitnesses:
    def test_results_stay_identical(self, witness):
        """The *correctness* half of the property holds: disabling the
        rules changes the plan but never the result bag."""
        (baseline, restricted), _ = witness
        expected = execute_plan(baseline.plan, DB, baseline.output_columns)
        actual = execute_plan(
            restricted.plan, DB, restricted.output_columns
        )
        assert results_identical(expected, actual)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known optimizer non-monotonicity (ROADMAP item 2): the "
            "restricted search reaches a cheaper fixpoint; remove this "
            "marker when the root cause is fixed"
        ),
    )
    def test_cost_monotonicity(self, witness):
        """The *well-behavedness* half -- ``Cost(q) <= Cost(q, not R)`` --
        is the known violation this file exists to pin."""
        (baseline, restricted), _ = witness
        assert baseline.cost <= restricted.cost + 1e-9

    def test_counterexample_magnitude_is_stable(self, witness):
        """Pin the exact costs: if either side moves, the search behavior
        changed and ROADMAP item 2 needs re-triage (the xfail above would
        go stale silently otherwise)."""
        (baseline, restricted), (baseline_cost, restricted_cost) = witness
        assert baseline.cost == pytest.approx(baseline_cost, abs=1e-6)
        assert restricted.cost == pytest.approx(restricted_cost, abs=1e-6)


@pytest.mark.parametrize(
    "seed, disabled, restricted_cost",
    [(seed, disabled, restricted) for seed, disabled, _, restricted in WITNESSES],
    ids=[f"seed{w[0]}" for w in WITNESSES],
)
def test_cut_base_sends_the_restricted_cost_to_the_optimizer(
    seed, disabled, restricted_cost
):
    """Every witness's full search is cut, so ``Plan(q)``'s lineage must
    not answer ``Cost(q, ¬R)``: the service refuses the rung, runs the
    optimizer and returns the restricted cost, never ``Cost(q)``."""
    tracer = RecordingTracer(detail="summary")
    service = PlanService(DB, registry=REGISTRY, tracer=tracer)
    tree = _witness_tree(seed)
    base = service.optimize(tree)
    assert base.stats.budget_exhausted and base.stats.cut == "exprs"
    cost = service.cost(tree, DEFAULT_CONFIG.with_disabled(disabled))
    assert cost == pytest.approx(restricted_cost, abs=1e-6)
    assert cost != base.cost
    assert service.counters.lineage_hits == 0
    assert service.counters.computed == 2
    last = [e for e in tracer.events if e.name == "service.cache"][-1]
    assert (last.arg("outcome"), last.arg("lineage")) == (
        "miss", "base_cut:exprs"
    )


def test_correctness_runner_feeds_no_cut_pair_to_the_guard():
    """The guard's invariant holds only between two uncut searches.
    Witness 1448's full search is cut and its restricted plan is cheaper,
    so a runner that fed the pair would record a false SA305."""
    seed, disabled, baseline_cost, _ = WITNESSES[0]
    tree = _witness_tree(seed)
    query = SuiteQuery(
        query_id=0,
        tree=tree,
        sql=to_sql(tree),
        cost=baseline_cost,
        ruleset=frozenset(disabled),
        generated_for=disabled,
    )
    suite = TestSuite(rule_nodes=[disabled], queries=[query], k=1)
    plan = CompressionPlan(
        method="TOPK",
        assignments={disabled: [0]},
        node_costs={0: baseline_cost},
        edge_costs={},
    )
    guard = MonotonicityGuard()
    report = CorrectnessRunner(
        DB, REGISTRY, monotonicity_guard=guard
    ).run(plan, suite)
    assert report.passed and report.disabled_plans_executed == 1
    assert guard.observations == 0
    assert guard.violations == []
