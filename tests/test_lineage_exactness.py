"""``Cost(q, ¬R)`` read off ``Plan(q)``'s lineage equals the optimizer's.

The plan service answers a cost request that disables ``R`` with
``Cost(q)`` when the undisabled search of ``q`` was not cut and no rule of
``R`` is in its ``plan_support``.  That shortcut is only worth having if it
is exact, so these tests walk the edges the framework actually prices --
every edge of the ``campaign_rules`` benchmark's singleton and pair suites,
and every singleton ``r`` in ``RuleSet(q)`` of ``RandomQueryGenerator``
trees -- and wherever the rung answered, optimize from scratch with ``R``
disabled: the cost must be equal exactly, and the plan must be ``Plan(q)``
once fresh column ids are renumbered.  Each walk also requires the rung to
have answered some edges, so it cannot pass by answering none.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.optimizer.config import DEFAULT_CONFIG
from repro.optimizer.engine import Optimizer
from repro.optimizer.result import OptimizationError
from repro.service import PlanService
from repro.testing.random_gen import RandomQueryGenerator
from repro.testing.suite import TestSuiteBuilder, pair_nodes, singleton_nodes
from repro.workloads import tpch_database
from tests.test_optimizer import _renumbered


class _EdgeWalk:
    """Asks one service for ``Cost(q, ¬R)`` edges and checks every answer
    the lineage rung gave against a from-scratch optimization."""

    def __init__(self, database, registry) -> None:
        self.database = database
        self.registry = registry
        self.service = PlanService(database, registry=registry)
        self.answered = 0

    def base(self, tree):
        try:
            return self.service.optimize(tree)
        except OptimizationError:
            return None

    def check(self, tree, disabled) -> None:
        base = self.service.optimize(tree)
        config = DEFAULT_CONFIG.with_disabled(disabled)
        before = self.service.counters.lineage_hits
        cost = self.service.cost(tree, config)
        if self.service.counters.lineage_hits == before:
            return
        assert not base.stats.budget_exhausted, disabled
        self.answered += 1
        fresh = Optimizer(
            self.database.catalog, self.service.stats, self.registry, config
        ).optimize(tree)
        assert fresh.cost == cost == base.cost, disabled
        assert _renumbered(fresh.plan) == _renumbered(base.plan), disabled


def _campaign_suite_walk(registry):
    """Every edge of ``campaign_rules``' two suites (database and
    generation seed 0, k = 2)."""
    walk = _EdgeWalk(tpch_database(seed=0), registry)
    names = registry.exploration_rule_names
    for nodes, extra in (
        (singleton_nodes(names[::2]), 4),
        (pair_nodes(names[:5]), 0),
    ):
        suite = TestSuiteBuilder(
            walk.database, registry, seed=0, extra_operators=extra,
            service=walk.service,
        ).build(nodes, 2)
        for node in suite.rule_nodes:
            for query in suite.queries_for(node):
                walk.check(query.tree, node)
    return walk


def _random_tree_walk(database, registry, seeds):
    walk = _EdgeWalk(database, registry)
    exploration = frozenset(registry.exploration_rule_names)
    for seed in seeds:
        tree = RandomQueryGenerator(
            database.catalog, seed=seed, stats=walk.service.stats,
            min_operators=3, max_operators=7,
        ).random_tree()
        base = walk.base(tree)
        if base is None:
            continue
        for name in sorted(base.rules_exercised & exploration):
            walk.check(tree, (name,))
    return walk


def test_campaign_suite_edges(registry):
    walk = _campaign_suite_walk(registry)
    assert walk.answered > 0


def test_random_tree_edges(tpch_db, registry):
    walk = _random_tree_walk(tpch_db, registry, range(0, 50))
    assert walk.answered > 0


@pytest.mark.slow
def test_random_tree_edges_to_seed_199(tpch_db, registry):
    walk = _random_tree_walk(tpch_db, registry, range(50, 200))
    assert walk.answered > 0


@given(seed=st.integers(0, 10_000), data=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_any_one_or_two_disabled_rules(tpch_db, registry, seed, data):
    """Random trees x random one- and two-rule disabled sets: wherever the
    rung answers, it answers what a from-scratch optimization does."""
    walk = _EdgeWalk(tpch_db, registry)
    tree = RandomQueryGenerator(
        tpch_db.catalog, seed=seed, stats=walk.service.stats,
        min_operators=3, max_operators=7,
    ).random_tree()
    if walk.base(tree) is None:
        return
    disabled = data.draw(
        st.lists(
            st.sampled_from([rule.name for rule in registry.all_rules]),
            min_size=1, max_size=2, unique=True,
        )
    )
    walk.check(tree, tuple(disabled))


#: ``RandomQueryGenerator`` seed 300 on the seed-1 database: no disabled
#: rule built the winning plan, yet each restricted search -- uncut, like
#: the full one -- finds a cheaper plan, because a substitute's subtree
#: that landed on an expression the disabled rules made founds a group of
#: its own there.  ``(disabled rules, Cost(q, ¬R))``; ``Cost(q)`` is 6.91.
SEED_300_EDGES = [
    (("SelectMerge",), 6.860767),
    (("SelectPushBelowJoinLeft",), 6.860767),
    (("CrossToInnerJoin", "SelectPushBelowJoinLeft"), 6.860767),
]


@pytest.mark.parametrize(
    "disabled, restricted_cost", SEED_300_EDGES,
    ids=["+".join(rules) for rules, _ in SEED_300_EDGES],
)
def test_landing_on_what_the_rules_made_is_refused(
    tpch_db, registry, disabled, restricted_cost
):
    walk = _EdgeWalk(tpch_db, registry)
    tree = RandomQueryGenerator(
        tpch_db.catalog, seed=300, stats=walk.service.stats,
        min_operators=3, max_operators=7,
    ).random_tree()
    base = walk.base(tree)
    assert not base.stats.budget_exhausted
    assert base.cost == pytest.approx(6.91, abs=1e-6)
    assert "SelectMerge" in base.rules_exercised
    cost = walk.service.cost(tree, DEFAULT_CONFIG.with_disabled(disabled))
    assert walk.service.counters.lineage_hits == 0
    assert cost == pytest.approx(restricted_cost, abs=1e-6)
