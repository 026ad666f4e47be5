"""Tests for the optimizer's budget caps and graceful degradation.

The paper notes production optimizers prune with "constraints or
heuristics"; our analogue is explicit exploration budgets.  Hitting any cap
must degrade search quality, never correctness or availability of a plan.
"""

import pytest

from repro.engine import execute_plan, results_identical
from repro.expr.expressions import ColumnRef, Comparison, ComparisonOp
from repro.logical.operators import Join, JoinKind, make_get
from repro.optimizer.config import DEFAULT_CONFIG, OptimizerConfig
from repro.optimizer.engine import Optimizer


def _chain_join_query(database, tables):
    """A left-deep chain of FK joins (search space grows with length)."""
    gets = [make_get(database.catalog.table(name)) for name in tables]
    fk_pairs = {
        ("lineitem", "orders"): (0, 0),
        ("orders", "customer"): (1, 0),
        ("customer", "nation"): (3, 0),
        ("nation", "region"): (2, 0),
    }
    tree = gets[0]
    prev = gets[0]
    for get in gets[1:]:
        li, ri = fk_pairs[(prev.table, get.table)]
        predicate = Comparison(
            ComparisonOp.EQ,
            ColumnRef(prev.columns[li]),
            ColumnRef(get.columns[ri]),
        )
        tree = Join(JoinKind.INNER, tree, get, predicate)
        prev = get
    return tree


TABLES = ["lineitem", "orders", "customer", "nation", "region"]


class TestBudgets:
    @pytest.mark.parametrize("cap", [1, 5, 25, 200])
    def test_any_rule_application_cap_still_plans(self, tpch_db, cap):
        tree = _chain_join_query(tpch_db, TABLES)
        config = OptimizerConfig(max_rule_applications=cap)
        optimizer = Optimizer(
            tpch_db.catalog, tpch_db.stats_repository(), config=config
        )
        result = optimizer.optimize(tree)
        assert result.cost > 0

    def test_bigger_budget_never_worse(self, tpch_db):
        tree = _chain_join_query(tpch_db, TABLES)
        stats = tpch_db.stats_repository()
        costs = []
        for cap in (1, 10, 100, 10_000):
            config = OptimizerConfig(max_rule_applications=cap)
            result = Optimizer(
                tpch_db.catalog, stats, config=config
            ).optimize(tree)
            costs.append(result.cost)
        for smaller, bigger in zip(costs[1:], costs[:-1]):
            assert smaller <= bigger + 1e-9

    def test_capped_plans_remain_correct(self, tpch_db):
        """Budget exhaustion affects plan quality only: results identical."""
        tree = _chain_join_query(tpch_db, TABLES[:3])
        stats = tpch_db.stats_repository()
        full = Optimizer(tpch_db.catalog, stats).optimize(tree)
        capped = Optimizer(
            tpch_db.catalog,
            stats,
            config=OptimizerConfig(max_rule_applications=2),
        ).optimize(tree)
        a = execute_plan(full.plan, tpch_db, full.output_columns)
        b = execute_plan(capped.plan, tpch_db, capped.output_columns)
        assert results_identical(a, b)

    def test_expr_cap_reports_budget_exhausted(self, tpch_db):
        tree = _chain_join_query(tpch_db, TABLES)
        config = OptimizerConfig(max_exprs_per_group=2)
        result = Optimizer(
            tpch_db.catalog, tpch_db.stats_repository(), config=config
        ).optimize(tree)
        assert result.stats.budget_exhausted
        assert result.stats.cut == "exprs"
        group = result.stats.cut_group
        assert group is not None and 0 <= group < result.stats.group_count
        assert result.cost > 0

    def test_group_cap_names_the_group_it_was_exploring(self, tpch_db):
        tree = _chain_join_query(tpch_db, TABLES)
        config = OptimizerConfig(max_groups=12)
        result = Optimizer(
            tpch_db.catalog, tpch_db.stats_repository(), config=config
        ).optimize(tree)
        assert result.stats.budget_exhausted
        assert result.stats.cut == "groups"
        assert 0 <= result.stats.cut_group < result.stats.group_count == 12

    def test_uncut_search_names_no_cap(self, tpch_db):
        tree = _chain_join_query(tpch_db, TABLES[:2])
        result = Optimizer(
            tpch_db.catalog, tpch_db.stats_repository()
        ).optimize(tree)
        assert not result.stats.budget_exhausted
        assert (result.stats.cut, result.stats.cut_group) == (None, None)


#: cap -> (groups, expressions, cost) of the five-table chain at the commit
#: before the rule index (``fb80cc4``): the cap counts firings, which the
#: index does not change, so exploration stops at the same memo.
MEMO_AT_EXHAUSTION = {
    1: (9, 10, 84.65),
    5: (12, 17, 75.85),
    25: (24, 47, 58.25),
    200: (90, 255, 51.32),
}


class TestApplicationCap:
    @pytest.mark.parametrize("cap", sorted(MEMO_AT_EXHAUSTION))
    def test_memo_at_exhaustion_is_unchanged(self, tpch_db, cap):
        tree = _chain_join_query(tpch_db, TABLES)
        result = Optimizer(
            tpch_db.catalog,
            tpch_db.stats_repository(),
            config=OptimizerConfig(max_rule_applications=cap),
        ).optimize(tree)
        stats = result.stats
        assert stats.budget_exhausted and stats.rule_applications == cap
        assert stats.cut == "applications" and stats.cut_group is not None
        groups, exprs, cost = MEMO_AT_EXHAUSTION[cap]
        assert (stats.group_count, stats.expr_count) == (groups, exprs)
        assert result.cost == pytest.approx(cost, abs=1e-6)

    def _optimize(self, tpch_db, registry, cap=None):
        """customer JOIN nation, capped at ``cap`` firings (None: default)."""
        tree = _chain_join_query(tpch_db, ["customer", "nation"])
        config = DEFAULT_CONFIG
        if cap is not None:
            config = config.replaced(max_rule_applications=cap)
        return Optimizer(
            tpch_db.catalog, tpch_db.stats_repository(), registry, config
        ).optimize(tree)

    def test_flag_means_a_root_matching_pair_was_left_untried(
        self, tpch_db, registry
    ):
        # JoinCommutativity fires on the join and again on its mirror
        # image, and that second firing is the last pair whose root
        # matches: SelectMerge follows it in the registry but is rooted at
        # SELECT.  A scan over all rules would stop at (mirror image,
        # SelectMerge) and report exhaustion with nothing left to find.
        two_rules = registry.with_exploration_subset(
            ["JoinCommutativity", "SelectMerge"]
        )
        full = self._optimize(tpch_db, two_rules)
        firings = full.stats.rule_applications
        assert firings == 2 and not full.stats.budget_exhausted

        exact = self._optimize(tpch_db, two_rules, cap=firings)
        assert not exact.stats.budget_exhausted
        assert exact.stats == full.stats and exact.cost == full.cost

        one_less = self._optimize(tpch_db, two_rules, cap=firings - 1)
        assert one_less.stats.budget_exhausted
        assert one_less.stats.rule_applications == firings - 1

    def test_exact_cap_with_root_matching_pairs_left_still_reports(
        self, tpch_db, registry
    ):
        """With the full registry other JOIN-rooted rules follow the last
        firing, untried: same memo and cost as uncapped, flag set."""
        full = self._optimize(tpch_db, registry)
        assert not full.stats.budget_exhausted
        exact = self._optimize(
            tpch_db, registry, cap=full.stats.rule_applications
        )
        assert exact.stats.budget_exhausted
        assert exact.cost == full.cost
        assert (exact.stats.group_count, exact.stats.expr_count) == (
            full.stats.group_count, full.stats.expr_count
        )
