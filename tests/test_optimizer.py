"""Unit tests for the memo and the optimizer engine."""

import pytest

from repro.catalog.schema import DataType
from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import (
    TRUE,
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
)
from repro.logical.cardinality import CardinalityEstimator
from repro.logical.operators import (
    Distinct,
    Except,
    GbAgg,
    Intersect,
    Join,
    JoinKind,
    Limit,
    Project,
    Select,
    Sort,
    SortKey,
    Union,
    UnionAll,
    make_get,
)
from repro.logical.properties import PropertyDeriver
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.engine import Optimizer
from repro.optimizer.memo import Memo, MemoBudgetExceeded
from repro.optimizer.result import OptimizationError
from repro.physical.operators import PhysOpKind
from repro.rules.registry import default_registry


@pytest.fixture()
def tiny_optimizer(tiny_db):
    return Optimizer(tiny_db.catalog, tiny_db.stats_repository())


def _memo(database):
    deriver = PropertyDeriver(database.catalog)
    estimator = CardinalityEstimator(
        database.catalog, database.stats_repository()
    )
    return Memo(deriver, estimator, max_groups=100, max_exprs_per_group=10)


class TestMemo:
    def test_intern_tree_creates_groups_bottom_up(self, tiny_db):
        memo = _memo(tiny_db)
        emp = make_get(tiny_db.catalog.table("emp"))
        select = Select(emp, TRUE)
        root = memo.intern_tree(select)
        assert len(memo.groups) == 2
        assert memo.groups[root].logical_exprs[0].op.kind.value == "Select"

    def test_identical_trees_dedup(self, tiny_db):
        memo = _memo(tiny_db)
        emp = make_get(tiny_db.catalog.table("emp"))
        assert memo.intern_tree(Select(emp, TRUE)) == memo.intern_tree(
            Select(emp, TRUE)
        )

    def test_add_to_group_dedups_within_group(self, tiny_db):
        memo = _memo(tiny_db)
        emp = make_get(tiny_db.catalog.table("emp"))
        root = memo.intern_tree(Select(emp, TRUE))
        assert memo.add_to_group(root, Select(emp, TRUE)) is None

    def test_group_cap_enforced(self, tiny_db):
        deriver = PropertyDeriver(tiny_db.catalog)
        estimator = CardinalityEstimator(
            tiny_db.catalog, tiny_db.stats_repository()
        )
        memo = Memo(deriver, estimator, max_groups=1, max_exprs_per_group=10)
        emp = make_get(tiny_db.catalog.table("emp"))
        with pytest.raises(MemoBudgetExceeded):
            memo.intern_tree(Select(emp, TRUE))

    def test_group_props_derived(self, tiny_db):
        memo = _memo(tiny_db)
        emp = make_get(tiny_db.catalog.table("emp"))
        root = memo.intern_tree(emp)
        group = memo.groups[root]
        assert group.props.columns == emp.columns
        assert group.estimate.rows == 6

    def test_absorb_group_copies_expressions(self, tiny_db):
        memo = _memo(tiny_db)
        emp = make_get(tiny_db.catalog.table("emp"))
        outer = memo.intern_tree(Distinct(emp))
        inner = memo.intern_tree(emp)
        added = memo.absorb_group(outer, inner)
        assert len(added) == 1
        assert memo.groups[outer].contains(emp)

    def test_absorb_self_is_noop(self, tiny_db):
        memo = _memo(tiny_db)
        emp = make_get(tiny_db.catalog.table("emp"))
        gid = memo.intern_tree(emp)
        assert memo.absorb_group(gid, gid) == []


class TestOptimizeBasics:
    def test_single_table(self, tiny_db, tiny_optimizer):
        emp = make_get(tiny_db.catalog.table("emp"))
        result = tiny_optimizer.optimize(emp)
        assert result.plan.kind is PhysOpKind.TABLE_SCAN
        assert result.output_columns == emp.columns
        assert result.cost > 0

    def test_every_operator_kind_is_implementable(self, tiny_db, tiny_optimizer):
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        out = Column("u", DataType.INT)
        count = Column("n", DataType.INT)
        trees = [
            Select(emp, TRUE),
            Project(emp, ((emp.columns[0], ColumnRef(emp.columns[0])),)),
            Join(JoinKind.CROSS, emp, dept),
            Join(JoinKind.LEFT_OUTER, emp, dept,
                 Comparison(ComparisonOp.EQ, ColumnRef(emp.columns[1]),
                            ColumnRef(dept.columns[0]))),
            Join(JoinKind.SEMI, emp, dept,
                 Comparison(ComparisonOp.EQ, ColumnRef(emp.columns[1]),
                            ColumnRef(dept.columns[0]))),
            GbAgg(emp, (emp.columns[1],),
                  ((count, AggregateCall(AggregateFunction.COUNT_STAR)),)),
            UnionAll(emp, dept, (out,), (emp.columns[0],), (dept.columns[0],)),
            Union(emp, dept, (out,), (emp.columns[0],), (dept.columns[0],)),
            Intersect(emp, dept, (out,), (emp.columns[1],), (dept.columns[0],)),
            Except(emp, dept, (out,), (emp.columns[1],), (dept.columns[0],)),
            Distinct(emp),
            Sort(emp, (SortKey(emp.columns[0]),)),
            Limit(emp, 3),
        ]
        for tree in trees:
            result = tiny_optimizer.optimize(tree)
            assert result.cost > 0, tree.describe()

    def test_hash_join_chosen_for_large_equijoin(self, tpch_db):
        optimizer = Optimizer(tpch_db.catalog, tpch_db.stats_repository())
        orders = make_get(tpch_db.catalog.table("orders"))
        lineitem = make_get(tpch_db.catalog.table("lineitem"))
        join = Join(
            JoinKind.INNER,
            lineitem,
            orders,
            Comparison(
                ComparisonOp.EQ,
                ColumnRef(lineitem.columns[0]),
                ColumnRef(orders.columns[0]),
            ),
        )
        result = optimizer.optimize(join)
        kinds = {node.kind for node in result.plan.walk()}
        assert PhysOpKind.HASH_JOIN in kinds or PhysOpKind.MERGE_JOIN in kinds

    def test_predicate_pushdown_reflected_in_plan(self, tpch_db):
        optimizer = Optimizer(tpch_db.catalog, tpch_db.stats_repository())
        orders = make_get(tpch_db.catalog.table("orders"))
        cust = make_get(tpch_db.catalog.table("customer"))
        join = Join(
            JoinKind.CROSS, orders, cust
        )
        selective = Select(
            join,
            Comparison(
                ComparisonOp.EQ,
                ColumnRef(orders.columns[1]),
                ColumnRef(cust.columns[0]),
            ),
        )
        result = optimizer.optimize(selective)
        # CrossToInnerJoin + hash implementation should beat filtered NL cross.
        assert result.exercised("CrossToInnerJoin")
        kinds = [node.kind for node in result.plan.walk()]
        assert PhysOpKind.HASH_JOIN in kinds or PhysOpKind.MERGE_JOIN in kinds


class TestRuleTracking:
    def test_ruleset_contains_fired_rules_only(self, tiny_db, tiny_optimizer):
        emp = make_get(tiny_db.catalog.table("emp"))
        result = tiny_optimizer.optimize(Select(emp, TRUE))
        assert "SelectTrueRemoval" in result.rules_exercised
        assert "JoinCommutativity" not in result.rules_exercised

    def test_exercised_helpers(self, tiny_db, tiny_optimizer):
        emp = make_get(tiny_db.catalog.table("emp"))
        result = tiny_optimizer.optimize(Select(emp, TRUE))
        assert result.exercised("SelectTrueRemoval")
        assert result.exercised_all(["SelectTrueRemoval", "GetToTableScan"])
        assert not result.exercised_all(["SelectTrueRemoval", "Ghost"])


class TestRuleDisabling:
    def _join_query(self, tiny_db):
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        join = Join(
            JoinKind.INNER,
            emp,
            dept,
            Comparison(
                ComparisonOp.EQ,
                ColumnRef(emp.columns[1]),
                ColumnRef(dept.columns[0]),
            ),
        )
        return Select(
            join,
            Comparison(
                ComparisonOp.GT,
                ColumnRef(emp.columns[2]),
                Literal(50.0, DataType.FLOAT),
            ),
        )

    def test_disabling_any_exploration_rule_still_plans(self, tiny_db, registry):
        tree = self._join_query(tiny_db)
        stats = tiny_db.stats_repository()
        for rule in registry.exploration_rules:
            config = OptimizerConfig(disabled_rules=frozenset([rule.name]))
            optimizer = Optimizer(tiny_db.catalog, stats, registry, config)
            result = optimizer.optimize(tree)
            assert result.cost > 0

    def test_cost_monotone_under_disabling(self, tiny_db, registry):
        tree = self._join_query(tiny_db)
        stats = tiny_db.stats_repository()
        base = Optimizer(tiny_db.catalog, stats, registry).optimize(tree)
        for rule in registry.exploration_rules:
            config = OptimizerConfig(disabled_rules=frozenset([rule.name]))
            result = Optimizer(
                tiny_db.catalog, stats, registry, config
            ).optimize(tree)
            assert result.cost >= base.cost - 1e-9, rule.name

    def test_disabling_all_join_implementations_fails(self, tiny_db, registry):
        tree = self._join_query(tiny_db)
        config = OptimizerConfig(
            disabled_rules=frozenset(
                ["JoinToNestedLoops", "JoinToHashJoin", "JoinToMergeJoin"]
            )
        )
        optimizer = Optimizer(
            tiny_db.catalog, tiny_db.stats_repository(), registry, config
        )
        with pytest.raises(OptimizationError):
            optimizer.optimize(tree)

    def test_disabled_rule_never_reported(self, tiny_db, registry):
        tree = self._join_query(tiny_db)
        config = OptimizerConfig(
            disabled_rules=frozenset(["SelectPushBelowJoinLeft"])
        )
        optimizer = Optimizer(
            tiny_db.catalog, tiny_db.stats_repository(), registry, config
        )
        result = optimizer.optimize(tree)
        assert "SelectPushBelowJoinLeft" not in result.rules_exercised


class TestOptimizerConfig:
    def test_with_disabled_accumulates(self):
        config = OptimizerConfig(disabled_rules=frozenset(["A"]))
        merged = config.with_disabled(["B"])
        assert merged.disabled_rules == frozenset(["A", "B"])
        assert merged.is_disabled("A") and merged.is_disabled("B")

    def test_budget_cap_stops_exploration_cleanly(self, tiny_db, registry):
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        join = Join(
            JoinKind.INNER, emp, dept,
            Comparison(ComparisonOp.EQ, ColumnRef(emp.columns[1]),
                       ColumnRef(dept.columns[0])),
        )
        config = OptimizerConfig(max_rule_applications=2)
        optimizer = Optimizer(
            tiny_db.catalog, tiny_db.stats_repository(), registry, config
        )
        result = optimizer.optimize(join)
        assert result.stats.budget_exhausted
        assert result.cost > 0  # still produced a plan


class TestPlanExtraction:
    def test_sort_enforcer_appears_for_merge_join(self, tiny_db, registry):
        """Force a merge join by disabling the alternatives; the plan must
        contain Sort enforcers feeding it."""
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        join = Join(
            JoinKind.INNER, emp, dept,
            Comparison(ComparisonOp.EQ, ColumnRef(emp.columns[1]),
                       ColumnRef(dept.columns[0])),
        )
        config = OptimizerConfig(
            disabled_rules=frozenset(["JoinToNestedLoops", "JoinToHashJoin"])
        )
        optimizer = Optimizer(
            tiny_db.catalog, tiny_db.stats_repository(), registry, config
        )
        result = optimizer.optimize(join)
        kinds = [node.kind for node in result.plan.walk()]
        assert PhysOpKind.MERGE_JOIN in kinds
        assert kinds.count(PhysOpKind.SORT) >= 2

    def test_extracted_plan_executes(self, tiny_db, tiny_optimizer):
        from repro.engine import execute_plan

        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        join = Join(
            JoinKind.LEFT_OUTER, emp, dept,
            Comparison(ComparisonOp.EQ, ColumnRef(emp.columns[1]),
                       ColumnRef(dept.columns[0])),
        )
        result = tiny_optimizer.optimize(join)
        output = execute_plan(result.plan, tiny_db, result.output_columns)
        assert output.row_count == 6


class TestMemoFreshTracking:
    def test_drain_fresh_returns_and_clears(self, tiny_db):
        from repro.logical.cardinality import CardinalityEstimator
        from repro.logical.properties import PropertyDeriver
        from repro.optimizer.memo import Memo
        from repro.expr.expressions import TRUE

        deriver = PropertyDeriver(tiny_db.catalog)
        estimator = CardinalityEstimator(
            tiny_db.catalog, tiny_db.stats_repository()
        )
        memo = Memo(deriver, estimator, max_groups=50, max_exprs_per_group=10)
        emp = make_get(tiny_db.catalog.table("emp"))
        memo.intern_tree(Select(emp, TRUE))
        fresh = memo.drain_fresh()
        assert len(fresh) == 2  # the Select and the Get
        assert memo.drain_fresh() == []

    def test_substitution_subtrees_are_explored(self, tiny_db, tiny_optimizer):
        """Rules must fire on expressions inside newly created child groups
        (e.g. the inner join manufactured by JoinLojAssociativity)."""
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        dept2 = make_get(tiny_db.catalog.table("dept"), "r")
        loj = Join(
            JoinKind.LEFT_OUTER, emp, dept,
            Comparison(ComparisonOp.EQ, ColumnRef(emp.columns[1]),
                       ColumnRef(dept.columns[0])),
        )
        top = Join(
            JoinKind.INNER, dept2, loj,
            Comparison(ComparisonOp.EQ, ColumnRef(dept2.columns[0]),
                       ColumnRef(emp.columns[1])),
        )
        result = tiny_optimizer.optimize(top)
        assert (
            "JoinLojAssociativity",
            "JoinCommutativity",
        ) in result.rule_interactions


def _customer_orders_lineitem(database):
    """``(customer JOIN orders ON c_custkey = o_custkey) JOIN lineitem ON
    o_orderkey = l_orderkey WHERE o_totalprice > 1000``: two FK joins, one
    filter."""
    customer = make_get(database.catalog.table("customer"))
    orders = make_get(database.catalog.table("orders"))
    lineitem = make_get(database.catalog.table("lineitem"))

    def column(get, name):
        return ColumnRef(next(c for c in get.columns if c.name == name))

    def equal(left, right):
        return Comparison(ComparisonOp.EQ, left, right)

    joined = Join(
        JoinKind.INNER,
        Join(
            JoinKind.INNER, customer, orders,
            equal(column(customer, "c_custkey"), column(orders, "o_custkey")),
        ),
        lineitem,
        equal(column(orders, "o_orderkey"), column(lineitem, "l_orderkey")),
    )
    return Select(
        joined,
        Comparison(
            ComparisonOp.GT,
            column(orders, "o_totalprice"),
            Literal(1000.0, DataType.FLOAT),
        ),
    )


class TestExplorationWork:
    """Counts, not times: they hold on any machine."""

    def test_every_expression_leaves_drain_fresh_exactly_once(
        self, tpch_db, tpch_stats, registry, monkeypatch
    ):
        drained = []  # the expressions themselves, so no id is reused
        drain_fresh = Memo.drain_fresh

        def recording(memo):
            fresh = drain_fresh(memo)
            drained.extend(fresh)
            return fresh

        monkeypatch.setattr(Memo, "drain_fresh", recording)
        result = Optimizer(tpch_db.catalog, tpch_stats, registry).optimize(
            _customer_orders_lineitem(tpch_db)
        )
        explored = [id(expr) for expr in drained]
        assert len(explored) == len(set(explored))
        assert len(explored) == result.stats.expr_count

    def test_only_root_matching_pairs_are_tried(
        self, tpch_db, tpch_stats, registry
    ):
        result = Optimizer(tpch_db.catalog, tpch_stats, registry).optimize(
            _customer_orders_lineitem(tpch_db)
        )
        considered, fired, rejected = result.rule_firing_summary()
        assert considered == fired + rejected
        # Offering every expression to every rule (fb80cc4) considered
        # 11,544 pairs to fire these same 718; the index considers 2,616.
        assert fired == 718
        assert considered <= 11_544 // 4
        assert fired / considered >= 0.25
