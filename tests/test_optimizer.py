"""Unit tests for the memo and the optimizer engine."""

import dataclasses
import random
import re

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
    GroupRef,
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
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingTracer
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.engine import Optimizer
from repro.optimizer.memo import Memo, MemoBudgetExceeded
from repro.optimizer.result import (
    OptimizationError,
    OptimizeResult,
    Unexercised,
)
from repro.physical.operators import PhysOpKind
from repro.service import PlanService
from repro.testing.builders import GenerationFailure
from repro.testing.pattern_gen import PatternInstantiator, merge_hints
from repro.testing.random_gen import RandomQueryGenerator


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

    @staticmethod
    def _selects(emp, count):
        """``count`` distinct Selects over ``emp`` (the memo does not check
        that a group's expressions are equivalent)."""
        return [
            Select(emp, Comparison(
                ComparisonOp.GT, ColumnRef(emp.columns[0]),
                Literal(value, DataType.INT),
            ))
            for value in range(count)
        ]

    def test_absorb_at_the_cap_is_a_cut(self, tiny_db):
        """A group at the expression cap absorbing a larger group copies
        nothing more, and the memo records the dropped alternatives as a
        cut of that group instead of passing them over silently."""
        memo = _memo(tiny_db)  # max_exprs_per_group=10
        emp = make_get(tiny_db.catalog.table("emp"))
        first, *more = self._selects(emp, 22)
        target = memo.intern_tree(first)
        for op in more[:9]:
            memo.add_to_group(target, op)
        source = memo.intern_tree(Distinct(emp))
        emp_ref = GroupRef(memo.intern_tree(emp))
        for op in more[9:]:  # past the cap: Group.add does not check it
            memo.group(source).add(op.with_children((emp_ref,)))
        assert len(memo.groups[target].logical_exprs) == 10
        assert len(memo.groups[source].logical_exprs) == 13
        assert memo.truncated is None
        assert memo.absorb_group(target, source) == []
        assert memo.truncated == ("absorb", target)

    def test_absorb_at_the_cap_of_duplicates_only_is_no_cut(self, tiny_db):
        memo = _memo(tiny_db)
        emp = make_get(tiny_db.catalog.table("emp"))
        selects = self._selects(emp, 9)
        target = memo.intern_tree(selects[0])
        for op in selects[1:]:
            memo.add_to_group(target, op)
        source = memo.intern_tree(Distinct(emp))
        for op in selects[:2]:
            memo.add_to_group(source, op)
        # The Distinct fills the last slot; what is left is in the target.
        assert len(memo.absorb_group(target, source)) == 1
        assert memo.truncated is None

    def test_initial_tree_has_no_support(self, tiny_db):
        memo = _memo(tiny_db)
        emp = make_get(tiny_db.catalog.table("emp"))
        memo.intern_tree(Select(emp, TRUE))
        assert all(
            expr.support == frozenset()
            for group in memo.groups for expr in group.logical_exprs
        )

    def test_substitute_support_and_what_it_landed_on(self, tiny_db):
        """A substitute's new expressions carry its derivation's support:
        the rule and the support of the expression it fired on.  What an
        existing expression it landed on relied on beyond that goes to the
        memo's ``landed_support``; an absorbed copy keeps its original's
        support too."""
        memo = _memo(tiny_db)
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        root = memo.intern_tree(Distinct(emp))
        (source,) = memo.groups[root].logical_exprs
        landed = memo.add_to_group(
            root, Select(emp, TRUE), (source, "A", source.op)
        )
        assert landed.support == {"A"}
        assert memo.landed_support == frozenset()  # Get(emp) has none
        join = Join(JoinKind.INNER, Select(emp, TRUE), Limit(dept, 1), TRUE)
        top = memo.add_to_group(root, join, (source, "B", source.op))
        assert top.support == {"B"}
        (limit,) = [
            expr for group in memo.groups for expr in group.logical_exprs
            if isinstance(expr.op, Limit)
        ]
        assert limit.support == {"B"}  # created by the same substitute
        # Select(emp) landed on A's expression: without A it would found
        # a group of its own.
        assert memo.landed_support == {"A"}
        # Fired on B's expression: its support is inherited.
        again = memo.add_to_group(root, Limit(emp, 2), (top, "C", top.op))
        assert again.support == {"B", "C"}
        # A landing on what the derivation relies on anyway adds nothing.
        memo.add_to_group(
            root, Distinct(Select(emp, TRUE)), (landed, "E", landed.op)
        )
        assert memo.landed_support == {"A"}
        other = memo.intern_tree(Sort(emp, ()))
        (sort,) = memo.groups[other].logical_exprs
        copies = memo.absorb_group(other, root, (sort, "D", sort.op))
        assert [sorted(expr.support) for expr in copies] == [
            ["D"], ["A", "D"], ["B", "D"], ["B", "C", "D"], ["A", "D", "E"],
        ]


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

    def test_plan_support_names_the_rules_the_plan_was_built_from(
        self, tiny_db, tiny_optimizer
    ):
        """SelectTrueRemoval made the bare Get the plan scans; the Filter
        alternative lost, so SelectToFilter is exercised but no support."""
        emp = make_get(tiny_db.catalog.table("emp"))
        result = tiny_optimizer.optimize(Select(emp, TRUE))
        assert result.plan.kind is PhysOpKind.TABLE_SCAN
        assert result.plan_support == {"SelectTrueRemoval", "GetToTableScan"}
        assert "SelectToFilter" in result.rules_exercised

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

    def test_with_disabled_keeps_every_other_field(self):
        """A ``Plan(q, ¬R)`` request differs from its ``Plan(q)`` only in
        the disabled set -- also for a field added after this test."""
        bumped = {bool: lambda value: not value, int: lambda value: value + 1}
        values = {}
        for field in dataclasses.fields(OptimizerConfig):
            if field.name == "disabled_rules":
                values[field.name] = frozenset(["A"])
            else:
                values[field.name] = bumped[type(field.default)](field.default)
        config = OptimizerConfig(**values)
        merged = config.with_disabled(["B"])
        assert merged == OptimizerConfig(
            **{**values, "disabled_rules": frozenset(["A", "B"])}
        )
        assert merged.cache_token() == config.cache_token().replace(
            "disabled=[A]", "disabled=[A,B]"
        )
        default = OptimizerConfig()
        for name in values:
            # The plan cache keys on the token: every field must reach it.
            reset = merged.replaced(**{name: getattr(default, name)})
            assert merged.cache_token() != reset.cache_token(), name

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


# ------------------------------------------------------- generation trials

#: The fields a trial's result shares with ``optimize``'s.
RESULT_FIELDS = (
    "plan", "cost", "rules_exercised", "rule_interactions", "stats",
    "rule_counters", "output_columns", "plan_support",
)


def trial_trees(database, stats, registry):
    """44 pinned trees: 24 RANDOM ones and one PATTERN instantiation for
    each of the first 20 exploration rules."""
    trees = [
        RandomQueryGenerator(
            database.catalog, seed=seed, stats=stats
        ).random_tree()
        for seed in range(24)
    ]
    instantiator = PatternInstantiator(
        database.catalog, random.Random(3), stats
    )
    for rule in registry.exploration_rules[:20]:
        for _ in range(25):
            try:
                trees.append(
                    instantiator.instantiate(rule.pattern, merge_hints([rule]))
                )
            except GenerationFailure:
                continue
            break
        else:
            pytest.fail(f"could not instantiate pattern of {rule.name}")
    return trees


def trial_targets(full, registry):
    """Singleton and pair targets on both sides of ``RuleSet(q)``."""
    exploration = registry.exploration_rule_names
    inside = sorted(full.rules_exercised.intersection(exploration))
    outside = [name for name in exploration if name not in inside]
    targets = [(outside[0],), (outside[-1], outside[0])]
    if inside:
        targets += [(inside[0],), (inside[0], outside[0])]
    if len(inside) > 1:
        targets.append((inside[0], inside[-1]))
    return targets


def _renumbered(plan) -> str:
    """``repr(plan)`` with column ids numbered by first appearance: rules
    mint output columns from a process-wide counter, so two runs over one
    tree agree on everything but those ids."""
    ids = {}
    return re.sub(
        r"#\d+",
        lambda match: f"#c{ids.setdefault(match.group(), len(ids))}",
        repr(plan),
    )


def assert_same_answer(trial, full, targets):
    """``trial`` -- an optimizer's record, or a service's answer (``None``
    for *no*) -- answers as ``full`` does."""
    if not full.exercised_all(targets):
        assert trial is None or isinstance(trial, Unexercised) or (
            not trial.exercised_all(targets)
        ), targets
        return
    for name in RESULT_FIELDS:
        ours, theirs = getattr(trial, name), getattr(full, name)
        if name == "plan":
            ours, theirs = _renumbered(ours), _renumbered(theirs)
        assert ours == theirs, (name, targets)


def _trial_service(database, stats, registry, metrics, **options):
    """A one-process service that computes every request: nothing is
    remembered, so each request is one optimizer run folded into
    ``metrics``."""
    return PlanService(
        catalog=database.catalog, stats=stats, registry=registry,
        workers=1, memory_cache=False, metrics=metrics, **options,
    )


class TestOptimizeExercising:
    """``optimize_exercising`` is ``optimize`` that may stop early with the
    same answer to "is every target in ``RuleSet(q)``?"."""

    def test_same_answer_as_optimize(self, tpch_db, tpch_stats, registry):
        optimizer = Optimizer(tpch_db.catalog, tpch_stats, registry)
        trees = trial_trees(tpch_db, tpch_stats, registry)
        assert len(trees) >= 40
        stopped = 0
        for tree in trees:
            full = optimizer.optimize(tree)
            for targets in trial_targets(full, registry):
                trial = optimizer.optimize_exercising(tree, targets)
                assert_same_answer(trial, full, targets)
                stopped += isinstance(trial, Unexercised)
        assert stopped >= 2 * len(trees)

    def test_budget_capped_tree_gives_the_same_answer(
        self, tpch_db, tpch_stats, registry
    ):
        tree = _customer_orders_lineitem(tpch_db)
        capped = Optimizer(
            tpch_db.catalog, tpch_stats, registry,
            OptimizerConfig(max_rule_applications=5),
        )
        full = capped.optimize(tree)
        assert full.stats.budget_exhausted
        uncapped = Optimizer(tpch_db.catalog, tpch_stats, registry)
        cut_off = sorted(
            uncapped.optimize(tree).rules_exercised - full.rules_exercised
        )
        assert cut_off  # rules the cap kept from firing: a *no* here
        for targets in [(cut_off[0],)] + trial_targets(full, registry):
            assert_same_answer(
                capped.optimize_exercising(tree, targets), full, targets
            )

    def test_implementation_rule_target_is_judged_after_implementation(
        self, tpch_db, tpch_stats, registry
    ):
        optimizer = Optimizer(tpch_db.catalog, tpch_stats, registry)
        tree = make_get(tpch_db.catalog.table("nation"))
        full = optimizer.optimize(tree)
        assert "GetToTableScan" in full.rules_exercised
        assert "JoinToHashJoin" not in full.rules_exercised
        assert_same_answer(
            optimizer.optimize_exercising(tree, ["GetToTableScan"]),
            full, ["GetToTableScan"],
        )
        # Not exercised, but only implementation could tell: a full run.
        trial = optimizer.optimize_exercising(tree, ["JoinToHashJoin"])
        assert isinstance(trial, OptimizeResult)
        assert not trial.exercised_all(["JoinToHashJoin"])
        assert trial.stats == full.stats and trial.stats.costings > 0

        metrics = MetricsRegistry()
        service = _trial_service(tpch_db, tpch_stats, registry, metrics)
        service.optimize(tree)
        assert service.optimize_exercising(tree, ["GetToTableScan"])
        assert service.optimize_exercising(tree, ["JoinToHashJoin"]) is None
        assert metrics.counter_value("optimizer.unexercised") == 0
        assert metrics.counter_value("optimizer.optimizations") == 3

    def test_unknown_or_disabled_target_stops_after_exploration(
        self, tpch_db, tpch_stats, registry
    ):
        config = OptimizerConfig(disabled_rules=frozenset(["GetToTableScan"]))
        optimizer = Optimizer(tpch_db.catalog, tpch_stats, registry, config)
        tree = make_get(tpch_db.catalog.table("nation"))
        # Disabled, so it cannot fire -- and without it no plan exists, yet
        # the trial's answer is *no*, not an error.
        for targets in (["NoSuchRule"], ["GetToTableScan"]):
            trial = optimizer.optimize_exercising(tree, targets)
            assert isinstance(trial, Unexercised)
            assert trial.stats.costings == trial.stats.enforcers == 0

        metrics = MetricsRegistry()
        service = _trial_service(
            tpch_db, tpch_stats, registry, metrics, config=config
        )
        assert service.optimize_exercising(tree, ["NoSuchRule"]) is None
        assert service.optimize_exercising(tree, ["GetToTableScan"]) is None
        assert metrics.counter_value("optimizer.unexercised") == 2
        assert service.counters.errors == 0

    def test_stopped_run_records_its_exploration(
        self, tpch_db, tpch_stats, registry
    ):
        tree = _customer_orders_lineitem(tpch_db)
        missing = ("GbAggPullAboveJoin", "UnionAllCommutativity")
        full_metrics, trial_metrics = MetricsRegistry(), MetricsRegistry()
        full = _trial_service(
            tpch_db, tpch_stats, registry, full_metrics
        ).optimize(tree)
        tracer = RecordingTracer(detail="summary")
        trial = _trial_service(
            tpch_db, tpch_stats, registry, trial_metrics, tracer=tracer
        )
        assert trial.optimize_exercising(tree, missing) is None

        events = {event.name: dict(event.args) for event in tracer.events}
        assert events["optimize.unexercised"] == {
            "missing": ",".join(missing),
            "groups": full.stats.group_count,
            "exprs": full.stats.expr_count,
            "applications": full.stats.rule_applications,
        }
        assert "optimize.implement" not in events
        assert "optimize.done" not in events

        # The record the trial returned: the exploration's counts.
        record = Optimizer(
            tpch_db.catalog, tpch_stats, registry
        ).optimize_exercising(tree, missing)
        assert record.stats == dataclasses.replace(
            full.stats, costings=0, enforcers=0
        )
        exploration = set(registry.exploration_rule_names)
        assert [c for c in record.rule_counters if c.name in exploration] == [
            c for c in full.rule_counters if c.name in exploration
        ]

        # The same counts, folded into the trial service's registry.
        value = trial_metrics.counter_value
        assert value("optimizer.optimizations") == 1
        assert value("optimizer.unexercised") == 1
        assert value("optimizer.costings") == 0
        assert value("optimizer.rule_applications") == (
            full.stats.rule_applications
        )
        for name in registry.exploration_rule_names:
            for series in (
                "optimizer.rule.considered", "optimizer.rule.fired",
                "optimizer.rule.rejected",
                "optimizer.rule.precondition_failures",
            ):
                assert value(series, rule=name) == full_metrics.counter_value(
                    series, rule=name
                ), (series, name)
        for series in ("optimizer.memo.groups", "optimizer.memo.exprs"):
            assert (
                trial_metrics.snapshot()["histograms"][series]
                == full_metrics.snapshot()["histograms"][series]
            )
