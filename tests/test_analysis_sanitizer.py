"""Tests for the plan sanitizer and its optimizer wiring."""

import dataclasses

import pytest

from repro.analysis import MonotonicityGuard, PlanSanitizer, PlanSanityError
from repro.analysis.lint import synthesize_bindings
from repro.catalog.schema import DataType
from repro.expr.expressions import (
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
)
from repro.logical.cardinality import CardinalityEstimator
from repro.logical.operators import (
    Apply,
    Join,
    JoinKind,
    OpKind,
    Project,
    Select,
    UnionAll,
    make_get,
)
from repro.logical.properties import PropertyDeriver
from repro.optimizer.config import DEFAULT_CONFIG, OptimizerConfig
from repro.optimizer.engine import Optimizer
from repro.optimizer.memo import GroupExpr, Memo
from repro.physical.operators import (
    ComputeScalar,
    Concat,
    Filter,
    HashAggregate,
    HashJoin,
    MergeJoin,
    NestedApply,
    NestedLoopsJoin,
    Sort,
    SortKey,
    TableScan,
)
from repro.rules.framework import ANY, P, Rule
from repro.rules.registry import default_registry
from repro.testing.random_gen import RandomQueryGenerator


def _scan(db, table):
    get = make_get(db.catalog.table(table))
    return get, TableScan(get.table, get.columns, get.alias)


class TestOffByDefault:
    def test_default_config_has_no_sanitizer(self, tpch_db, tpch_stats):
        optimizer = Optimizer(
            tpch_db.catalog, tpch_stats, default_registry()
        )
        assert optimizer._sanitizer is None

    def test_default_config_flag(self):
        assert DEFAULT_CONFIG.sanitize_plans is False

    def test_with_disabled_preserves_flag(self):
        config = OptimizerConfig(sanitize_plans=True)
        assert config.with_disabled(["JoinCommutativity"]).sanitize_plans


class TestSanitizedOptimization:
    """With the flag on, every query the generator produces must optimize
    without tripping an invariant."""

    def test_random_queries_pass(self, tpch_db, tpch_stats):
        config = OptimizerConfig(sanitize_plans=True)
        optimizer = Optimizer(
            tpch_db.catalog, tpch_stats, default_registry(), config=config
        )
        generator = RandomQueryGenerator(tpch_db.catalog, seed=7)
        for _ in range(5):
            tree = generator.random_tree()
            result = optimizer.optimize(tree)
            assert result.plan is not None
        assert optimizer._sanitizer.checks > 0

    def test_same_plans_with_and_without(self, tpch_db, tpch_stats):
        plain = Optimizer(tpch_db.catalog, tpch_stats, default_registry())
        checked = Optimizer(
            tpch_db.catalog,
            tpch_stats,
            default_registry(),
            config=OptimizerConfig(sanitize_plans=True),
        )
        generator = RandomQueryGenerator(tpch_db.catalog, seed=11)
        tree = generator.random_tree()
        assert plain.optimize(tree).cost == checked.optimize(tree).cost


class _CorruptingRule(Rule):
    """Emits a Project that references a column from outside the binding
    -- exactly the class of bug SA301 exists to catch."""

    name = "SelectMerge"
    pattern = P(OpKind.SELECT, P(OpKind.SELECT, ANY))

    def __init__(self, foreign_column):
        self._foreign = foreign_column

    def substitute(self, binding, ctx):
        outputs = tuple(
            (c, ColumnRef(c)) for c in ctx.columns(binding)
        ) + ((self._foreign, ColumnRef(self._foreign)),)
        yield Project(binding, outputs)


class TestCorruptedSubstitution:
    def test_foreign_column_reference_raises_sa301_or_sa302(
        self, tpch_db, tpch_stats
    ):
        foreign = make_get(tpch_db.catalog.table("region")).columns[0]
        registry = default_registry().with_replaced_rule(
            _CorruptingRule(foreign)
        )
        optimizer = Optimizer(
            tpch_db.catalog,
            tpch_stats,
            registry,
            config=OptimizerConfig(sanitize_plans=True),
        )
        nation = make_get(tpch_db.catalog.table("nation"))
        key = nation.columns[0]
        tree = Select(
            Select(
                nation,
                Comparison(ComparisonOp.GE, ColumnRef(key), ColumnRef(key)),
            ),
            Comparison(ComparisonOp.LE, ColumnRef(key), ColumnRef(key)),
        )
        with pytest.raises(PlanSanityError) as excinfo:
            optimizer.optimize(tree)
        assert excinfo.value.code in ("SA301", "SA302")


class TestMemoColumnReads:
    """SA301 reads each operator's declared column reads: the same
    declaration ``validate_tree`` checks plain trees against."""

    @pytest.fixture()
    def memo(self, tiny_db):
        return Memo(
            PropertyDeriver(tiny_db.catalog),
            CardinalityEstimator(tiny_db.catalog, tiny_db.stats_repository()),
            max_groups=50,
            max_exprs_per_group=10,
        )

    def _check(self, tiny_db, memo, tree, **changes):
        """Intern the valid ``tree``, then check its root with ``changes``
        applied as if a rule had inserted it."""
        root = memo.groups[memo.intern_tree(tree)].logical_exprs[0]
        corrupted = dataclasses.replace(root.op, **changes)
        PlanSanitizer(tiny_db.catalog).check_group_expr(
            GroupExpr(corrupted, root.group_id), memo, "Corrupting"
        )

    @pytest.mark.parametrize("make", [
        lambda left, right, pred: Join(JoinKind.SEMI, left, right, pred),
        lambda left, right, pred: Apply(JoinKind.SEMI, left, right, pred),
    ], ids=["join", "apply"])
    def test_dangling_predicate_is_sa301(self, tiny_db, memo, make):
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        stranger = make_get(tiny_db.catalog.table("dept"), "d2").columns[0]

        def equals(column):
            return Comparison(
                ComparisonOp.EQ, ColumnRef(emp.columns[1]), ColumnRef(column)
            )

        tree = make(emp, dept, equals(dept.columns[0]))
        self._check(tiny_db, memo, tree)  # the valid tree passes
        with pytest.raises(PlanSanityError) as excinfo:
            self._check(tiny_db, memo, tree, predicate=equals(stranger))
        assert excinfo.value.code == "SA301"
        assert "Corrupting" in str(excinfo.value)

    def test_set_op_branch_columns_checked_per_side(self, tiny_db, memo):
        dept = make_get(tiny_db.catalog.table("dept"))
        other = make_get(tiny_db.catalog.table("dept"), "d2")
        out = Column("u", DataType.INT)
        tree = UnionAll(
            dept, other, (out,), (dept.columns[0],), (other.columns[0],)
        )
        self._check(tiny_db, memo, tree)
        # Both columns exist below the union, but on the wrong sides.
        with pytest.raises(PlanSanityError) as excinfo:
            self._check(
                tiny_db, memo, tree,
                left_columns=(other.columns[0],),
                right_columns=(dept.columns[0],),
            )
        assert excinfo.value.code == "SA301"


#: The subquery rules: their Apply and semi-join predicates read both sides.
SUBQUERY_RULES = (
    "ApplyToSemiJoin",
    "ApplyToAntiJoin",
    "ApplyDecorrelateSelect",
    "SelectPushIntoApplyLeft",
    "SemiJoinToDistinctInnerJoin",
)


@pytest.mark.parametrize("rule_name", SUBQUERY_RULES)
def test_subquery_rule_queries_optimize_clean(tpch_db, tpch_stats, rule_name):
    """Queries drawn from each subquery rule's pattern optimise without a
    sanity error, with the rule enabled and with it disabled."""
    registry = default_registry()
    bindings = synthesize_bindings(
        registry.rule(rule_name),
        [("tpch", tpch_db.catalog, tpch_stats)],
        samples=16,
        stream="sanitize",
    )
    trees = [tree for _, _, tree in bindings][:8]
    assert len(trees) == 8
    config = OptimizerConfig(sanitize_plans=True)
    for enabled, checked in (
        (True, config), (False, config.with_disabled([rule_name]))
    ):
        optimizer = Optimizer(
            tpch_db.catalog, tpch_stats, registry, config=checked
        )
        for tree in trees:
            result = optimizer.optimize(tree)
            assert (rule_name in result.rules_exercised) is enabled


class TestCheckCost:
    def test_negative_cost_is_sa304(self, tpch_db):
        sanitizer = PlanSanitizer(tpch_db.catalog)
        _, scan = _scan(tpch_db, "region")
        with pytest.raises(PlanSanityError) as excinfo:
            sanitizer.check_cost(scan, -1.0)
        assert excinfo.value.code == "SA304"

    def test_nan_cost_is_sa304(self, tpch_db):
        sanitizer = PlanSanitizer(tpch_db.catalog)
        _, scan = _scan(tpch_db, "region")
        with pytest.raises(PlanSanityError):
            sanitizer.check_cost(scan, float("nan"))

    def test_infinite_cost_allowed(self, tpch_db):
        # INFINITE_COST is the engine's "no plan yet" sentinel.
        sanitizer = PlanSanitizer(tpch_db.catalog)
        _, scan = _scan(tpch_db, "region")
        sanitizer.check_cost(scan, float("inf"))


class TestCheckPlan:
    def test_valid_scan_passes(self, tpch_db):
        sanitizer = PlanSanitizer(tpch_db.catalog)
        get, scan = _scan(tpch_db, "region")
        sanitizer.check_plan(scan, get.columns)

    def test_merge_join_over_unsorted_input_is_sa303(self, tpch_db):
        sanitizer = PlanSanitizer(tpch_db.catalog)
        nation, nation_scan = _scan(tpch_db, "nation")
        region, region_scan = _scan(tpch_db, "region")
        nkey = next(c for c in nation.columns if c.name == "n_regionkey")
        rkey = next(c for c in region.columns if c.name == "r_regionkey")
        join = MergeJoin(nation_scan, region_scan, (nkey,), (rkey,))
        with pytest.raises(PlanSanityError) as excinfo:
            sanitizer.check_plan(join, nation.columns)
        assert excinfo.value.code == "SA303"

    def test_merge_join_over_sorted_input_passes(self, tpch_db):
        sanitizer = PlanSanitizer(tpch_db.catalog)
        nation, nation_scan = _scan(tpch_db, "nation")
        region, region_scan = _scan(tpch_db, "region")
        nkey = next(c for c in nation.columns if c.name == "n_regionkey")
        rkey = next(c for c in region.columns if c.name == "r_regionkey")
        join = MergeJoin(
            Sort(nation_scan, (SortKey(nkey, True),)),
            Sort(region_scan, (SortKey(rkey, True),)),
            (nkey,),
            (rkey,),
        )
        sanitizer.check_plan(join, nation.columns)

    def test_missing_output_column_is_sa306(self, tpch_db):
        sanitizer = PlanSanitizer(tpch_db.catalog)
        _, region_scan = _scan(tpch_db, "region")
        foreign = make_get(tpch_db.catalog.table("nation")).columns
        with pytest.raises(PlanSanityError) as excinfo:
            sanitizer.check_plan(region_scan, foreign)
        assert excinfo.value.code == "SA306"


class TestMonotonicityGuard:
    def test_holding_invariant_passes(self):
        guard = MonotonicityGuard()
        assert guard.observe("q1", 10.0, 10.0)
        assert guard.observe("q2", 9.0, 12.0, ["JoinCommutativity"])
        assert guard.violations == []
        guard.assert_ok()

    def test_violation_recorded(self):
        guard = MonotonicityGuard()
        assert not guard.observe("q1", 12.0, 9.0, ["SelectMerge"])
        assert len(guard.violations) == 1
        diag = guard.violations[0]
        assert diag.code == "SA305"
        assert "SelectMerge" in diag.message
        assert guard.observations == 1

    def test_assert_ok_raises(self):
        guard = MonotonicityGuard()
        guard.observe("q1", 12.0, 9.0)
        with pytest.raises(PlanSanityError) as excinfo:
            guard.assert_ok()
        assert excinfo.value.code == "SA305"

    def test_tolerance_absorbs_float_noise(self):
        guard = MonotonicityGuard()
        assert guard.observe("q1", 10.0 + 1e-12, 10.0)


class TestCorrectnessIntegration:
    def test_runner_feeds_guard(self, tiny_db):
        from repro.expr.expressions import IsNull
        from repro.sql.generate import to_sql
        from repro.testing.compression import top_k_independent_plan
        from repro.testing.correctness import CorrectnessRunner
        from repro.testing.suite import CostOracle, SuiteQuery, TestSuite

        registry = default_registry()
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        loj = Join(
            JoinKind.LEFT_OUTER,
            emp,
            dept,
            Comparison(
                ComparisonOp.EQ,
                ColumnRef(emp.columns[1]),
                ColumnRef(dept.columns[0]),
            ),
        )
        tree = Select(loj, IsNull(ColumnRef(emp.columns[2])))
        optimizer = Optimizer(
            tiny_db.catalog, tiny_db.stats_repository(), registry
        )
        result = optimizer.optimize(tree)
        rule_name = "LojPushSelectLeft"
        suite = TestSuite(
            rule_nodes=[(rule_name,)],
            queries=[
                SuiteQuery(
                    query_id=0,
                    tree=tree,
                    sql=to_sql(tree),
                    cost=result.cost,
                    ruleset=result.rules_exercised,
                    generated_for=(rule_name,),
                )
            ],
            k=1,
        )
        plan = top_k_independent_plan(suite, CostOracle(tiny_db, registry))
        guard = MonotonicityGuard()
        report = CorrectnessRunner(
            tiny_db, registry, monotonicity_guard=guard
        ).run(plan, suite)
        assert report.passed
        assert guard.observations > 0
        assert guard.violations == []


def _nation_region(db):
    nation, nation_scan = _scan(db, "nation")
    region, region_scan = _scan(db, "region")
    return nation, nation_scan, region, region_scan


def _dangling_plans(db):
    """One plan per physical column-read family, each reading
    ``nation.n_nationkey`` from an input that does not produce it; with
    the message SA301 words it in."""
    nation, nation_scan, region, region_scan = _nation_region(db)
    key = nation.columns[0]
    ref = f"nation.n_nationkey#{key.cid}"
    equals_one = Comparison(
        ComparisonOp.EQ, ColumnRef(key), Literal(1, DataType.INT)
    )
    out = Column("o", DataType.INT)
    return {
        "filter": (
            Filter(region_scan, equals_one),
            f"Filter(nation.n_nationkey = 1): predicate references column "
            f"{ref}, which its input does not produce",
        ),
        "compute_scalar": (
            ComputeScalar(region_scan, ((out, ColumnRef(key)),)),
            f"ComputeScalar(o): output expression references column {ref}, "
            "which its input does not produce",
        ),
        "nested_loops_join": (
            NestedLoopsJoin(
                JoinKind.INNER, region_scan, region_scan, equals_one
            ),
            f"NestedLoopsJoin[INNER](nation.n_nationkey = 1): predicate "
            f"references column {ref}, which its input does not produce",
        ),
        "hash_join_right_key_from_left": (
            HashJoin(JoinKind.INNER, nation_scan, region_scan, (key,), (key,)),
            f"HashJoin[INNER](n_nationkey=n_nationkey): right keys "
            f"references column {ref}, which its input does not produce",
        ),
        "aggregate_grouping": (
            HashAggregate(region_scan, (key,), ()),
            f"HashAggregate([n_nationkey]): grouping references column "
            f"{ref}, which its input does not produce",
        ),
        "sort_key": (
            Sort(region_scan, (SortKey(key),)),
            f"Sort(n_nationkey ASC): sort key references column {ref}, "
            "which its input does not produce",
        ),
        "concat_right_columns": (
            Concat(nation_scan, region_scan, (out,), (key,), (key,)),
            f"Concat: right input columns references column {ref}, which "
            "its input does not produce",
        ),
    }


DANGLING_FAMILIES = (
    "filter",
    "compute_scalar",
    "nested_loops_join",
    "hash_join_right_key_from_left",
    "aggregate_grouping",
    "sort_key",
    "concat_right_columns",
)


class TestPhysicalColumnReads:
    """SA301/SA306 on extracted plans read each physical operator's
    declared column reads and result columns."""

    @pytest.mark.parametrize("family", DANGLING_FAMILIES)
    def test_dangling_reference_is_sa301(self, tpch_db, family):
        plan, message = _dangling_plans(tpch_db)[family]
        with pytest.raises(PlanSanityError) as excinfo:
            PlanSanitizer(tpch_db.catalog).check_plan(plan, ())
        assert excinfo.value.code == "SA301"
        assert str(excinfo.value) == f"SA301: {message}"

    @pytest.mark.parametrize("operator", ["semi_join", "apply"])
    def test_right_columns_of_a_semi_join_are_not_output(
        self, tpch_db, operator
    ):
        nation, nation_scan, region, region_scan = _nation_region(tpch_db)
        matches = Comparison(
            ComparisonOp.EQ,
            ColumnRef(nation.columns[2]),
            ColumnRef(region.columns[0]),
        )
        if operator == "semi_join":
            plan = NestedLoopsJoin(
                JoinKind.SEMI, nation_scan, region_scan, matches
            )
        else:
            plan = NestedApply(
                JoinKind.SEMI, nation_scan, region_scan, matches
            )
        sanitizer = PlanSanitizer(tpch_db.catalog)
        sanitizer.check_plan(plan, nation.columns)
        with pytest.raises(PlanSanityError) as excinfo:
            sanitizer.check_plan(plan, nation.columns + region.columns)
        assert str(excinfo.value) == (
            "SA306: final plan does not produce required output column(s) "
            "region.r_regionkey, region.r_name, region.r_comment"
        )
