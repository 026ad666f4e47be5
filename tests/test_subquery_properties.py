"""Property-based tests (Hypothesis) for the subquery/Apply surface.

Two universal properties over *random correlated predicates*:

* **Bag preservation.**  For any semi/anti Apply with a random correlation
  predicate, the fully unnested plan (all rewrite routes open) and the
  naive correlated plan (every unnesting rule disabled, forcing the
  ``NestedApply`` fallback) execute to identical result bags -- i.e. the
  unnesting rules are exact under three-valued logic, not just on the
  hand-picked examples in ``test_rules_semantics.py``.

* **Substitution hygiene.**  ``Rule.substitutions()`` on each new rule,
  applied to random valid bindings through the analyzer's
  :class:`TreeContext`, always yields trees that pass ``validate_tree``;
  and the rules' source stays AL5xx-clean under the AST linter.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import AstLinter
from repro.analysis.context import TreeContext
from repro.engine import diff_summary, execute_plan, results_identical
from repro.expr.expressions import ColumnRef, Comparison, ComparisonOp, Literal
from repro.catalog.schema import DataType
from repro.logical.operators import Apply, JoinKind, Select, make_get
from repro.logical.validate import validate_tree
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.engine import Optimizer
from repro.rules.registry import RuleRegistry, default_registry
from repro.workloads import tpch_database

REGISTRY = default_registry()
DB = tpch_database(seed=1)
STATS = DB.stats_repository()

UNNESTING_RULES = (
    "ApplyToSemiJoin",
    "ApplyToAntiJoin",
    "ApplyDecorrelateSelect",
    "SelectPushIntoApplyLeft",
    "SemiJoinToDistinctInnerJoin",
)

#: (outer table, inner table, [(outer col, inner col) correlatable pairs],
#:  inner numeric column for the decorrelated filter)
_SHAPES = [
    ("customer", "orders", [("c_custkey", "o_custkey")], "o_totalprice"),
    ("nation", "customer", [("n_nationkey", "c_nationkey")], "c_acctbal"),
    ("region", "nation", [("r_regionkey", "n_regionkey")], "n_nationkey"),
]


def _optimize(tree, disabled=()):
    config = OptimizerConfig(disabled_rules=frozenset(disabled))
    return Optimizer(DB.catalog, STATS, REGISTRY, config).optimize(tree)


def _column(get_op, name):
    for column in get_op.columns:
        if column.name == name:
            return column
    raise LookupError(name)


def _apply_tree(shape_index, kind, comparison_op, threshold, with_filter):
    """A correlated semi/anti Apply with a drawn correlation comparison and
    an optional inner filter (the decorrelation rule's food)."""
    outer_name, inner_name, pairs, numeric = _SHAPES[shape_index]
    outer = make_get(DB.catalog.table(outer_name))
    inner = make_get(DB.catalog.table(inner_name))
    outer_col, inner_col = pairs[0]
    correlation = Comparison(
        comparison_op,
        ColumnRef(_column(outer, outer_col)),
        ColumnRef(_column(inner, inner_col)),
    )
    right = inner
    if with_filter:
        right = Select(
            inner,
            Comparison(
                ComparisonOp.GT,
                ColumnRef(_column(inner, numeric)),
                Literal(threshold, DataType.FLOAT),
            ),
        )
    return Apply(kind, outer, right, correlation)


class TestUnnestingPreservesBags:
    @given(
        shape_index=st.integers(0, len(_SHAPES) - 1),
        kind=st.sampled_from([JoinKind.SEMI, JoinKind.ANTI]),
        comparison_op=st.sampled_from(
            [ComparisonOp.EQ, ComparisonOp.LT, ComparisonOp.GE]
        ),
        threshold=st.floats(-10.0, 2000.0, allow_nan=False),
        with_filter=st.booleans(),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_unnested_equals_nested_apply(
        self, shape_index, kind, comparison_op, threshold, with_filter
    ):
        tree = _apply_tree(
            shape_index, kind, comparison_op, threshold, with_filter
        )
        validate_tree(tree, DB.catalog)
        unnested = _optimize(tree)
        nested = _optimize(tree, disabled=UNNESTING_RULES)
        assert not set(nested.rules_exercised) & set(UNNESTING_RULES)
        baseline = execute_plan(
            unnested.plan, DB, unnested.output_columns
        )
        fallback = execute_plan(nested.plan, DB, nested.output_columns)
        assert results_identical(baseline, fallback), diff_summary(
            baseline, fallback
        )
        # Unnesting is a pure cost optimization: opening the rewrite
        # routes can never make the chosen plan costlier.
        assert unnested.cost <= nested.cost + 1e-9

    @given(
        shape_index=st.integers(0, len(_SHAPES) - 1),
        kind=st.sampled_from([JoinKind.SEMI, JoinKind.ANTI]),
        disabled=st.sampled_from(UNNESTING_RULES),
        threshold=st.floats(0.0, 1000.0, allow_nan=False),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_each_rule_is_individually_redundant(
        self, shape_index, kind, disabled, threshold
    ):
        """Disabling any single unnesting rule never changes results --
        the family is mutually redundant on these shapes, exactly the
        rule-interaction surface the IG4xx graph maps."""
        tree = _apply_tree(shape_index, kind, ComparisonOp.EQ, threshold, True)
        full = _optimize(tree)
        restricted = _optimize(tree, disabled=[disabled])
        left = execute_plan(full.plan, DB, full.output_columns)
        right = execute_plan(
            restricted.plan, DB, restricted.output_columns
        )
        assert results_identical(left, right), diff_summary(left, right)


class TestSubstitutionHygiene:
    @given(
        shape_index=st.integers(0, len(_SHAPES) - 1),
        kind=st.sampled_from([JoinKind.SEMI, JoinKind.ANTI]),
        comparison_op=st.sampled_from(
            [ComparisonOp.EQ, ComparisonOp.NE, ComparisonOp.GT]
        ),
        threshold=st.floats(-100.0, 100.0, allow_nan=False),
        with_filter=st.booleans(),
    )
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_substitutions_yield_valid_trees(
        self, shape_index, kind, comparison_op, threshold, with_filter
    ):
        """Every tree any unnesting rule substitutes for a random valid
        binding passes full structural validation."""
        tree = _apply_tree(
            shape_index, kind, comparison_op, threshold, with_filter
        )
        ctx = TreeContext(DB.catalog, STATS)

        def matches(pattern, node):
            if not pattern.matches_op(node):
                return False
            if not pattern.children:
                return True
            return len(pattern.children) == len(node.children) and all(
                matches(p, c)
                for p, c in zip(pattern.children, node.children)
            )

        for name in UNNESTING_RULES:
            rule = REGISTRY.rule(name)
            for binding in tree.walk():
                if not matches(rule.pattern, binding):
                    continue
                for substitute in rule.substitutions(binding, ctx):
                    validate_tree(substitute, DB.catalog)

    def test_new_rules_are_al5xx_clean(self):
        """The AST linter finds nothing on any unnesting rule (pins the
        satellite requirement explicitly, independent of the clean-registry
        umbrella test)."""
        rules = [REGISTRY.rule(name) for name in UNNESTING_RULES]
        linter = AstLinter(
            RuleRegistry(rules, list(REGISTRY.implementation_rules))
        )
        report = linter.run()
        assert not report.diagnostics, [
            d.code for d in report.diagnostics
        ]
