"""Tests for symbolic substitution verification (clean-registry regression
plus targeted checks of the individual SV2xx diagnostics)."""

import pytest

from repro.analysis import (
    BoundsDeriver,
    RowBounds,
    SubstitutionVerifier,
    TreeContext,
)
from repro.analysis.verify import default_workloads
from repro.catalog.schema import DataType
from repro.expr.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    IsNull,
    Literal,
)
from repro.logical.operators import (
    Distinct,
    JoinKind,
    OpKind,
    Project,
    Select,
    make_get,
)
from repro.rules.framework import ANY, P, Rule
from repro.rules.registry import RuleRegistry, default_registry


@pytest.fixture(scope="module")
def workloads():
    return default_workloads(seed=1)


@pytest.fixture(scope="module")
def clean_report(workloads):
    verifier = SubstitutionVerifier(
        default_registry(), workloads, samples_per_workload=4
    )
    return verifier.run()


class TestCleanRegistry:
    """The seed registry must verify with zero errors -- the regression
    test backing the 'fix any real diagnostics' satellite (the original
    IntersectToSemiJoin/ExceptToAntiJoin Distinct placement bug was found
    and fixed by this pass)."""

    def test_zero_errors(self, clean_report):
        assert clean_report.errors == []

    def test_zero_warnings(self, clean_report):
        assert clean_report.warnings == []

    def test_every_rule_verified(self, clean_report):
        assert clean_report.counters["rules_verified"] == len(
            default_registry().all_rules
        )

    def test_substantial_binding_coverage(self, clean_report):
        # 50 rules x 2 workloads x 4 samples, plus adversarial variants.
        assert clean_report.counters["bindings_checked"] > 300

    def test_no_unverified_rules(self, clean_report):
        # Every rule must get at least one accepted binding: a rule the
        # verifier cannot reach would silently escape all SV2xx checks.
        assert clean_report.by_code("SV200") == []


class _SchemaChanging(Rule):
    """Drops a column: Select(X) -> Project(X, all-but-one column)."""

    name = "SelectMerge"  # replaces a real rule so the registry accepts it
    pattern = P(OpKind.SELECT, P(OpKind.SELECT, ANY))

    def substitute(self, binding, ctx):
        columns = ctx.columns(binding)[:-1]
        yield Project(
            binding, tuple((c, ColumnRef(c)) for c in columns)
        )


class _RaisingSubstitution(Rule):
    name = "SelectMerge"
    pattern = P(OpKind.SELECT, P(OpKind.SELECT, ANY))

    def substitute(self, binding, ctx):
        raise RuntimeError("boom")


class _NotAnOperator(Rule):
    name = "SelectMerge"
    pattern = P(OpKind.SELECT, P(OpKind.SELECT, ANY))

    def substitute(self, binding, ctx):
        yield "not an operator"


def _verify_single(rule, workloads):
    registry = default_registry().with_replaced_rule(rule)
    verifier = SubstitutionVerifier(
        registry, workloads, samples_per_workload=3
    )
    return verifier.check_rule(registry.rule(rule.name))


class TestDefectDetection:
    def test_schema_change_is_sv203(self, workloads):
        report = _verify_single(_SchemaChanging(), workloads)
        assert any(d.code == "SV203" for d in report.errors)

    def test_raising_substitution_is_sv201(self, workloads):
        report = _verify_single(_RaisingSubstitution(), workloads)
        assert any(d.code == "SV201" for d in report.errors)

    def test_non_operator_substitute_is_sv202(self, workloads):
        report = _verify_single(_NotAnOperator(), workloads)
        assert any(d.code == "SV202" for d in report.errors)


class TestRowBounds:
    def test_overlap(self):
        assert RowBounds(0, 10).overlaps(RowBounds(5, 20))
        assert not RowBounds(0, 4).overlaps(RowBounds(5, 20))

    def test_provably_empty(self):
        assert RowBounds(0, 0).provably_empty
        assert not RowBounds(0, 1).provably_empty

    def test_get_bounds_are_exact(self, tpch_db, tpch_stats):
        ctx = TreeContext(tpch_db.catalog, tpch_stats)
        deriver = BoundsDeriver(ctx)
        get = make_get(tpch_db.catalog.table("region"))
        bounds = deriver.derive(get)
        assert bounds.lo == bounds.hi > 0

    def test_is_null_on_non_nullable_is_empty(self, tpch_db, tpch_stats):
        ctx = TreeContext(tpch_db.catalog, tpch_stats)
        deriver = BoundsDeriver(ctx)
        get = make_get(tpch_db.catalog.table("region"))
        key = next(
            c for c in get.columns if c.name == "r_regionkey"
        )
        select = Select(get, IsNull(ColumnRef(key)))
        assert deriver.derive(select).provably_empty

    def test_comparison_filter_keeps_zero_lower_bound(
        self, tpch_db, tpch_stats
    ):
        ctx = TreeContext(tpch_db.catalog, tpch_stats)
        deriver = BoundsDeriver(ctx)
        get = make_get(tpch_db.catalog.table("region"))
        column = get.columns[0]
        select = Select(
            get,
            Comparison(
                ComparisonOp.GE, ColumnRef(column), Literal(5, DataType.INT)
            ),
        )
        bounds = deriver.derive(select)
        assert bounds.lo == 0
        assert bounds.hi == deriver.derive(get).hi


class TestTreeContext:
    def test_props_are_memoized(self, tpch_db, tpch_stats):
        ctx = TreeContext(tpch_db.catalog, tpch_stats)
        get = make_get(tpch_db.catalog.table("nation"))
        assert ctx.props(get) is ctx.props(get)

    def test_distinct_adds_full_key(self, tpch_db, tpch_stats):
        ctx = TreeContext(tpch_db.catalog, tpch_stats)
        get = make_get(tpch_db.catalog.table("nation"))
        distinct = Distinct(get)
        props = ctx.props(distinct)
        assert props.has_key(props.column_ids)

    def test_adversarial_variants_cover_join_kinds(self, workloads):
        # The Select-over-Join sweep is what catches the outer-join faults;
        # make sure it actually produces LEFT OUTER variants for a pattern
        # that admits them.
        rule = default_registry().rule("LojToJoinOnNullReject")
        verifier = SubstitutionVerifier(
            RuleRegistry([rule], []), workloads, samples_per_workload=4
        )
        bindings = verifier._synthesize_bindings(rule)
        kinds = {
            tree.child.join_kind
            for _, _, tree in bindings
            if isinstance(tree, Select)
        }
        assert JoinKind.LEFT_OUTER in kinds
