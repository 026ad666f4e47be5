"""Unit tests for the shared tree-building machinery."""

import random

import pytest

from repro.expr.expressions import TRUE, Comparison
from repro.logical.operators import Join, JoinKind, Project, Select, UnionAll
from repro.logical.validate import validate_tree
from repro.testing.builders import GenerationFailure, TreeBuilder


@pytest.fixture()
def builder(tpch_db):
    return TreeBuilder(
        tpch_db.catalog, random.Random(3), tpch_db.stats_repository()
    )


class TestLeaves:
    def test_random_get_has_unique_alias(self, builder):
        a = builder.random_get("orders")
        b = builder.random_get("orders")
        assert a.alias != b.alias

    def test_outputs_derivation(self, builder):
        get = builder.random_get("region")
        assert len(builder.outputs(get)) == 3


class TestPredicates:
    def test_predicate_on_columns_is_valid(self, builder, tpch_db):
        get = builder.random_get("orders")
        for _ in range(20):
            tree = Select(get, builder.predicate_on(get.columns, {}))
            validate_tree(tree, tpch_db.catalog)

    def test_literals_drawn_from_stats_range(self, builder, tpch_db):
        from repro.testing.builders import column_origins

        get = builder.random_get("orders")
        origins = column_origins(get)
        stats = tpch_db.stats_repository().get("orders")
        lo = stats.column("o_totalprice").min_value
        hi = stats.column("o_totalprice").max_value
        literal = builder._literal_for(get.columns[3], origins)
        assert lo <= literal.value <= hi

    def test_empty_columns_gives_true(self, builder):
        assert builder.predicate_on((), {}) == TRUE


class TestJoins:
    def test_join_predicate_prefers_fk(self, builder):
        lineitem = builder.random_get("lineitem")
        orders = builder.random_get("orders")
        fk_hits = 0
        for _ in range(20):
            predicate = builder.join_predicate(lineitem, orders)
            assert isinstance(predicate, Comparison)
            names = {predicate.left.column.name, predicate.right.column.name}
            if names == {"l_orderkey", "o_orderkey"}:
                fk_hits += 1
        assert fk_hits >= 10  # prefer_fk defaults to 0.75

    def test_inner_join_falls_back_to_cross(self, builder, tpch_db):
        # Force the no-predicate path by requiring FK pairs that don't exist.
        region = builder.random_get("region")
        part = builder.random_get("part")
        join = builder.make_join(
            region, part, JoinKind.INNER,
            predicate=builder.join_predicate(region, part, require_fk_pk=True),
        )
        assert join.join_kind in (JoinKind.INNER, JoinKind.CROSS)
        validate_tree(join, tpch_db.catalog)

    def test_semi_join_without_predicate_fails(self, tpch_db):
        # A builder over a schema slice with no type-compatible columns
        # cannot build a semi join; simulate by empty right columns.
        builder = TreeBuilder(tpch_db.catalog, random.Random(4))
        region = builder.random_get("region")
        part = builder.random_get("part")
        with pytest.raises(GenerationFailure):
            builder.make_join(
                region,
                Project(part, ()),  # no columns at all
                JoinKind.SEMI,
            )


class TestAggregates:
    def test_include_key_hint(self, builder, tpch_db):
        get = builder.random_get("orders")
        agg = builder.make_gbagg(get, group_hint="include_key")
        group_ids = {column.cid for column in agg.group_by}
        assert get.columns[0].cid in group_ids  # o_orderkey (PK)
        validate_tree(agg, tpch_db.catalog)

    def test_count_star_hint(self, builder):
        get = builder.random_get("orders")
        agg = builder.make_gbagg(get, agg_hint="count_star")
        assert str(agg.aggregates[0][1]) == "COUNT(*)"

    def test_agg_source_restriction(self, builder):
        orders = builder.random_get("orders")
        customer = builder.random_get("customer")
        join = builder.make_join(orders, customer, JoinKind.INNER)
        agg = builder.make_gbagg(join, agg_source=orders.columns)
        _, call = agg.aggregates[0]
        if call.argument is not None:
            arg_ids = {c.cid for c in orders.columns}
            assert call.argument.column.cid in arg_ids


class TestSetOps:
    def test_setop_alignment_types_match(self, builder, tpch_db):
        orders = builder.random_get("orders")
        customer = builder.random_get("customer")
        setop = builder.make_setop(UnionAll, orders, customer)
        validate_tree(setop, tpch_db.catalog)
        for lcol, rcol in zip(setop.left_columns, setop.right_columns):
            assert lcol.data_type is rcol.data_type

    def test_setop_failure_when_incompatible(self, builder):
        orders = builder.random_get("orders")
        # Right side with zero columns can never align.
        empty = Project(builder.random_get("region"), ())
        with pytest.raises(GenerationFailure):
            builder.make_setop(UnionAll, orders, empty)


class TestProjectAndSelectHints:
    def test_passthrough_all(self, builder):
        get = builder.random_get("nation")
        project = builder.make_project(get, passthrough_all=True)
        assert project.output_columns == get.columns

    def test_true_hint(self, builder):
        get = builder.random_get("nation")
        select = builder.make_select(get, predicate_hint="true")
        assert select.predicate == TRUE

    def test_group_columns_hint(self, builder, tpch_db):
        get = builder.random_get("orders")
        agg = builder.make_gbagg(get)
        select = builder.make_select(agg, predicate_hint="group_columns")
        from repro.expr.expressions import referenced_columns

        group_ids = {column.cid for column in agg.group_by}
        refs = referenced_columns(select.predicate)
        assert all(column.cid in group_ids for column in refs)
        validate_tree(select, tpch_db.catalog)

    def test_cross_equality_hint(self, builder, tpch_db):
        orders = builder.random_get("orders")
        customer = builder.random_get("customer")
        cross = Join(JoinKind.CROSS, orders, customer)
        select = builder.make_select(cross, predicate_hint="cross_equality")
        validate_tree(select, tpch_db.catalog)
        from repro.expr.expressions import conjuncts, referenced_columns

        first = conjuncts(select.predicate)[0]
        refs = {column.cid for column in referenced_columns(first)}
        left_ids = {column.cid for column in orders.columns}
        right_ids = {column.cid for column in customer.columns}
        assert refs & left_ids and refs & right_ids


class TestFkReferenceTargets:
    def test_orders_references_customer(self, builder):
        assert builder.fk_reference_targets({"orders"}) == ["customer"]

    def test_lineitem_references_three_tables(self, builder):
        targets = builder.fk_reference_targets({"lineitem"})
        assert targets == ["orders", "part", "supplier"]

    def test_leaf_table_references_nothing(self, builder):
        assert builder.fk_reference_targets({"region"}) == []

    def test_union_of_sources(self, builder):
        targets = builder.fk_reference_targets({"orders", "nation"})
        assert "customer" in targets and "region" in targets
