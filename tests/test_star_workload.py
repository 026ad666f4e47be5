"""The framework is database-agnostic: everything works on the star schema.

The paper (Section 6.1): "We have also evaluated our tests on other
databases with different schemas and sizes, and the results are similar."
"""

import pytest

from repro.testing import (
    CorrectnessRunner,
    CostOracle,
    QueryGenerator,
    TestSuiteBuilder,
    singleton_nodes,
    top_k_independent_plan,
)
from repro.workloads import star_catalog, star_database


@pytest.fixture(scope="module")
def star_db():
    return star_database(seed=2)


class TestStarSchema:
    def test_catalog_validates(self):
        star_catalog().validate()

    def test_fact_table_references_all_dimensions(self):
        catalog = star_catalog()
        sales = catalog.table("sales")
        targets = {fk.ref_table for fk in sales.foreign_keys}
        assert targets == {"date_dim", "store", "product", "promotion"}

    def test_populated_deterministically(self, star_db):
        again = star_database(seed=2)
        assert star_db.table("sales").rows == again.table("sales").rows

    def test_promoted_sales_nullable_fk(self, star_db):
        promo_values = [row[4] for row in star_db.table("sales").rows]
        assert any(value is None for value in promo_values)
        assert any(value is not None for value in promo_values)


class TestFrameworkOnStarSchema:
    def test_pattern_generation_covers_all_rules(self, star_db, registry):
        generator = QueryGenerator(star_db, registry, seed=5)
        hard_failures = []
        for rule in registry.exploration_rules:
            outcome = generator.pattern_query_for_rule(rule.name, max_trials=40)
            if not outcome.succeeded:
                hard_failures.append(rule.name)
        assert not hard_failures

    def test_pair_generation(self, star_db, registry):
        generator = QueryGenerator(star_db, registry, seed=6)
        outcome = generator.pattern_query_for_pair(
            "GbAggEagerBelowJoin", "JoinCommutativity"
        )
        assert outcome.succeeded

    def test_correctness_pipeline(self, star_db, registry):
        names = registry.exploration_rule_names[:6]
        builder = TestSuiteBuilder(
            star_db, registry, seed=7, extra_operators=2
        )
        suite = builder.build(singleton_nodes(names), k=2)
        oracle = CostOracle(star_db, registry)
        plan = top_k_independent_plan(suite, oracle)
        report = CorrectnessRunner(star_db, registry).run(plan, suite)
        assert report.passed, [str(i) for i in report.issues] + report.errors

    def test_star_join_queries_use_fk_metadata(self, star_db):
        """FK-aware generation joins the fact table to its dimensions."""
        import random

        from repro.testing.builders import TreeBuilder

        builder = TreeBuilder(star_db.catalog, random.Random(8))
        sales = builder.random_get("sales")
        store = builder.random_get("store")
        predicate = builder.join_predicate(sales, store, require_fk_pk=True)
        assert predicate is not None
        assert predicate.right.column.name == "st_storekey"
