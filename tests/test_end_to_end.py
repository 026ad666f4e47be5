"""End-to-end integration tests: the full framework pipeline.

These mirror how a downstream user drives the library: build a database,
generate test suites, compress, execute, and report -- plus the coverage
campaign wrapper and the public package surface.
"""

import pytest

import repro
from repro.testing import (
    CorrectnessRunner,
    CostOracle,
    CoverageCampaign,
    QueryGenerator,
    TestSuiteBuilder,
    baseline_plan,
    matching_plan,
    pair_nodes,
    set_multicover_plan,
    singleton_nodes,
    top_k_independent_plan,
)


class TestFullPipelineSingletons:
    @pytest.fixture(scope="class")
    def pipeline(self, tpch_db, registry):
        names = registry.exploration_rule_names[:8]
        builder = TestSuiteBuilder(
            tpch_db, registry, seed=21, extra_operators=2
        )
        suite = builder.build(singleton_nodes(names), k=3)
        oracle = CostOracle(tpch_db, registry)
        return suite, oracle

    def test_all_methods_agree_on_validity(self, pipeline, tpch_db, registry):
        suite, oracle = pipeline
        plans = [
            baseline_plan(suite, oracle),
            set_multicover_plan(suite, oracle),
            top_k_independent_plan(suite, oracle),
            matching_plan(suite, oracle),
        ]
        for plan in plans:
            assert plan.validates_each_rule_k_times(3), plan.method

    def test_compressed_beats_baseline(self, pipeline):
        suite, oracle = pipeline
        base = baseline_plan(suite, oracle)
        topk = top_k_independent_plan(suite, oracle)
        assert topk.total_cost < base.total_cost

    def test_correctness_run_passes(self, pipeline, tpch_db, registry):
        suite, oracle = pipeline
        plan = top_k_independent_plan(suite, oracle)
        report = CorrectnessRunner(tpch_db, registry).run(plan, suite)
        assert report.passed, [str(i) for i in report.issues] + report.errors
        assert report.queries_executed == len(plan.selected_query_ids)


class TestFullPipelinePairs:
    def test_pair_suite_compression_and_execution(self, tpch_db, registry):
        names = registry.exploration_rule_names[:4]
        nodes = pair_nodes(names)
        builder = TestSuiteBuilder(tpch_db, registry, seed=31)
        suite = builder.build(nodes, k=2)
        oracle = CostOracle(tpch_db, registry)
        plan = top_k_independent_plan(suite, oracle, use_monotonicity=True)
        assert plan.validates_each_rule_k_times(2)
        report = CorrectnessRunner(tpch_db, registry).run(plan, suite)
        assert report.passed


class TestCoverageCampaign:
    def test_singleton_pattern_campaign(self, tpch_db, registry):
        generator = QueryGenerator(tpch_db, registry, seed=41)
        campaign = CoverageCampaign(generator)
        names = registry.exploration_rule_names[:10]
        report = campaign.singletons(names, method="pattern")
        assert not report.uncovered
        assert report.total_trials < 10 * 8
        summary = report.summary()
        assert "10/10 nodes covered" in summary

    def test_pair_campaign(self, tpch_db, registry):
        generator = QueryGenerator(tpch_db, registry, seed=43)
        campaign = CoverageCampaign(generator)
        report = campaign.pairs(
            registry.exploration_rule_names[:4], method="pattern"
        )
        assert len(report.outcomes) == 6
        assert not report.uncovered


class TestPublicApi:
    def test_version_and_main_exports(self):
        assert repro.__version__
        assert callable(repro.tpch_database)
        assert callable(repro.QueryGenerator)
        assert callable(repro.top_k_independent_plan)

    def test_readme_flow(self):
        """The exact flow shown in the package docstring must work."""
        db = repro.tpch_database(seed=0)
        gen = repro.QueryGenerator(db, seed=0)
        outcome = gen.pattern_query_for_rule("JoinCommutativity")
        assert outcome.succeeded and outcome.sql

    def test_sql_to_tree_and_back(self):
        db = repro.tpch_database(seed=0)
        tree = repro.sql_to_tree(
            "SELECT o_orderkey FROM orders WHERE o_totalprice > 10.0",
            db.catalog,
        )
        assert "SELECT" in repro.to_sql(tree)
