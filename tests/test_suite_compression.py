"""Tests for test suites, the bipartite graph, and compression algorithms.

Includes a literal encoding of the paper's Example 1 (Section 4.1) with its
exact costs, verifying that both SMC and TOPK find the 340-cost solution
that beats the 500-cost BASELINE.
"""

import pytest

from repro.testing.compression import (
    CompressionError,
    TopKStats,
    baseline_plan,
    matching_plan,
    set_multicover_plan,
    top_k_independent_plan,
)
from repro.testing.suite import (
    CostOracle,
    SuiteQuery,
    TestSuite,
    TestSuiteBuilder,
    pair_nodes,
    singleton_nodes,
)


class FakeOracle:
    """Cost oracle backed by an explicit table (for synthetic graphs)."""

    def __init__(self, edge_costs):
        self._edges = dict(edge_costs)
        self.invocations = 0
        self._cache = set()

    def cost_without(self, query, rules_off):
        key = (query.query_id, tuple(sorted(rules_off)))
        if key not in self._cache:
            self._cache.add(key)
            self.invocations += 1
        return self._edges[(query.query_id, tuple(sorted(rules_off)))]

    def cost_without_many(self, pairs):
        return [self.cost_without(query, node) for query, node in pairs]


def _query(query_id, cost, ruleset, generated_for):
    return SuiteQuery(
        query_id=query_id,
        tree=None,
        sql=f"q{query_id}",
        cost=cost,
        ruleset=frozenset(ruleset),
        generated_for=generated_for,
    )


@pytest.fixture()
def example1_suite():
    """The paper's Example 1: two rules, k=1, q2 exercises both."""
    r1, r2 = ("r1",), ("r2",)
    q1 = _query(0, 100.0, {"r1"}, r1)
    q2 = _query(1, 100.0, {"r1", "r2"}, r2)
    suite = TestSuite(rule_nodes=[r1, r2], queries=[q1, q2], k=1)
    oracle = FakeOracle(
        {
            (0, ("r1",)): 180.0,
            (1, ("r1",)): 120.0,
            (1, ("r2",)): 120.0,
        }
    )
    return suite, oracle


class TestExample1:
    def test_baseline_cost_is_500(self, example1_suite):
        suite, oracle = example1_suite
        plan = baseline_plan(suite, oracle)
        assert plan.total_cost == pytest.approx(500.0)
        assert not plan.shares_queries

    def test_smc_finds_340(self, example1_suite):
        suite, oracle = example1_suite
        plan = set_multicover_plan(suite, oracle)
        assert plan.total_cost == pytest.approx(340.0)
        assert plan.assignments[("r1",)] == [1]
        assert plan.assignments[("r2",)] == [1]

    def test_topk_finds_340(self, example1_suite):
        suite, oracle = example1_suite
        plan = top_k_independent_plan(suite, oracle)
        assert plan.total_cost == pytest.approx(340.0)

    def test_all_plans_validate_k(self, example1_suite):
        suite, oracle = example1_suite
        for maker in (baseline_plan, set_multicover_plan, top_k_independent_plan):
            assert maker(suite, oracle).validates_each_rule_k_times(1)


class TestTopKProperties:
    def _suite(self, k=2):
        """Three rules, six queries with varied sharing and edge costs."""
        r1, r2, r3 = ("r1",), ("r2",), ("r3",)
        queries = [
            _query(0, 10.0, {"r1"}, r1),
            _query(1, 20.0, {"r1", "r2"}, r1),
            _query(2, 30.0, {"r2"}, r2),
            _query(3, 15.0, {"r2", "r3"}, r2),
            _query(4, 50.0, {"r3", "r1"}, r3),
            _query(5, 5.0, {"r3"}, r3),
        ]
        edges = {}
        for query in queries:
            for name in query.ruleset:
                # Edge cost >= node cost (the monotonicity property).
                edges[(query.query_id, (name,))] = query.cost * 1.5
        suite = TestSuite(rule_nodes=[r1, r2, r3], queries=queries, k=k)
        return suite, FakeOracle(edges)

    def test_degree_k_invariant(self):
        suite, oracle = self._suite(k=2)
        plan = top_k_independent_plan(suite, oracle)
        assert plan.validates_each_rule_k_times(2)

    def test_picks_cheapest_edges(self):
        suite, oracle = self._suite(k=1)
        plan = top_k_independent_plan(suite, oracle)
        assert plan.assignments[("r3",)] == [5]  # cheapest edge for r3

    def test_insufficient_coverage_raises(self):
        r1 = ("r1",)
        suite = TestSuite(
            rule_nodes=[r1],
            queries=[_query(0, 1.0, {"r1"}, r1)],
            k=2,
        )
        oracle = FakeOracle({(0, ("r1",)): 2.0})
        with pytest.raises(CompressionError, match="only 1 covering"):
            top_k_independent_plan(suite, oracle)

    def test_monotonicity_identical_solution_fewer_invocations(self):
        suite, oracle_plain = self._suite(k=1)
        plain = top_k_independent_plan(suite, oracle_plain)

        _, oracle_mono = self._suite(k=1)
        stats = TopKStats()
        mono = top_k_independent_plan(
            suite, oracle_mono, use_monotonicity=True, stats=stats
        )
        assert mono.total_cost == pytest.approx(plain.total_cost)
        assert oracle_mono.invocations <= oracle_plain.invocations
        assert stats.edge_costs_skipped > 0


class TestSmcProperties:
    def test_prefers_shared_cheap_queries(self):
        r1, r2 = ("r1",), ("r2",)
        shared = _query(0, 10.0, {"r1", "r2"}, r1)
        solo = _query(1, 10.0, {"r2"}, r2)
        suite = TestSuite(rule_nodes=[r1, r2], queries=[shared, solo], k=1)
        oracle = FakeOracle(
            {
                (0, ("r1",)): 15.0,
                (0, ("r2",)): 15.0,
                (1, ("r2",)): 15.0,
            }
        )
        plan = set_multicover_plan(suite, oracle)
        assert plan.selected_query_ids == {0}

    def test_smc_can_be_fooled_by_edge_costs(self):
        """The weakness Figures 12-13 expose: a cheap-looking query whose
        disabled-rule cost is catastrophic."""
        r1, r2 = ("r1",), ("r2",)
        trap = _query(0, 1.0, {"r1", "r2"}, r1)   # low Cost(q), huge edges
        good1 = _query(1, 10.0, {"r1"}, r1)
        good2 = _query(2, 10.0, {"r2"}, r2)
        suite = TestSuite(
            rule_nodes=[r1, r2], queries=[trap, good1, good2], k=1
        )
        oracle = FakeOracle(
            {
                (0, ("r1",)): 10_000.0,
                (0, ("r2",)): 10_000.0,
                (1, ("r1",)): 12.0,
                (2, ("r2",)): 12.0,
            }
        )
        smc = set_multicover_plan(suite, oracle)
        topk = top_k_independent_plan(suite, oracle)
        assert smc.total_cost > topk.total_cost * 10

    def test_uncoverable_rule_raises(self):
        r1, r2 = ("r1",), ("r2",)
        only_r1 = _query(0, 1.0, {"r1"}, r1)
        suite = TestSuite(rule_nodes=[r1, r2], queries=[only_r1], k=1)
        oracle = FakeOracle({(0, ("r1",)): 2.0})
        with pytest.raises(CompressionError, match="cannot be covered"):
            set_multicover_plan(suite, oracle)


class TestMatchingVariant:
    def test_no_query_shared(self):
        r1, r2 = ("r1",), ("r2",)
        queries = [
            _query(0, 10.0, {"r1", "r2"}, r1),
            _query(1, 20.0, {"r1", "r2"}, r2),
        ]
        suite = TestSuite(rule_nodes=[r1, r2], queries=queries, k=1)
        oracle = FakeOracle(
            {
                (0, ("r1",)): 11.0,
                (0, ("r2",)): 11.0,
                (1, ("r1",)): 21.0,
                (1, ("r2",)): 21.0,
            }
        )
        plan = matching_plan(suite, oracle)
        chosen = [qid for ids in plan.assignments.values() for qid in ids]
        assert sorted(chosen) == [0, 1]  # both used, neither shared

    def test_matching_minimizes_assignment_cost(self):
        r1, r2 = ("r1",), ("r2",)
        queries = [
            _query(0, 10.0, {"r1", "r2"}, r1),
            _query(1, 10.0, {"r1", "r2"}, r2),
        ]
        suite = TestSuite(rule_nodes=[r1, r2], queries=queries, k=1)
        # q0 is much cheaper for r2; the matching must cross-assign.
        oracle = FakeOracle(
            {
                (0, ("r1",)): 100.0,
                (0, ("r2",)): 1.0,
                (1, ("r1",)): 1.0,
                (1, ("r2",)): 100.0,
            }
        )
        plan = matching_plan(suite, oracle)
        assert plan.assignments[("r1",)] == [1]
        assert plan.assignments[("r2",)] == [0]

    def test_prices_each_edge_once_in_one_batch(self):
        r1, r2 = ("r1",), ("r2",)
        queries = [
            _query(0, 10.0, {"r1", "r2"}, r1),
            _query(1, 10.0, {"r1"}, r1),
            _query(2, 10.0, {"r1", "r2"}, r2),
            _query(3, 10.0, {"r2"}, r2),
        ]
        suite = TestSuite(rule_nodes=[r1, r2], queries=queries, k=2)
        oracle = FakeOracle(
            {
                (0, ("r1",)): 11.0,
                (0, ("r2",)): 12.0,
                (1, ("r1",)): 13.0,
                (2, ("r1",)): 14.0,
                (2, ("r2",)): 15.0,
                (3, ("r2",)): 16.0,
            }
        )
        price = oracle.cost_without
        batches = []

        def batch(pairs):
            batches.append([(query.query_id, node) for query, node in pairs])
            return [price(query, node) for query, node in pairs]

        def lone(query, node):
            raise AssertionError("an edge was priced outside the batch")

        oracle.cost_without_many = batch
        oracle.cost_without = lone
        plan = matching_plan(suite, oracle)
        assert len(batches) == 1
        assert sorted(batches[0]) == sorted(
            (query_id, node) for query_id, node in oracle._edges
        )
        assert plan.edge_costs == {
            (node, query_id): oracle._edges[(query_id, node)]
            for node, ids in plan.assignments.items()
            for query_id in ids
        }

    def test_infeasible_matching_raises(self):
        r1, r2 = ("r1",), ("r2",)
        queries = [
            _query(0, 10.0, {"r1"}, r1),
            _query(1, 10.0, {"r1"}, r1),
        ]
        suite = TestSuite(rule_nodes=[r1, r2], queries=queries, k=1)
        oracle = FakeOracle(
            {(0, ("r1",)): 1.0, (1, ("r1",)): 1.0}
        )
        with pytest.raises(CompressionError, match="infeasible"):
            matching_plan(suite, oracle)


class TestRealSuites:
    def test_builder_produces_k_distinct_per_node(self, tpch_db, registry):
        names = registry.exploration_rule_names[:4]
        builder = TestSuiteBuilder(tpch_db, registry, seed=15)
        suite = builder.build(singleton_nodes(names), k=3)
        for node in suite.rule_nodes:
            own = suite.generated_suite(node)
            assert len(own) == 3
            assert all(query.exercises(node) for query in own)
            sqls = {query.sql for query in own}
            assert len(sqls) == 3

    def test_graph_edges_match_rulesets(self, tpch_db, registry):
        names = registry.exploration_rule_names[:4]
        builder = TestSuiteBuilder(tpch_db, registry, seed=16)
        suite = builder.build(singleton_nodes(names), k=2)
        for node in suite.rule_nodes:
            for query in suite.queries_for(node):
                assert set(node) <= set(query.ruleset)

    def test_pair_nodes_enumeration(self):
        nodes = pair_nodes(["a", "b", "c"])
        assert nodes == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_real_oracle_counts_and_caches(self, tpch_db, registry):
        builder = TestSuiteBuilder(tpch_db, registry, seed=17)
        suite = builder.build(singleton_nodes(["JoinCommutativity"]), k=2)
        oracle = CostOracle(tpch_db, registry)
        query = suite.queries[0]
        first = oracle.cost_without(query, ("JoinCommutativity",))
        count = oracle.invocations
        second = oracle.cost_without(query, ("JoinCommutativity",))
        assert first == second
        assert oracle.invocations == count  # cached

    def test_end_to_end_compression_beats_baseline(self, tpch_db, registry):
        names = registry.exploration_rule_names[:6]
        builder = TestSuiteBuilder(tpch_db, registry, seed=18, extra_operators=2)
        suite = builder.build(singleton_nodes(names), k=3)
        oracle = CostOracle(tpch_db, registry)
        base = baseline_plan(suite, oracle)
        smc = set_multicover_plan(suite, oracle)
        topk = top_k_independent_plan(suite, oracle)
        assert smc.total_cost < base.total_cost
        assert topk.total_cost < base.total_cost
        for plan in (base, smc, topk):
            assert plan.validates_each_rule_k_times(3)
