"""Tests for the correctness runner and fault injection."""

import pytest

from repro.expr.expressions import ColumnRef, Comparison, ComparisonOp, IsNull
from repro.logical.operators import Distinct, Join, JoinKind, Project, Select, make_get
from repro.optimizer.config import DEFAULT_CONFIG
from repro.rules.faults import (
    ALL_FAULTS,
    BuggyDistinctRemove,
    BuggyLojToJoin,
    BuggySelectPushBelowJoinRight,
)
from repro.rules.registry import default_registry
from repro.sql.generate import to_sql
from repro.testing.compression import top_k_independent_plan
from repro.testing.correctness import (
    ComparisonRecord,
    CorrectnessReport,
    CorrectnessRunner,
)
from repro.testing.suite import CostOracle, SuiteQuery, TestSuite, singleton_nodes


def _suite_for(tree, rule_name, database, registry):
    """Wrap a single hand-built tree into a one-rule test suite."""
    from repro.optimizer.engine import Optimizer

    optimizer = Optimizer(database.catalog, database.stats_repository(), registry)
    result = optimizer.optimize(tree)
    assert rule_name in result.rules_exercised
    query = SuiteQuery(
        query_id=0,
        tree=tree,
        sql=to_sql(tree),
        cost=result.cost,
        ruleset=result.rules_exercised,
        generated_for=(rule_name,),
    )
    return TestSuite(rule_nodes=[(rule_name,)], queries=[query], k=1)


class TestCleanLibraryPasses:
    def test_clean_rules_produce_no_issues(self, tiny_db, registry):
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        loj = Join(
            JoinKind.LEFT_OUTER, emp, dept,
            Comparison(ComparisonOp.EQ, ColumnRef(emp.columns[1]),
                       ColumnRef(dept.columns[0])),
        )
        tree = Select(loj, IsNull(ColumnRef(emp.columns[2])))
        suite = _suite_for(tree, "LojPushSelectLeft", tiny_db, registry)
        oracle = CostOracle(tiny_db, registry)
        plan = top_k_independent_plan(suite, oracle)
        report = CorrectnessRunner(tiny_db, registry).run(plan, suite)
        assert report.passed
        assert report.queries_executed == 1


class TestFaultDetection:
    def test_buggy_loj_rewrite_detected(self, tiny_db):
        registry = default_registry().with_replaced_rule(BuggyLojToJoin())
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        loj = Join(
            JoinKind.LEFT_OUTER, dept, emp,
            Comparison(ComparisonOp.EQ, ColumnRef(dept.columns[0]),
                       ColumnRef(emp.columns[1])),
        )
        # dept 40 has no employees; IS NULL keeps its NULL-extended row.
        tree = Select(loj, IsNull(ColumnRef(emp.columns[2])))
        suite = _suite_for(tree, "LojToJoinOnNullReject", tiny_db, registry)
        oracle = CostOracle(tiny_db, registry)
        plan = top_k_independent_plan(suite, oracle)
        report = CorrectnessRunner(tiny_db, registry).run(plan, suite)
        assert not report.passed
        assert report.issues[0].rule_node == ("LojToJoinOnNullReject",)
        assert "rows" in report.issues[0].detail

    def test_buggy_right_push_below_loj_detected(self, tiny_db):
        registry = default_registry().with_replaced_rule(
            BuggySelectPushBelowJoinRight()
        )
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        loj = Join(
            JoinKind.LEFT_OUTER, dept, emp,
            Comparison(ComparisonOp.EQ, ColumnRef(dept.columns[0]),
                       ColumnRef(emp.columns[1])),
        )
        # IS NULL is NOT null-rejecting, so the legitimate LOJ->inner
        # simplification stays out of the way and only the buggy push can
        # rewrite this query.
        tree = Select(loj, IsNull(ColumnRef(emp.columns[2])))
        suite = _suite_for(
            tree, "SelectPushBelowJoinRight", tiny_db, registry
        )
        oracle = CostOracle(tiny_db, registry)
        plan = top_k_independent_plan(suite, oracle)
        report = CorrectnessRunner(tiny_db, registry).run(plan, suite)
        assert not report.passed

    def test_buggy_distinct_removal_detected(self, tiny_db):
        registry = default_registry().with_replaced_rule(BuggyDistinctRemove())
        emp = make_get(tiny_db.catalog.table("emp"))
        project = Project(emp, ((emp.columns[2], ColumnRef(emp.columns[2])),))
        tree = Distinct(project)  # salaries contain duplicates (95.0 twice)
        suite = _suite_for(tree, "DistinctRemoveOnKey", tiny_db, registry)
        oracle = CostOracle(tiny_db, registry)
        plan = top_k_independent_plan(suite, oracle)
        report = CorrectnessRunner(tiny_db, registry).run(plan, suite)
        assert not report.passed

    @pytest.mark.parametrize("rule_name", sorted(ALL_FAULTS))
    def test_campaign_catches_every_fault(self, tpch_db, rule_name):
        """Generated (not hand-built) suites catch each injected fault."""
        from repro.testing.suite import TestSuiteBuilder

        fault_cls = ALL_FAULTS[rule_name]
        caught = False
        for seed in (11, 23, 37, 51):
            registry = default_registry().with_replaced_rule(fault_cls())
            builder = TestSuiteBuilder(
                tpch_db, registry, seed=seed, extra_operators=2
            )
            suite = builder.build(singleton_nodes([rule_name]), k=10)
            oracle = CostOracle(tpch_db, registry)
            plan = top_k_independent_plan(suite, oracle)
            report = CorrectnessRunner(tpch_db, registry).run(plan, suite)
            if any(rule_name in issue.rule_node for issue in report.issues):
                caught = True
                break
        assert caught, f"{fault_cls.__name__} was not detected"


class TestRunnerAccounting:
    def test_identical_plans_skipped(self, tiny_db, registry):
        # A query whose plan does not change when the rule is disabled:
        # execution must be skipped per the paper's footnote.
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        join = Join(
            JoinKind.INNER, emp, dept,
            Comparison(ComparisonOp.EQ, ColumnRef(emp.columns[1]),
                       ColumnRef(dept.columns[0])),
        )
        suite = _suite_for(join, "JoinCommutativity", tiny_db, registry)
        oracle = CostOracle(tiny_db, registry)
        plan = top_k_independent_plan(suite, oracle)
        report = CorrectnessRunner(tiny_db, registry).run(plan, suite)
        assert report.passed
        total = report.disabled_plans_executed + report.skipped_identical_plans
        assert total == 1

    def test_each_plan_is_asked_for_once(self, tpch_db, registry):
        """One service request per Plan(q) and per Plan(q, ¬R) edge of the
        plan -- no pre-warm pass, no re-ask -- and, on a service that priced
        the edges already, only the ¬R plans whose cost the lineage rung
        answered are computed: a cost answer holds no plan."""
        from repro.service import PlanService
        from repro.testing.compression import (
            baseline_plan,
            set_multicover_plan,
        )
        from repro.testing.suite import TestSuiteBuilder

        service = PlanService(tpch_db, registry=registry)
        names = registry.exploration_rule_names[:4]
        suite = TestSuiteBuilder(
            tpch_db, registry, seed=3, extra_operators=2, service=service
        ).build(singleton_nodes(names), k=2)
        oracle = CostOracle(tpch_db, registry, service=service)
        runner = CorrectnessRunner(tpch_db, registry, service=service)
        lineage_costed = 0
        for maker in (
            baseline_plan, set_multicover_plan, top_k_independent_plan
        ):
            plan = maker(suite, oracle)
            cost_only = {
                key
                for node, query_ids in plan.assignments.items()
                for key in (
                    service._key(
                        suite.query(q).tree, DEFAULT_CONFIG.with_disabled(node)
                    )
                    for q in query_ids
                )
                if service._entries[key].result is None
            }
            lineage_costed += len(cost_only)
            before = service.counters.as_dict()
            report = runner.run(plan, suite)
            after = service.counters.as_dict()
            assert report.passed
            assert after["requests"] - before["requests"] == (
                len(plan.selected_query_ids)
                + sum(len(ids) for ids in plan.assignments.values())
            ), plan.method
            assert after["computed"] - before["computed"] == len(cost_only), (
                plan.method
            )
        assert 0 < lineage_costed <= service.counters.lineage_hits

    def test_oracle_and_runner_ask_under_their_service_config(
        self, tpch_db, registry, monkeypatch
    ):
        """A sanitize-on service sanitizes every plan a campaign asks for:
        the oracle's edge costs and the runner's plans, not only the
        generator's trials."""
        from repro.service import PlanService
        from repro.testing.suite import TestSuiteBuilder

        service = PlanService(
            tpch_db, registry=registry, cache_dir=None,
            config=DEFAULT_CONFIG.replaced(sanitize_plans=True),
        )
        suite = TestSuiteBuilder(
            tpch_db, registry, seed=3, extra_operators=2, service=service
        ).build(singleton_nodes(registry.exploration_rule_names[:3]), k=2)
        asked = {"cost_many": [], "optimize_many": []}
        for method, configs in asked.items():
            def spy(
                requests, *args,
                _original=getattr(service, method), _configs=configs,
                **kwargs,
            ):
                _configs.extend(
                    config or service.config for _, config in requests
                )
                return _original(requests, *args, **kwargs)

            monkeypatch.setattr(service, method, spy)
        plan = top_k_independent_plan(
            suite, CostOracle(tpch_db, registry, service=service)
        )
        CorrectnessRunner(tpch_db, registry, service=service).run(plan, suite)
        assert all(asked.values())
        assert all(
            config.sanitize_plans
            for configs in asked.values() for config in configs
        )

    def test_issue_rendering(self):
        issue = ComparisonRecord(("a", "b"), 3, "mismatch", "boom")
        assert "[a + b] query 3: boom" == str(issue)


def test_report_counts_are_folds_over_its_records():
    report = CorrectnessReport(
        records=[
            ComparisonRecord((), 0, "error", "no plan"),
            ComparisonRecord(("R",), 1, "identical"),
            ComparisonRecord(("R",), 2, "equal"),
            ComparisonRecord(("R", "S"), 3, "mismatch", "rows: 1 vs 2"),
            ComparisonRecord(("R",), 4, "error", "boom"),
        ],
        queries_executed=4,
    )
    assert [str(issue) for issue in report.issues] == [
        "[R + S] query 3: rows: 1 vs 2"
    ]
    assert report.errors == ["query 0: no plan", "query 4 ¬('R',): boom"]
    assert report.queries_executed == 4
    assert report.disabled_plans_executed == 2
    assert report.skipped_identical_plans == 1
    assert not report.passed
    assert CorrectnessReport(
        records=[ComparisonRecord(("R",), 1, "equal")]
    ).passed
