"""Tests for the metrics registry: strict declarations, snapshots, and
the optimizer/service integration."""

import ast
from pathlib import Path

import pytest

import repro

from repro.obs import (
    METRIC_DOCS,
    MetricsRegistry,
    documented_metrics,
    parse_name,
    render_name,
)
from repro.optimizer.config import DEFAULT_CONFIG
from repro.service import PlanService
from repro.sql.binder import sql_to_tree

SQL = (
    "SELECT c_name FROM customer JOIN orders ON c_custkey = o_custkey "
    "WHERE o_totalprice > 100"
)
SQL_AGG = "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey"


class TestStrictDeclarations:
    def test_undeclared_name_rejected(self):
        with pytest.raises(KeyError, match="undeclared metric"):
            MetricsRegistry().counter("optimizer.no_such_metric")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TypeError, match="declared as a counter"):
            MetricsRegistry().histogram("optimizer.optimizations")

    def test_wrong_labels_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError, match="expects labels"):
            registry.counter("optimizer.rule.fired")  # missing rule=
        with pytest.raises(KeyError, match="expects labels"):
            registry.counter("optimizer.optimizations", rule="X")

    def test_validation_is_memoized_not_skipped(self):
        registry = MetricsRegistry()
        counter = registry.counter("optimizer.rule.fired", rule="R")
        # Repeats return the same handle (the hot-path cache)...
        assert registry.counter("optimizer.rule.fired", rule="R") is counter
        # ...but a new bad shape still fails.
        with pytest.raises(KeyError):
            registry.counter("optimizer.rule.fired", wrong="R")

    def test_every_declaration_is_documented(self):
        rows = list(documented_metrics())
        assert [row[0] for row in rows] == sorted(METRIC_DOCS)
        for name, kind, labels, description in rows:
            assert kind in ("counter", "histogram")
            assert description.strip()
            registry = MetricsRegistry()
            handle = getattr(registry, kind)
            handle(name, **{key: "x" for key in labels})  # must validate
        # ...and has a writer: its name is a string literal somewhere in
        # the package besides the table.
        assert sorted(set(METRIC_DOCS) - _package_literals()) == []


class TestNames:
    def test_render_parse_roundtrip(self):
        cases = [
            ("plain.name", ()),
            ("with.label", (("rule", "JoinCommutativity"),)),
            ("two.labels", (("a", "1"), ("b", "2"))),
        ]
        for name, labels in cases:
            assert parse_name(render_name(name, labels)) == (name, labels)


class TestSnapshots:
    def test_histogram_summarises_observations(self):
        registry = MetricsRegistry()
        for value in (10, 2, 30):
            registry.histogram("optimizer.memo.groups").observe(value)
        assert registry.snapshot()["histograms"] == {
            "optimizer.memo.groups": {
                "count": 3, "total": 42, "min": 2, "max": 30,
            },
        }
        assert registry.histogram("optimizer.memo.groups").mean == 14

    def test_snapshot_holds_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("exec.rows").inc(9)
        registry.histogram("optimizer.memo.exprs").observe(5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["counters", "histograms"]
        assert snapshot["counters"] == {"exec.rows": 9}

    def test_snapshot_is_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("optimizer.rule.fired", rule="B").inc()
        registry.counter("optimizer.rule.fired", rule="A").inc()
        keys = list(registry.snapshot()["counters"])
        assert keys == sorted(keys)


class TestOptimizerIntegration:
    def test_optimize_populates_rule_counters(self, tpch_db, registry):
        metrics = MetricsRegistry()
        service = PlanService(tpch_db, registry=registry, metrics=metrics)
        result = service.optimize(sql_to_tree(SQL, tpch_db.catalog))
        assert metrics.counter_value("optimizer.optimizations") == 1
        for rule in result.rules_exercised:
            assert metrics.counter_value(
                "optimizer.rule.fired", rule=rule
            ) > 0
        table = metrics.rule_table()
        assert table == sorted(table, key=lambda row: (-row[2], row[0]))
        fired = {rule for rule, _, fired_count, _ in table if fired_count}
        assert result.rules_exercised <= fired

    def test_result_counters_match_metrics(self, tpch_db, registry):
        metrics = MetricsRegistry()
        service = PlanService(tpch_db, registry=registry, metrics=metrics)
        result = service.optimize(sql_to_tree(SQL_AGG, tpch_db.catalog))
        for row in result.rule_counters:
            assert metrics.counter_value(
                "optimizer.rule.considered", rule=row.name
            ) == row.considered
            assert metrics.counter_value(
                "optimizer.rule.fired", rule=row.name
            ) == row.fired
        considered, fired, rejected = result.rule_firing_summary()
        assert considered == fired + rejected

    def test_service_traffic_is_counted_once(self, tpch_db, registry):
        """A service's requests and hits are its ``counters``; a registry
        holds the optimizer runs it folded in, and no twin of those."""
        metrics = MetricsRegistry()
        service = PlanService(tpch_db, registry=registry, metrics=metrics)
        tree = sql_to_tree(SQL, tpch_db.catalog)
        service.optimize(tree)
        service.optimize(tree)
        counters = service.counters
        assert (counters.requests, counters.memory_hits) == (2, 1)
        assert counters.computed == 1
        assert metrics.counter_value("optimizer.optimizations") == 1
        assert not [
            name for name in metrics.snapshot()["counters"]
            if name.startswith("service.")
        ]


class TestOneSourceOfTruth:
    def test_a_metered_batch_runs_on_the_pool(self, tpch_db, registry):
        """A registry does not keep a service off its pool: each result
        carries every count its run made, and the service folds it in as
        it stores it, so the registry reads the same at any ``workers``."""
        no_plan = DEFAULT_CONFIG.with_disabled(["GetToTableScan"])
        trees = [
            sql_to_tree(SQL, tpch_db.catalog),
            sql_to_tree(SQL_AGG, tpch_db.catalog),
            sql_to_tree(
                "SELECT o_orderkey FROM orders WHERE o_totalprice > 900",
                tpch_db.catalog,
            ),
        ]
        requests = [(tree, DEFAULT_CONFIG) for tree in trees]
        requests += [requests[0], (trees[1], no_plan)]  # a repeat, an error

        def snapshot(workers):
            metrics = MetricsRegistry()
            with PlanService(
                tpch_db, registry=registry, workers=workers, metrics=metrics
            ) as service:
                service.optimize_many(requests, return_errors=True)
            stats = service.counters
            return stats.parallel_tasks, stats.errors, metrics.snapshot()

        pooled, errors, counted = snapshot(2)
        assert pooled == len(trees) + 1  # every distinct miss
        assert errors == 1
        assert snapshot(1) == (0, errors, counted)
        counters = counted["counters"]
        assert counters["optimizer.optimizations"] == len(trees)
        assert counters["optimizer.costings"] > 0


def _package_literals():
    """Every string constant in ``src/repro``, bar the keys of
    ``METRIC_DOCS`` itself."""
    literals = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        table = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.AnnAssign)
                and getattr(node.target, "id", None) == "METRIC_DOCS"
            ):
                table = {id(key) for key in node.value.keys}
        literals.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in table
        )
    return literals
