"""The backend protocol and fleet registry (`repro.backends`)."""

from __future__ import annotations

import pytest

from repro.backends import (
    BackendError,
    EngineBackend,
    SqliteBackend,
    bag_diff_summary,
    bag_fingerprint,
    create_backends,
    normalized_bag,
    sqlite_mirror,
)
from repro.optimizer.config import DEFAULT_CONFIG
from repro.optimizer.engine import Optimizer
from repro.optimizer.result import OptimizationError
from repro.service import PlanService
from repro.sql.binder import sql_to_tree
from repro.workloads import tpch_database


def _service(database, registry=None):
    return PlanService(database, registry=registry, cache_dir=None)


def _has_duckdb() -> bool:
    try:
        import duckdb  # noqa: F401
    except ImportError:
        return False
    return True


class TestNormalization:
    def test_booleans_normalize_to_ints(self):
        assert normalized_bag([(True, 1)]) == normalized_bag([(1, 1)])
        assert normalized_bag([(False,)]) == normalized_bag([(0,)])

    def test_floats_are_quantized(self):
        assert normalized_bag([(0.1 + 0.2,)]) == normalized_bag([(0.3,)])

    def test_bags_are_multisets(self):
        assert normalized_bag([(1,), (1,)]) != normalized_bag([(1,)])

    def test_bag_fingerprint_is_order_independent(self):
        one = normalized_bag([(1, "a"), (2, "b")])
        two = normalized_bag([(2, "b"), (1, "a")])
        assert bag_fingerprint(one) == bag_fingerprint(two)

    def test_bag_diff_summary_names_both_sides(self):
        expected = normalized_bag([(1,), (2,)])
        actual = normalized_bag([(2,), (3,)])
        summary = bag_diff_summary(expected, actual)
        assert "only in reference" in summary
        assert "only here" in summary


class TestSqliteBackend:
    def test_mirror_preserves_row_counts(self, tpch_db):
        conn = sqlite_mirror(tpch_db)
        try:
            for table in tpch_db.tables():
                name = table.definition.name
                (count,) = conn.execute(
                    f'SELECT COUNT(*) FROM "{name}"'
                ).fetchone()
                assert count == len(table.rows), name
        finally:
            conn.close()

    def test_run_many_answers_each_request(self, tpch_db):
        backend = SqliteBackend()
        backend.ensure_ready(tpch_db)
        tree = sql_to_tree(
            "SELECT n_regionkey, COUNT(*) FROM nation GROUP BY n_regionkey",
            tpch_db.catalog,
        )
        (run,) = backend.run_many([(7, tree)])
        backend.close()
        assert run.succeeded
        assert run.query_id == 7
        nation = tpch_db.table("nation")
        names = [column.name for column in nation.definition.columns]
        keys = {row[names.index("n_regionkey")] for row in nation.rows}
        assert (run.row_count, run.column_count) == (len(keys), 2)

    def test_run_is_run_many_of_one_request(self, tpch_db):
        backend = SqliteBackend()
        backend.ensure_ready(tpch_db)
        tree = sql_to_tree("SELECT r_name FROM region", tpch_db.catalog)
        single = backend.run(3, tree)
        (batched,) = backend.run_many([(3, tree)])
        backend.close()
        assert single.query_id == 3
        assert single.to_json_dict() == batched.to_json_dict()

    def test_execute_before_setup_is_an_error_run(self, tpch_db):
        backend = SqliteBackend()
        tree = sql_to_tree("SELECT r_name FROM region", tpch_db.catalog)
        # run_many() does not call ensure_ready
        (run,) = backend.run_many([(0, tree)])
        assert not run.succeeded
        assert "not set up" in run.error


class TestEngineBackend:
    def test_run_executes_through_its_service(self, tpch_db, registry):
        backend = EngineBackend(_service(tpch_db, registry))
        tree = sql_to_tree("SELECT r_name FROM region", tpch_db.catalog)
        backend.ensure_ready(tpch_db)
        (run,) = backend.run_many([(0, tree)])
        assert run.succeeded
        assert run.row_count == len(tpch_db.table("region").rows)
        assert backend.service.counters.requests == 1

    def test_run_plans_under_its_service_config(self, tpch_db, registry):
        config = DEFAULT_CONFIG.replaced(sanitize_plans=True)
        service = PlanService(
            tpch_db, registry=registry, config=config, cache_dir=None
        )
        tree = sql_to_tree("SELECT r_name FROM region", tpch_db.catalog)
        (run,) = EngineBackend(service).run_many([(0, tree)])
        assert run.succeeded
        computed = service.counters.computed
        service.optimize(tree, config)  # the member's own plan
        assert service.counters.computed == computed

    def test_setup_rejects_a_foreign_database(self, tpch_db):
        backend = EngineBackend(_service(tpch_db))
        other = tpch_database(seed=2)
        with pytest.raises(BackendError):
            backend.setup(other)

    def test_needs_a_service_over_a_database(self, tpch_db):
        with pytest.raises(ValueError):
            EngineBackend(PlanService(
                catalog=tpch_db.catalog,
                stats=tpch_db.stats_repository(),
                cache_dir=None,
            ))

    def test_run_many_never_raises_on_a_failing_query(
        self, tpch_db, registry, monkeypatch
    ):
        backend = EngineBackend(_service(tpch_db, registry))
        region = sql_to_tree("SELECT r_name FROM region", tpch_db.catalog)
        nation = sql_to_tree("SELECT n_name FROM nation", tpch_db.catalog)
        optimize = Optimizer.optimize_exercising
        doomed = region.fingerprint()

        # By fingerprint, not identity: a pool worker holds a copy.
        def exploding(optimizer, tree, targets):
            if tree.fingerprint() == doomed:
                raise OptimizationError("boom")
            return optimize(optimizer, tree, targets)

        monkeypatch.setattr(Optimizer, "optimize_exercising", exploding)
        failed, served = backend.run_many([(0, region), (1, nation)])
        assert failed.error == "optimization failed: boom"
        assert served.succeeded and served.query_id == 1
        # Both queries were asked for in one batch.
        counters = backend.service.counters
        assert (counters.requests, counters.batches) == (2, 1)


class TestRegistry:
    def test_engine_and_sqlite_are_always_available(self, tpch_db):
        service = _service(tpch_db)
        backends, skipped = create_backends(["engine", "sqlite"], service)
        assert [backend.name for backend in backends] == ["engine", "sqlite"]
        assert backends[0].service is service
        assert skipped == {}

    def test_unknown_backend_raises(self, tpch_db):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backends(["postgres"], _service(tpch_db))

    # duckdb: a repeated name raises whether or not its driver is here.
    @pytest.mark.parametrize("name", ["engine", "duckdb"])
    def test_duplicate_request_raises(self, tpch_db, name):
        with pytest.raises(ValueError, match="twice"):
            create_backends([name, name], _service(tpch_db))

    @pytest.mark.skipif(_has_duckdb(), reason="duckdb is installed")
    def test_missing_duckdb_becomes_a_recorded_skip(self, tpch_db):
        backends, skipped = create_backends(
            ["engine", "sqlite", "duckdb"], _service(tpch_db)
        )
        assert [backend.name for backend in backends] == ["engine", "sqlite"]
        assert "duckdb" in skipped and "not installed" in skipped["duckdb"]

    @pytest.mark.skipif(not _has_duckdb(), reason="duckdb not installed")
    def test_duckdb_joins_the_fleet_when_installed(self, tpch_db):
        backends, skipped = create_backends(
            ["engine", "duckdb"], _service(tpch_db)
        )
        assert skipped == {}
        duck = backends[1]
        duck.ensure_ready(tpch_db)
        tree = sql_to_tree("SELECT r_name FROM region", tpch_db.catalog)
        (run,) = duck.run_many([(0, tree)])
        duck.close()
        assert run.succeeded
        assert run.row_count == len(tpch_db.table("region").rows)

