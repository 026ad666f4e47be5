"""Tests for the PlanService: caching, batching, parallelism, accounting."""

import dataclasses
import gc
import importlib
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import repro
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingTracer
from repro.optimizer.config import DEFAULT_CONFIG
from repro.optimizer.engine import Optimizer
from repro.optimizer.result import OptimizationError
from repro.rules.exploration.join_rules import JoinCommutativity
from repro.service import (
    PlanDiskCache,
    PlanService,
    ServiceStats,
    cache_stats,
    clear_cache,
    environment_fingerprint,
    plan_service,
)
from repro.service.cache import LOG_NAME
from repro.sql.binder import sql_to_tree
from repro.testing.compression import baseline_plan
from repro.testing.correctness import CorrectnessRunner
from repro.testing.suite import (
    CostOracle,
    SuiteQuery,
    TestSuite,
    TestSuiteBuilder,
    singleton_nodes,
)
from tests.test_optimizer import (
    assert_same_answer,
    trial_targets,
    trial_trees,
)

SQL_SIMPLE = "SELECT o_orderkey FROM orders WHERE o_totalprice > 100"
SQL_JOIN = (
    "SELECT c_name FROM customer JOIN orders ON c_custkey = o_custkey"
)
SQL_AGG = (
    "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey"
)
SQL_OTHER = "SELECT n_name FROM nation JOIN region ON n_regionkey = r_regionkey"
#: Plans of these two mint columns: AvgToSumDivCount's SUM and COUNT under
#: an eager aggregation, and UnionAllAssociativity's middle union.
SQL_MINTS_AVG = (
    "SELECT c_name, AVG(o_totalprice) FROM customer "
    "JOIN orders ON c_custkey = o_custkey GROUP BY c_name"
)
SQL_MINTS_UNION = (
    "SELECT o_orderkey FROM orders UNION ALL SELECT l_orderkey FROM lineitem "
    "UNION ALL SELECT c_custkey FROM customer"
)


@pytest.fixture()
def service(tpch_db, registry):
    return PlanService(tpch_db, registry=registry)


def _tree(db, sql):
    return sql_to_tree(sql, db.catalog)


#: Without GetToTableScan no physical plan can exist.
NO_PLAN = DEFAULT_CONFIG.with_disabled(["GetToTableScan"])
INF = float("inf")
#: SQL_JOIN's winning plan is built with JoinCommutativity; it exercises
#: CrossToInnerJoin too, but its plan does not rely on it.
OFF_SUPPORT = DEFAULT_CONFIG.with_disabled(["CrossToInnerJoin"])
IN_SUPPORT = DEFAULT_CONFIG.with_disabled(["JoinCommutativity"])


def _ask(service, entry_point, tree, config=None):
    """One request through one of the four shapes: the cost it answers."""
    if entry_point == "optimize":
        try:
            return service.optimize(tree, config).cost
        except OptimizationError:
            return INF
    if entry_point == "cost":
        return service.cost(tree, config)
    if entry_point == "optimize_many":
        (outcome,) = service.optimize_many(
            [(tree, config)], return_errors=True
        )
        return INF if isinstance(outcome, OptimizationError) else outcome.cost
    (cost,) = service.cost_many([(tree, config)])
    return cost


@pytest.mark.parametrize(
    "entry_point", ["optimize", "cost", "optimize_many", "cost_many"]
)
def test_every_entry_point_climbs_the_same_ladder(
    tpch_db, registry, tmp_path, entry_point
):
    """Miss, memory hit, disk record, remembered failure: the four shapes
    give the same answers and move the same counters by the same amounts.
    The differences are the ones the ladder documents -- plans are never
    persisted, so a disk record answers the cost shapes and is a miss
    (recomputed, failures included) for the plan shapes; and only a cost
    shape takes the lineage rung, so ``Cost(q, ¬R)`` of a plan built
    without R is ``Cost(q)`` there and an optimizer run for the others."""
    earlier = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
    on_disk = earlier.cost(_tree(tpch_db, SQL_SIMPLE))
    assert earlier.cost(_tree(tpch_db, SQL_AGG), NO_PLAN) == INF
    not_on_disk = PlanService(tpch_db, registry=registry).cost(
        _tree(tpch_db, SQL_JOIN)
    )

    service = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
    if entry_point.startswith("cost"):
        from_disk = failure_from_disk = {"disk_hits": 1}
        from_lineage = {"lineage_hits": 1}
    else:
        from_disk = {"computed": 1}
        failure_from_disk = {"computed": 1, "errors": 1}
        from_lineage = {"computed": 1}
    steps = [
        # (request, answer, counters that move besides ``requests``)
        ((SQL_JOIN, None), not_on_disk, {"computed": 1}),
        ((SQL_JOIN, None), not_on_disk, {"memory_hits": 1}),
        ((SQL_JOIN, OFF_SUPPORT), not_on_disk, from_lineage),
        ((SQL_JOIN, OFF_SUPPORT), not_on_disk, {"memory_hits": 1}),
        ((SQL_SIMPLE, None), on_disk, from_disk),
        ((SQL_SIMPLE, None), on_disk, {"memory_hits": 1}),
        ((SQL_AGG, NO_PLAN), INF, failure_from_disk),
        ((SQL_AGG, NO_PLAN), INF, {"memory_hits": 1}),  # no re-search
    ]
    for (sql, config), answer, moved in steps:
        before = service.counters.as_dict()
        got = _ask(service, entry_point, _tree(tpch_db, sql), config)
        after = service.counters.as_dict()
        assert got == answer, (sql, config)
        delta = {
            name: after[name] - before[name]
            for name in (
                "requests", "memory_hits", "disk_hits", "lineage_hits",
                "computed", "errors",
            )
            if after[name] != before[name]
        }
        assert delta == {"requests": 1, **moved}, (sql, config)


class TestMemoization:
    def test_second_request_hits_memory(self, tpch_db, service):
        first = service.optimize(_tree(tpch_db, SQL_SIMPLE))
        second = service.optimize(_tree(tpch_db, SQL_SIMPLE))
        assert first is second  # the memoized result object itself
        assert service.counters.computed == 1
        assert service.counters.memory_hits == 1
        assert service.counters.requests == 2

    def test_distinct_configs_are_distinct_keys(self, tpch_db, service):
        tree = _tree(tpch_db, SQL_JOIN)
        service.optimize(tree, DEFAULT_CONFIG)
        service.optimize(tree, DEFAULT_CONFIG.with_disabled(["JoinCommutativity"]))
        assert service.counters.computed == 2

    def test_cost_matches_optimize(self, tpch_db, service):
        tree = _tree(tpch_db, SQL_AGG)
        assert service.cost(tree) == service.optimize(tree).cost
        assert service.counters.computed == 1

    def test_memory_limit_evicts_fifo(self, tpch_db, service, monkeypatch):
        monkeypatch.setattr(plan_service, "MEMORY_LIMIT", 1)
        service.optimize(_tree(tpch_db, SQL_SIMPLE))
        service.optimize(_tree(tpch_db, SQL_JOIN))  # evicts the first
        service.optimize(_tree(tpch_db, SQL_SIMPLE))
        assert service.counters.computed == 3
        assert service.counters.memory_hits == 0

    def test_disk_replay_is_bounded_like_everything_else(
        self, tpch_db, registry, tmp_path, monkeypatch
    ):
        """Cost-only answers read back from disk live in the same bounded
        store as computed entries (they used to pile up beside it)."""
        sqls = [SQL_SIMPLE, SQL_JOIN, SQL_AGG]
        earlier = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        earlier.cost_many([_tree(tpch_db, sql) for sql in sqls])

        monkeypatch.setattr(plan_service, "MEMORY_LIMIT", 2)
        replay = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        for _ in range(2):
            for sql in sqls:
                replay.cost(_tree(tpch_db, sql))
        assert replay.counters.computed == 0
        assert len(replay._entries) == 2
        # three keys cycling through two FIFO slots never hit memory
        assert replay.counters.disk_hits == 6

    def test_no_memory_cache(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry, memory_cache=False)
        service.optimize(_tree(tpch_db, SQL_SIMPLE))
        service.optimize(_tree(tpch_db, SQL_SIMPLE))
        assert service.counters.computed == 2
        assert service.counters.memory_hits == 0


class TestLineageRung:
    """``Cost(q, ¬D)`` read off ``Plan(q)``: only for a cost request, only
    from an uncut undisabled result in memory, only when ``D`` avoids its
    ``plan_support`` -- and then exactly the optimizer's answer."""

    def _cache_events(self, tracer):
        return [
            (event.arg("outcome"), event.arg("lineage"))
            for event in tracer.events if event.name == "service.cache"
        ]

    def test_answers_exactly_what_the_optimizer_would(
        self, tpch_db, registry, tracer_service
    ):
        service, tracer = tracer_service
        tree = _tree(tpch_db, SQL_JOIN)
        base = service.optimize(tree)
        assert not base.stats.budget_exhausted
        assert "CrossToInnerJoin" in base.rules_exercised
        assert "CrossToInnerJoin" not in base.plan_support
        assert service.cost(tree, OFF_SUPPORT) == base.cost
        assert service.counters.lineage_hits == 1
        assert service.counters.computed == 1
        fresh = PlanService(tpch_db, registry=registry)
        assert fresh.cost(_tree(tpch_db, SQL_JOIN), OFF_SUPPORT) == base.cost
        assert self._cache_events(tracer)[-1] == ("lineage_hit", None)

    def test_plan_requests_never_take_the_rung(self, tpch_db, service):
        tree = _tree(tpch_db, SQL_JOIN)
        service.optimize(tree)
        restricted = service.optimize(tree, OFF_SUPPORT)
        assert service.counters.computed == 2
        assert service.counters.lineage_hits == 0
        # Costed from lineage first, the plan is still computed when asked.
        other = _tree(tpch_db, SQL_AGG)
        service.optimize(other)
        config = DEFAULT_CONFIG.with_disabled(["GbAggSplitGlobalLocal"])
        cost = service.cost(other, config)
        assert service.optimize(other, config).cost == cost
        assert (service.counters.lineage_hits, service.counters.computed) == (
            1, 4
        )
        assert restricted.cost == service.optimize(tree).cost

    def test_refusals_say_why(self, tpch_db, registry, tracer_service):
        service, tracer = tracer_service
        tree = _tree(tpch_db, SQL_JOIN)
        assert service.cost(tree, OFF_SUPPORT) > 0  # before Plan(q)
        service.optimize(tree)
        in_support = service.cost(tree, IN_SUPPORT)
        assert in_support > service.cost(tree)
        capped = DEFAULT_CONFIG.replaced(max_exprs_per_group=2)
        base = service.optimize(tree, capped)
        assert base.stats.cut == "exprs"
        service.cost(tree, capped.with_disabled(["CrossToInnerJoin"]))
        assert service.counters.lineage_hits == 0
        refusals = [
            reason for outcome, reason in self._cache_events(tracer)
            if reason is not None
        ]
        assert refusals == [
            "no_base", "in_support:JoinCommutativity", "base_cut:exprs",
        ]

    def test_answer_is_persisted_as_a_cost_record(
        self, tpch_db, registry, tmp_path
    ):
        earlier = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        tree = _tree(tpch_db, SQL_JOIN)
        cost = earlier.optimize(tree).cost
        assert earlier.cost(tree, OFF_SUPPORT) == cost
        assert earlier.counters.lineage_hits == 1
        replay = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        assert replay.cost(_tree(tpch_db, SQL_JOIN), OFF_SUPPORT) == cost
        assert (replay.counters.disk_hits, replay.counters.computed) == (1, 0)


@pytest.fixture()
def tracer_service(tpch_db, registry):
    tracer = RecordingTracer(detail="summary")
    return PlanService(tpch_db, registry=registry, tracer=tracer), tracer


class TestGenerationTrials:
    """``optimize_exercising``: the ladder, asked a yes/no question."""

    #: In ``RuleSet(SQL_JOIN)`` / not in it.
    FIRES, DOES_NOT = "JoinCommutativity", "GbAggPullAboveJoin"

    def test_same_answer_as_optimize_on_a_fresh_service(
        self, tpch_db, tpch_stats, registry
    ):
        trees = trial_trees(tpch_db, tpch_stats, registry)
        reference = PlanService(tpch_db, registry=registry)
        trials = 0
        for tree in trees:
            full = reference.optimize(tree)
            for targets in trial_targets(full, registry):
                fresh = PlanService(tpch_db, registry=registry)
                assert_same_answer(
                    fresh.optimize_exercising(tree, targets), full, targets
                )
                assert fresh.counters == ServiceStats(requests=1, computed=1)
                # ... and from the memory entry that holds a result.
                assert_same_answer(
                    reference.optimize_exercising(tree, targets),
                    full, targets,
                )
                trials += 1
        assert reference.counters.computed == len(trees)
        assert reference.counters.memory_hits == trials

    def test_ruleset_only_entry(self, tpch_db, registry, tmp_path):
        metrics = MetricsRegistry()
        service = PlanService(
            tpch_db, registry=registry, cache_dir=tmp_path, metrics=metrics
        )
        tree = _tree(tpch_db, SQL_JOIN)
        value = metrics.counter_value

        assert service.optimize_exercising(tree, [self.DOES_NOT]) is None
        assert value("optimizer.unexercised") == 1
        # Repeated, alone or among more targets: still *no*, from memory.
        assert service.optimize_exercising(tree, [self.DOES_NOT]) is None
        assert (
            service.optimize_exercising(tree, [self.FIRES, self.DOES_NOT])
            is None
        )
        assert value("optimizer.optimizations") == 1
        assert service.counters == ServiceStats(
            requests=3, memory_hits=2, computed=1
        )
        assert cache_stats(tmp_path)["entries"] == 0  # no cost to record

        # It holds no plan and no cost: those requests compute in full ...
        full = service.optimize(tree)
        assert service.counters.computed == 2
        assert value("optimizer.unexercised") == 1
        assert cache_stats(tmp_path)["entries"] == 1
        # ... and what they leave behind answers everything.
        assert service.cost(tree) == full.cost
        assert service.optimize_exercising(tree, [self.FIRES]) is full
        assert service.optimize_exercising(tree, [self.DOES_NOT]) is None
        assert service.counters.computed == 2
        assert service.counters.errors == 0

    def test_ruleset_only_entry_does_not_answer_other_targets(
        self, tpch_db, service
    ):
        tree = _tree(tpch_db, SQL_JOIN)
        assert service.optimize_exercising(tree, [self.DOES_NOT]) is None
        result = service.optimize_exercising(tree, [self.FIRES])
        assert result is not None and result.exercised(self.FIRES)
        assert service.counters.computed == 2
        assert service.cost(tree) == result.cost  # now a memory hit
        assert service.counters.computed == 2

    def test_cost_after_a_failed_trial_computes_and_persists(
        self, tpch_db, registry, tmp_path
    ):
        service = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        tree = _tree(tpch_db, SQL_JOIN)
        assert service.optimize_exercising(tree, [self.DOES_NOT]) is None
        cost = service.cost(tree)
        assert service.counters.computed == 2
        assert service.counters.disk_hits == 0
        assert PlanService(
            tpch_db, registry=registry, cache_dir=tmp_path
        ).cost(tree) == cost

    def test_failures_are_errors_and_remembered(self, tpch_db, service):
        tree = _tree(tpch_db, SQL_AGG)
        # Exploration cannot rule the target out, implementation finds no
        # plan: a real OptimizationError, counted and memoized as one.
        for _ in range(2):
            with pytest.raises(OptimizationError):
                service.optimize_exercising(
                    tree, ["GbAggToHashAggregate"], NO_PLAN
                )
        assert service.counters.computed == 1
        assert service.counters.errors == 1
        assert service.counters.memory_hits == 1


class _UnpicklableJoinCommutativity(JoinCommutativity):
    """The same rule, carrying an attribute ``pickle`` cannot ship."""

    def __init__(self):
        self.note = lambda: "not shippable"


class TestBatches:
    def test_optimize_many_orders_and_dedupes(self, tpch_db, service):
        requests = [
            _tree(tpch_db, SQL_SIMPLE),
            _tree(tpch_db, SQL_JOIN),
            _tree(tpch_db, SQL_SIMPLE),  # structural duplicate of [0]
        ]
        results = service.optimize_many(requests)
        assert len(results) == 3
        assert results[0] is results[2]
        assert results[0].cost != results[1].cost or True  # ordering holds
        assert service.counters.computed == 2  # duplicate computed once
        assert service.counters.batches == 1

    def test_parallel_equals_serial(self, tpch_db, registry):
        serial = PlanService(tpch_db, registry=registry, workers=1)
        parallel = PlanService(tpch_db, registry=registry, workers=2)
        trees = [
            _tree(tpch_db, SQL_SIMPLE),
            _tree(tpch_db, SQL_JOIN),
            _tree(tpch_db, SQL_AGG),
        ]
        expected = [result.cost for result in serial.optimize_many(trees)]
        # A silent fall-back to serial would pass every comparison below:
        # its warning must fail the test, and the pool must have run.
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="plan service")
            results = parallel.optimize_many(trees)
        assert parallel.counters.parallel_tasks == 3
        assert [result.cost for result in results] == expected
        assert [
            sorted(result.rules_exercised) for result in results
        ] == [
            sorted(result.rules_exercised)
            for result in serial.optimize_many(trees)
        ]

    def test_unpicklable_registry_still_fans_out(self, tpch_db, registry):
        """Workers inherit the registry through ``fork``: one that would
        not pickle fans out like any other, to the serial answers."""
        patched = registry.with_replaced_rule(_UnpicklableJoinCommutativity())
        with pytest.raises(Exception):
            pickle.dumps(patched)
        serial = PlanService(tpch_db, registry=registry, workers=1)
        trees = [
            _tree(tpch_db, SQL_SIMPLE),
            _tree(tpch_db, SQL_JOIN),
            _tree(tpch_db, SQL_AGG),
        ]
        expected = [result.cost for result in serial.optimize_many(trees)]
        with PlanService(tpch_db, registry=patched, workers=2) as service:
            with warnings.catch_warnings():
                warnings.filterwarnings("error", message="plan service")
                results = service.optimize_many(trees)
        assert [result.cost for result in results] == expected
        assert service.counters.parallel_tasks == 3
        assert [result.logical_tree for result in results] == trees

    def test_broken_pool_falls_back_to_serial(
        self, tpch_db, registry, monkeypatch
    ):
        """A worker killed mid-batch: the batch runs serially, to the same
        costs as a serial service, counted once; the dead pool is reaped
        and the next batch starts a new one."""
        optimize = Optimizer.optimize_exercising
        parent = os.getpid()

        def dying(optimizer, tree, targets):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return optimize(optimizer, tree, targets)

        trees = [
            _tree(tpch_db, SQL_SIMPLE),
            _tree(tpch_db, SQL_JOIN),
            _tree(tpch_db, SQL_AGG),
        ]
        expected = PlanService(
            tpch_db, registry=registry, workers=1
        ).cost_many(trees)
        metrics = MetricsRegistry()
        service = PlanService(
            tpch_db, registry=registry, workers=2, metrics=metrics,
        )
        monkeypatch.setattr(Optimizer, "optimize_exercising", dying)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert service.cost_many(trees) == expected
        (warned,) = [w for w in caught if "plan service" in str(w.message)]
        assert "worker pool failed" in str(warned.message)
        assert service.counters.pool_fallbacks == 1
        assert metrics.counter_value("service.pool_fallbacks") == 1
        assert (service.counters.parallel_tasks, service.counters.computed) == (
            0, 3
        )
        assert service._pool is None

        monkeypatch.undo()
        more = [_tree(tpch_db, SQL_OTHER), _tree(tpch_db, SQL_MINTS_UNION)]
        assert service.cost_many(more) == PlanService(
            tpch_db, registry=registry, workers=1
        ).cost_many(more)
        assert service.counters.parallel_tasks == 2
        service.close()

    def test_pool_never_outgrows_its_batches_or_workers(
        self, tpch_db, registry
    ):
        service = PlanService(tpch_db, registry=registry, workers=3)
        service.cost_many([_tree(tpch_db, SQL_SIMPLE)])
        assert service._pool is None  # one miss computes in-process
        service.cost_many([_tree(tpch_db, SQL_JOIN), _tree(tpch_db, SQL_AGG)])
        assert len(service._pool.children) == 2
        service.cost_many([
            _tree(tpch_db, sql)
            for sql in (SQL_OTHER, SQL_MINTS_AVG, SQL_MINTS_UNION)
        ])
        assert len(service._pool.children) == 3
        tree = _tree(tpch_db, SQL_JOIN)
        service.optimize_many([  # plans: four misses, no lineage rung
            (tree, DEFAULT_CONFIG.with_disabled([rule]))
            for rule in ("JoinCommutativity", "JoinAssociativity",
                         "GetToTableScan", "CrossToInnerJoin")
        ], return_errors=True)
        assert len(service._pool.children) == 3
        assert service.counters.parallel_tasks == 2 + 3 + 4
        service.close()

    def test_close_leaves_no_child(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry, workers=2)
        service.cost_many([_tree(tpch_db, SQL_JOIN), _tree(tpch_db, SQL_AGG)])
        pids = _worker_pids(service)
        assert len(pids) == 2
        service.close()
        _assert_reaped(pids)
        service.close()  # a second close is a no-op

    def test_a_dropped_service_reaps_its_children(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry, workers=2)
        service.cost_many([_tree(tpch_db, SQL_JOIN), _tree(tpch_db, SQL_AGG)])
        pids = _worker_pids(service)
        del service
        gc.collect()
        _assert_reaped(pids)

    def test_a_traced_batch_computes_in_process(self, tpch_db, registry):
        """Workers have no tracer: a traced service keeps every
        optimization in its own process, so its trace does not depend on
        ``workers``."""
        trees = [
            _tree(tpch_db, SQL_SIMPLE),
            _tree(tpch_db, SQL_JOIN),
            _tree(tpch_db, SQL_AGG),
        ]

        def events(workers):
            tracer = RecordingTracer()
            service = PlanService(
                tpch_db, registry=registry, workers=workers, tracer=tracer
            )
            service.cost_many(trees)
            return [event.name for event in tracer.events]

        serial = events(1)
        assert serial.count("optimize.done") == len(trees)
        assert events(2) == serial


def _worker_pids(service):
    return [child.pid for child in service._pool.children]


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _cids(obj):
    """The column ids in ``repr(obj)``."""
    return {int(cid) for cid in re.findall(r"#(\d+)", repr(obj))}


class TestWorkerColumnIds:
    """``Column`` equality is by id, so an id a worker mints must be new
    to the parent and to every other worker."""

    def test_a_tree_bound_after_the_fork_runs_to_the_serial_bag(
        self, tpch_db, registry
    ):
        service = PlanService(tpch_db, registry=registry, workers=2)
        service.cost_many([_tree(tpch_db, SQL_SIMPLE), _tree(tpch_db, SQL_JOIN)])
        assert service._pool is not None
        # Bound now, after the workers forked: its ids are ones a worker
        # would mint next if it counted on from the parent's counter.
        trees = [_tree(tpch_db, SQL_MINTS_AVG), _tree(tpch_db, SQL_MINTS_UNION)]
        results = service.optimize_many(trees)
        assert service.counters.parallel_tasks == 4
        serial = PlanService(tpch_db, registry=registry, workers=1)
        for tree, result in zip(trees, results):
            assert _cids(result.plan) - _cids(tree)  # a minted column
            expected = serial.optimize(tree)
            ours, theirs = service.execute_many([
                (result.plan, result.output_columns),
                (expected.plan, expected.output_columns),
            ])
            assert ours.ok, ours.error
            assert ours.result.multiset() == theirs.result.multiset()
        service.close()

    def test_two_workers_mint_disjoint_ids(self, tpch_db, registry):
        trees = [_tree(tpch_db, SQL_MINTS_AVG), _tree(tpch_db, SQL_MINTS_UNION)]
        with PlanService(tpch_db, registry=registry, workers=2) as service:
            first, second = service.optimize_many(trees)
        assert service.counters.parallel_tasks == 2
        minted = [
            _cids(result.plan) - _cids(tree)
            for tree, result in zip(trees, (first, second))
        ]
        assert all(minted)
        assert not minted[0] & minted[1]
        assert not minted[0] & _cids(trees[1])
        assert not minted[1] & _cids(trees[0])


#: A candidate class from outside the rule modules whose bare ``__name__``
#: is a registry class's: only its module tells the two apart.
_ForeignJoinCommutativity = type(
    "JoinCommutativity", (JoinCommutativity,), {}
)


class TestDiskCache:
    def test_registry_change_invalidates(self, tpch_db, registry):
        """Every mutant (the handwritten faults among them) and a
        same-named foreign class gets an environment of its own, none of
        them the clean build's."""
        from repro.testing.mutation.operators import generate_mutants

        stats = tpch_db.stats_repository()

        def fingerprint(rules):
            return environment_fingerprint(tpch_db.catalog, stats, rules)

        mutants = generate_mutants(registry, registry.exploration_rule_names)
        assert len(mutants) == 111
        assert sum(mutant.operator == "handwritten" for mutant in mutants) == 4
        builds = [mutant.build() for mutant in mutants]
        builds.append(_ForeignJoinCommutativity())
        environments = {
            fingerprint(registry.with_replaced_rule(rule)) for rule in builds
        }
        assert len(environments) == len(builds)
        assert fingerprint(registry) not in environments

    def test_stats_and_clear(self, tpch_db, registry, tmp_path):
        service = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        service.cost(_tree(tpch_db, SQL_SIMPLE))
        service.cost(_tree(tpch_db, SQL_JOIN))
        summary = cache_stats(tmp_path)
        assert summary["entries"] == 2
        assert clear_cache(tmp_path) == 2
        assert cache_stats(tmp_path)["entries"] == 0

    def test_records_are_sorted_json(self, tpch_db, registry, tmp_path):
        """One line per record, keys sorted, compact separators: the same
        requests in another process write the same bytes."""
        for run in ("first", "second"):
            service = PlanService(
                tpch_db, registry=registry, cache_dir=tmp_path / run
            )
            service.cost(_tree(tpch_db, SQL_JOIN))
            service.cost(_tree(tpch_db, SQL_AGG), NO_PLAN)
        (log,) = (tmp_path / "first").glob(f"*/{LOG_NAME}")
        text = log.read_text()
        lines = text.splitlines()
        assert len(lines) == 2 and text.endswith("\n")
        for line in lines:
            record = json.loads(line)
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )
        # A record holds what is read back: the key and the cost or error.
        cost, error = map(json.loads, lines)
        assert list(cost) == ["config", "cost", "fingerprint"]
        assert list(error) == ["config", "error", "fingerprint"]
        assert error["error"]  # a failure is a record too
        (again,) = (tmp_path / "second").glob(f"*/{LOG_NAME}")
        assert again.read_bytes() == log.read_bytes()

    def test_a_log_in_the_older_format_reads_as_it_is(
        self, tpch_db, registry, tmp_path
    ):
        """Records were once written with ``"error": null`` and the
        exercised rules, rule interactions and memo counters beside a
        cost.  A log written so answers every key with the same cost or
        error, and a warm rerun over it appends nothing."""
        requests = [
            (_tree(tpch_db, sql), config)
            for sql in (SQL_SIMPLE, SQL_JOIN, SQL_AGG)
            for config in (DEFAULT_CONFIG, IN_SUPPORT, NO_PLAN)
        ]
        writer = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        costs = [writer.cost(tree, config) for tree, config in requests]
        results = {}
        for tree, config in requests:
            try:
                result = writer.optimize(tree, config)
            except OptimizationError:
                continue
            results[tree.fingerprint(), config.cache_token()] = result
        (log,) = tmp_path.glob(f"*/{LOG_NAME}")
        records = [json.loads(line) for line in log.read_text().splitlines()]
        lines = []
        for record in records:
            older = dict(record)
            if "cost" in record:
                result = results[record["fingerprint"], record["config"]]
                stats = result.stats
                older.update(
                    error=None,
                    rules_exercised=sorted(result.rules_exercised),
                    rule_interactions=[
                        list(pair) for pair in sorted(result.rule_interactions)
                    ],
                    memo_stats={
                        "group_count": stats.group_count,
                        "expr_count": stats.expr_count,
                        "rule_applications": stats.rule_applications,
                        "budget_exhausted": stats.budget_exhausted,
                    },
                )
            lines.append(
                json.dumps(older, sort_keys=True, separators=(",", ":"))
            )
        log.write_text("\n".join(lines) + "\n")
        written = log.read_bytes()
        assert {"cost" in record for record in records} == {True, False}

        disk = PlanDiskCache(tmp_path, log.parent.name)
        for record in records:
            key = (record["fingerprint"], record["config"])
            assert disk.get(key) == record.get("error", record.get("cost"))
        assert (len(disk), disk.lines, disk.garbled) == (
            len(records), len(records), 0
        )
        reader = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        assert [reader.cost(tree, config) for tree, config in requests] == costs
        assert reader.counters.computed == 0
        for tree, config in requests:  # plans are recomputed, not appended
            try:
                reader.optimize(tree, config)
            except OptimizationError:
                pass
        assert reader.counters.computed == len(results)
        assert log.read_bytes() == written

    def test_a_warm_rerun_appends_nothing(self, tpch_db, registry, tmp_path):
        """A plan is never persisted, so a rerun recomputes it; the log
        already answers its key the same way and does not grow."""
        trees = [_tree(tpch_db, sql) for sql in (SQL_SIMPLE, SQL_JOIN)]
        for run in range(2):
            service = PlanService(
                tpch_db, registry=registry, cache_dir=tmp_path
            )
            for tree in trees:
                service.optimize(tree)
                service.cost(tree, IN_SUPPORT)
            # The plans, and (first run only) SQL_JOIN's cost without the
            # rule its plan rests on; the rest comes off disk or lineage.
            assert service.counters.computed == (3, 2)[run]
            if run == 0:
                (log,) = tmp_path.glob(f"*/{LOG_NAME}")
                written = log.read_bytes()
        assert written.count(b"\n") == 4
        assert log.read_bytes() == written

    @pytest.mark.parametrize(
        "garbled",
        [
            "{}",
            "[1, 2]",
            "null",
            "17.5",
            '"cost"',
            '{"cost": "17.5"}',
            '{"cost": true}',
            '{"cost": null, "error": null}',
            '{"error": 3}',
            '{"cost": 17',
            '{"fingerprint": 3}',
            '{"config": null}',
        ],
    )
    def test_wrong_shaped_record_is_a_miss(
        self, tpch_db, registry, tmp_path, garbled
    ):
        """A line that is not JSON, or is no record, reads as a miss --
        attributed as garbled, recomputed, and healed by the line the
        recomputation appends.  A JSON object is laid over the record it
        replaces, so it still names the request's key unless it overrides
        ``fingerprint`` or ``config`` itself."""
        tree = _tree(tpch_db, SQL_JOIN)
        cost = PlanService(
            tpch_db, registry=registry, cache_dir=tmp_path
        ).cost(tree)
        (log,) = list(tmp_path.glob(f"*/{LOG_NAME}"))
        record = json.loads(log.read_text())
        try:
            overlay = json.loads(garbled)
        except ValueError:
            overlay = None
        if isinstance(overlay, dict):
            garbled = json.dumps({
                "fingerprint": record["fingerprint"],
                "config": record["config"],
                **overlay,
            })
        log.write_text(garbled + "\n")

        tracer = RecordingTracer()
        service = PlanService(
            tpch_db, registry=registry, cache_dir=tmp_path, tracer=tracer
        )
        assert service.cost(tree) == cost
        assert service.counters.computed == 1
        assert service.counters.disk_hits == 0
        (event,) = [
            e for e in tracer.events if e.name == "service.disk_garbled"
        ]
        assert event.arg("garbled") == 1

        healed = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        assert healed.cost(tree) == cost
        assert healed.counters.computed == 0
        assert healed.counters.disk_hits == 1
        summary = cache_stats(tmp_path)
        assert (summary["entries"], summary["lines"], summary["garbled"]) == (
            1, 2, 1
        )

    def test_torn_tail_is_not_consumed_and_swallows_no_record(
        self, tpch_db, registry, tmp_path
    ):
        """A final line without its newline (a writer that died mid-write)
        is left unread; the next append ends it first, so the torn line is
        one garbled line and the appended record stays readable."""
        simple, join = _tree(tpch_db, SQL_SIMPLE), _tree(tpch_db, SQL_JOIN)
        first = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        simple_cost, join_cost = first.cost(simple), first.cost(join)
        (log,) = list(tmp_path.glob(f"*/{LOG_NAME}"))
        simple_line, join_line = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(simple_line + join_line[: len(join_line) // 2])

        service = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        assert service.cost(simple) == simple_cost
        assert service.counters.disk_hits == 1
        summary = cache_stats(tmp_path)
        assert (summary["entries"], summary["lines"], summary["garbled"]) == (
            1, 1, 0
        )
        assert service.cost(join) == join_cost  # the torn record: a miss
        assert service.counters.computed == 1

        healed = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        assert healed.cost(join) == join_cost
        assert healed.cost(simple) == simple_cost
        assert healed.counters.disk_hits == 2
        summary = cache_stats(tmp_path)
        assert (summary["entries"], summary["lines"], summary["garbled"]) == (
            2, 3, 1
        )

    def test_a_live_cache_reads_what_was_appended_after_its_load(
        self, tmp_path
    ):
        """A miss reads the bytes appended since the last read: a record
        another writer added after the load is found, and a torn line is
        read once its newline arrives."""
        reader = PlanDiskCache(tmp_path, "env")
        writer = PlanDiskCache(tmp_path, "env")
        writer.put(("a", "t"), _record("a", 1.0))
        assert reader.get(("a", "t")) == 1.0
        assert reader.get(("b", "t")) is None
        writer.put(("b", "t"), _record("b", 2.0))
        assert reader.get(("b", "t")) == 2.0
        line = json.dumps(_record("c", 3.0)).encode("utf-8")
        with open(reader.path, "ab") as handle:
            handle.write(line[:9])
            handle.flush()
            assert reader.get(("c", "t")) is None
            handle.write(line[9:] + b"\n")
        assert reader.get(("c", "t")) == 3.0
        assert (len(reader), reader.lines, reader.garbled) == (3, 3, 0)

    def test_two_processes_append_to_one_log(self, tmp_path):
        """Each appended line is one ``write``: 200 records from each of
        two concurrent processes leave 400 readable lines."""
        script = (
            "import sys\n"
            "from repro.service.cache import PlanDiskCache\n"
            "root, name = sys.argv[1], sys.argv[2]\n"
            "cache = PlanDiskCache(root, 'env')\n"
            "for i in range(200):\n"
            "    key = f'{name}{i}'\n"
            "    cache.put((key, 't'), {'fingerprint': key, 'config': 't',\n"
            "              'cost': float(i), 'error': None,\n"
            "              'rules_exercised': ['R'] * (i % 40)})\n"
        )
        env = {**os.environ, "PYTHONPATH": _SRC}
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), name], env=env
            )
            for name in ("a", "b")
        ]
        assert [writer.wait(timeout=60) for writer in writers] == [0, 0]
        cache = PlanDiskCache(tmp_path, "env")
        cache.refresh()
        assert (len(cache), cache.lines, cache.garbled) == (400, 400, 0)
        assert cache.get(("a199", "t")) == cache.get(("b199", "t")) == 199.0

    def test_log_is_byte_identical_across_hash_seeds(self, tmp_path):
        """Two fresh processes under different string-hash seeds write the
        same log for the same requests."""
        script = (
            "import sys\n"
            "from repro.optimizer.config import DEFAULT_CONFIG\n"
            "from repro.service import PlanService\n"
            "from repro.sql.binder import sql_to_tree\n"
            "from repro.workloads import tpch_database\n"
            "db = tpch_database(seed=1)\n"
            "service = PlanService(db, cache_dir=sys.argv[1])\n"
            "for sql in sys.argv[2:]:\n"
            "    tree = sql_to_tree(sql, db.catalog)\n"
            "    service.cost(tree)\n"
            "    service.cost(tree, DEFAULT_CONFIG.with_disabled(\n"
            "        ['JoinCommutativity', 'GetToTableScan']))\n"
        )
        logs = []
        for seed in ("1", "2"):
            subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / seed),
                 SQL_SIMPLE, SQL_JOIN, SQL_AGG],
                env={**os.environ, "PYTHONPATH": _SRC,
                     "PYTHONHASHSEED": seed},
                check=True, timeout=120,
            )
            (log,) = (tmp_path / seed).glob(f"*/{LOG_NAME}")
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]
        assert logs[0].count(b"\n") == 6


def _record(fingerprint, cost):
    return {"fingerprint": fingerprint, "config": "t", "cost": cost,
            "error": None}


#: The source root, for the subprocesses that import ``repro``.
_SRC = str(Path(repro.__file__).resolve().parent.parent)


class TestContentHashesComputedOnce:
    """The hashes the caches are keyed by live on the values they describe:
    a request for a tree or plan seen before hashes nothing again."""

    def test_one_fingerprint_per_tree_whoever_asks(
        self, tpch_db, registry, tmp_path, monkeypatch
    ):
        # The module, not the function the package re-exports under the
        # same name: the method looks ``fingerprint`` up there on a miss.
        fingerprint_module = importlib.import_module(
            "repro.logical.fingerprint"
        )
        service = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        built = TestSuiteBuilder(
            tpch_db, registry, seed=3, extra_operators=2, service=service
        ).build(singleton_nodes(registry.exploration_rule_names[:4]), k=2)
        oracle = CostOracle(tpch_db, registry, service=service)
        plan = baseline_plan(built, oracle)
        # Every edge of the rule-query graph, priced: memory and disk full.
        edges = [
            (query.query_id, node, oracle.cost_without(query, node))
            for node in built.rule_nodes
            for query in built.queries_for(node)
        ]
        assert len(edges) > built.size
        # The same suite over rebuilt roots: equal trees, never hashed.
        suite = TestSuite(
            rule_nodes=built.rule_nodes,
            queries=[
                dataclasses.replace(query, tree=dataclasses.replace(query.tree))
                for query in built.queries
            ],
            k=built.k,
        )

        calls = []
        real = fingerprint_module.fingerprint

        def spy(tree):
            calls.append(tree)
            return real(tree)

        monkeypatch.setattr(fingerprint_module, "fingerprint", spy)
        fresh = PlanService(tpch_db, registry=registry, cache_dir=tmp_path)
        for asked in (fresh, service):
            for query_id, node, cost in edges:
                assert asked.cost(
                    suite.query(query_id).tree,
                    DEFAULT_CONFIG.with_disabled(node),
                ) == cost
        report = CorrectnessRunner(tpch_db, registry, service=service).run(
            plan, suite
        )

        assert report.passed
        assert fresh.counters.computed == 0
        assert fresh.counters.disk_hits == len(edges)
        assert len(calls) == suite.size
        assert {id(tree) for tree in calls} == {
            id(query.tree) for query in suite.queries
        }

    def test_one_signature_per_plan_across_batches(
        self, tpch_db, registry, monkeypatch
    ):
        import hashlib

        import repro.physical.operators as physical

        service = PlanService(
            tpch_db, registry=registry, metrics=MetricsRegistry()
        )
        requests = []
        for sql in (SQL_SIMPLE, SQL_JOIN, SQL_AGG):
            result = service.optimize(_tree(tpch_db, sql))
            requests.append((result.plan, result.output_columns))

        hashed = []

        def sha256(payload):
            hashed.append(payload)
            return hashlib.sha256(payload)

        monkeypatch.setattr(
            physical, "hashlib", types.SimpleNamespace(sha256=sha256)
        )
        first = service.execute_many(requests)
        second = service.execute_many(requests)

        assert [item.result for item in second] == [
            item.result for item in first
        ]
        assert service.metrics.counter_value("exec.cache_hits") == 3
        assert len(hashed) == 3


class TestCostOracleCounters:
    def _query(self, db, query_id, sql):
        return SuiteQuery(
            query_id=query_id,
            tree=_tree(db, sql),
            sql=sql,
            cost=1.0,
            ruleset=frozenset(),
            generated_for=("JoinCommutativity",),
        )

    def test_logical_vs_physical_counting(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry)
        oracle = CostOracle(tpch_db, registry, service=service)
        query = self._query(tpch_db, 0, SQL_JOIN)
        node = ("JoinCommutativity",)

        oracle.cost_without(query, node)
        oracle.cost_without(query, node)  # oracle-level repeat
        assert oracle.invocations == 1
        assert oracle.cache_hits == 1
        assert service.counters.computed == 1

    def test_two_oracles_share_physical_work(self, tpch_db, registry):
        """Figure 14: each oracle counts its own logical invocations even
        when the shared service already knows the answer."""
        service = PlanService(tpch_db, registry=registry)
        query = self._query(tpch_db, 0, SQL_JOIN)
        node = ("JoinCommutativity",)

        first = CostOracle(tpch_db, registry, service=service)
        second = CostOracle(tpch_db, registry, service=service)
        first.cost_without(query, node)
        second.cost_without(query, node)
        assert first.invocations == 1
        assert second.invocations == 1  # logical count is per-oracle
        assert service.counters.computed == 1  # physical work shared

    def test_cost_without_many_counts_like_serial(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry)
        oracle = CostOracle(tpch_db, registry, service=service)
        a = self._query(tpch_db, 0, SQL_JOIN)
        b = self._query(tpch_db, 1, SQL_AGG)
        node = ("JoinCommutativity",)
        pairs = [(a, node), (b, node), (a, node)]

        batched = oracle.cost_without_many(pairs)
        assert batched[0] == batched[2]
        assert oracle.invocations == 2  # distinct requests
        assert oracle.cache_hits == 1  # in-batch duplicate
        assert batched == [
            oracle.cost_without(query, rules_off)
            for query, rules_off in pairs
        ]
