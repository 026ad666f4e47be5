"""Tests for the tracer: determinism, the disabled fast path, buffers,
exports, and detail levels."""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    RecordingTracer,
    TraceEvent,
    Tracer,
)
from repro.optimizer.config import DEFAULT_CONFIG
from repro.service import PlanService
from repro.sql.binder import sql_to_tree

SQL = (
    "SELECT c_nationkey, SUM(o_totalprice) AS total FROM orders "
    "JOIN customer ON o_custkey = c_custkey "
    "WHERE o_totalprice > 500.0 GROUP BY c_nationkey"
)


def _traced_optimize(db, registry, detail="full", config=DEFAULT_CONFIG):
    tracer = RecordingTracer(detail=detail)
    service = PlanService(db, registry=registry, tracer=tracer)
    result = service.optimize(sql_to_tree(SQL, db.catalog), config)
    return tracer, result


class TestNullTracer:
    def test_disabled_and_shared(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.detailed is False
        assert type(NULL_TRACER) is Tracer

    def test_span_is_identity_no_allocation(self):
        # The no-op span is one shared reusable object: the disabled
        # path must not allocate per call.
        first = NULL_TRACER.span("anything", x=1)
        second = NULL_TRACER.span("other")
        assert first is second
        with first:
            pass

    def test_event_returns_none(self):
        assert NULL_TRACER.event("anything", cat="x", key="v") is None

    def test_service_defaults_to_null_tracer(self, tpch_db, registry):
        service = PlanService(tpch_db, registry=registry)
        assert service.tracer is NULL_TRACER


class TestRecording:
    def test_events_have_sequential_seq(self):
        tracer = RecordingTracer()
        tracer.event("a")
        tracer.event("b", cat="memo", extra=1)
        with tracer.span("c"):
            pass
        names = [e.name for e in tracer.events]
        assert names == ["a", "b", "c"]
        assert [e.seq for e in tracer.events] == [0, 1, 2]

    def test_span_records_duration(self):
        tracer = RecordingTracer()
        with tracer.span("work"):
            pass
        (event,) = tracer.events
        assert event.dur_us >= 0
        assert event.name == "work"

    def test_args_sorted_and_queryable(self):
        tracer = RecordingTracer()
        tracer.event("e", zebra=1, alpha=2)
        (event,) = tracer.events
        assert event.args == (("alpha", 2), ("zebra", 1))
        assert event.arg("zebra") == 1
        assert event.arg("missing", "default") == "default"

    def test_ring_buffer_drops_oldest(self):
        tracer = RecordingTracer(capacity=3)
        for index in range(5):
            tracer.event(f"e{index}")
        assert [e.name for e in tracer.events] == ["e2", "e3", "e4"]
        assert tracer.dropped == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RecordingTracer(capacity=0)
        with pytest.raises(ValueError):
            RecordingTracer(detail="verbose")

    def test_clear_resets_everything(self):
        tracer = RecordingTracer(capacity=2)
        for index in range(4):
            tracer.event(f"e{index}")
        tracer.clear()
        assert tracer.events == []
        assert tracer.dropped == 0
        tracer.event("fresh")
        assert tracer.events[0].seq == 0


class TestDeterminism:
    def test_same_query_same_signature(self, tpch_db, registry):
        first, _ = _traced_optimize(tpch_db, registry)
        second, _ = _traced_optimize(tpch_db, registry)
        assert first.signature() == second.signature()

    def test_to_json_byte_identical(self, tpch_db, registry):
        first, _ = _traced_optimize(tpch_db, registry)
        second, _ = _traced_optimize(tpch_db, registry)
        assert first.to_json() == second.to_json()

    def test_to_json_excludes_timings(self):
        tracer = RecordingTracer()
        with tracer.span("work"):
            tracer.event("inner")
        payload = json.loads(tracer.to_json())
        for event in payload["events"]:
            assert "ts" not in event and "dur" not in event
            assert set(event) == {"seq", "name", "cat", "args"}

    def test_tracing_changes_no_plan(self, tpch_db, registry):
        plain = PlanService(tpch_db, registry=registry)
        tree = sql_to_tree(SQL, tpch_db.catalog)
        expected = plain.optimize(tree)
        for detail in ("full", "summary"):
            _, result = _traced_optimize(tpch_db, registry, detail=detail)
            assert result.cost == expected.cost
            assert result.rules_exercised == expected.rules_exercised
            assert result.plan.describe() == expected.plan.describe()

    def test_tracing_moves_no_monotonicity_counter(self, tpch_db, registry):
        """Figure 14's numbers -- logical ``Cost(q, ¬R)`` invocations with
        and without the monotonicity pruning, and the solution cost --
        are the same on a traced, metered service as on a plain one."""
        from repro.obs import MetricsRegistry
        from repro.testing.compression import top_k_independent_plan
        from repro.testing.suite import (
            CostOracle,
            TestSuiteBuilder,
            pair_nodes,
        )

        def fig14(service):
            suite = TestSuiteBuilder(
                tpch_db, registry, seed=7, extra_operators=0, service=service
            ).build(pair_nodes(registry.exploration_rule_names[:3]), k=2)
            plain = CostOracle(tpch_db, registry, service=service)
            mono = CostOracle(tpch_db, registry, service=service)
            plain_plan = top_k_independent_plan(suite, plain)
            mono_plan = top_k_independent_plan(
                suite, mono, use_monotonicity=True
            )
            return (
                plain.invocations, mono.invocations,
                plain_plan.total_cost, mono_plan.total_cost,
            )

        untraced = fig14(PlanService(tpch_db, registry=registry))
        tracer = RecordingTracer(capacity=1 << 16, detail="summary")
        traced = fig14(
            PlanService(
                tpch_db, registry=registry,
                tracer=tracer, metrics=MetricsRegistry(),
            )
        )
        assert traced == untraced
        assert untraced[1] < untraced[0]  # the pruning did prune
        assert tracer.events


class TestServiceCacheEvents:
    def test_every_request_emits_one_cache_event(
        self, tpch_db, registry, tmp_path
    ):
        """Scalar or batched, plan or cost: one ``service.cache`` event per
        request, and the outcomes add up to the service's own counters."""
        trees = [
            sql_to_tree(sql, tpch_db.catalog)
            for sql in (
                SQL,
                "SELECT o_orderkey FROM orders WHERE o_totalprice > 100",
                "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey",
            )
        ]
        PlanService(
            tpch_db, registry=registry, cache_dir=tmp_path
        ).cost(trees[2])  # one record on disk before the traced run

        tracer = RecordingTracer(detail="summary")
        service = PlanService(
            tpch_db, registry=registry, cache_dir=tmp_path, tracer=tracer
        )
        service.optimize(trees[0])                        # miss
        service.optimize_many([trees[0], trees[1], trees[1]])  # hit, 2 misses
        service.cost_many(trees)                          # 2 hits, disk hit
        service.cost(trees[2])                            # hit
        service.optimize(trees[2])                        # plan needed: miss

        events = [e for e in tracer.events if e.name == "service.cache"]
        counters = service.counters
        assert len(events) == counters.requests == 9
        outcomes = [e.arg("outcome") for e in events]
        assert outcomes.count("memory_hit") == counters.memory_hits == 4
        assert outcomes.count("disk_hit") == counters.disk_hits == 1
        # The in-batch duplicate is a miss that shares a computation.
        assert outcomes.count("miss") == 4 == counters.computed + 1
        assert {e.arg("request") for e in events} == {"optimize", "cost"}


class TestDetailLevels:
    def test_full_records_per_attempt_events(self, tpch_db, registry):
        tracer, _ = _traced_optimize(tpch_db, registry, detail="full")
        counts = tracer.counts_by_name()
        assert counts["rule.considered"] > 0
        assert counts["rule.fired"] > 0
        assert counts["memo.group"] > 0
        assert counts["costing"] > 0

    def test_summary_drops_per_attempt_events(self, tpch_db, registry):
        tracer, result = _traced_optimize(tpch_db, registry, detail="summary")
        counts = tracer.counts_by_name()
        for high_volume in (
            "rule.considered", "rule.rejected", "rule.fired",
            "memo.group", "memo.expr", "costing",
        ):
            assert high_volume not in counts
        # The summary still carries the fired-rule names on optimize.done.
        assert counts["optimize.done"] == 1
        done = [e for e in tracer.events if e.name == "optimize.done"][0]
        assert "JoinCommutativity" in done.arg("fired")
        # ... and the rules the chosen plan was built from.
        assert done.arg("support") == ",".join(sorted(result.plan_support))
        assert "GetToTableScan" in done.arg("support")

    def test_summary_is_much_smaller(self, tpch_db, registry):
        full, _ = _traced_optimize(tpch_db, registry, detail="full")
        summary, _ = _traced_optimize(tpch_db, registry, detail="summary")
        assert len(summary.events) < len(full.events) / 10


class TestExports:
    def test_chrome_json_shape(self, tpch_db, registry):
        tracer, _ = _traced_optimize(tpch_db, registry, detail="summary")
        payload = json.loads(tracer.to_chrome_json())
        events = payload["traceEvents"]
        assert events
        phases = {event["ph"] for event in events}
        assert phases <= {"X", "i"}
        for event in events:
            if event["ph"] == "X":
                assert "dur" in event
            else:
                assert event["s"] == "t"

    def test_deterministic_dict_roundtrip(self):
        event = TraceEvent(
            seq=3, name="n", cat="c", args=(("k", "v"),), ts_us=9, dur_us=2
        )
        assert event.deterministic_dict() == {
            "seq": 3, "name": "n", "cat": "c", "args": {"k": "v"},
        }
