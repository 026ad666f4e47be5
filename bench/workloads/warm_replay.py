"""``warm_replay``: an unchanged suite run again.  Parser, fingerprints, caches.

Chosen because nightly re-runs of an unchanged suite are what the plan
service was built for, and because a change to a fingerprint or a cache key
shows only here: the optimizer does not run at all in a round.  Set-up
builds the suite and fills a disk cache and a long-lived service; a round
(a) re-parses every suite SQL string and fingerprints the trees, (b) has a
*fresh* service answer the whole rule-query graph from disk, and (c) has
the long-lived service answer it, and a BASELINE correctness run, from
memory.  It replays trees, not SQL: how many re-parsed trees keep the
fingerprint of the tree they were rendered from is reported as a count.
"""

from __future__ import annotations

import tempfile
from typing import Dict, List

from repro.optimizer.config import DEFAULT_CONFIG
from repro.rules.registry import default_registry
from repro.service import PlanService
from repro.sql import sql_to_tree
from repro.testing import (
    CorrectnessRunner,
    CostOracle,
    baseline_plan,
    top_k_independent_plan,
)
from repro.workloads import tpch_database

from bench.harness import Meter, OpTimes
from bench.workloads import DigestRow, Workload, service_counts
from bench.workloads.campaign_rules import (
    K,
    build_suite,
    singleton_rule_nodes,
    suite_digest_rows,
)


class WarmReplay(Workload):
    name = "warm_replay"
    setup_reps = 3
    latency_op = "disk_cost"

    def layer_values(self, rounds: OpTimes, setups: OpTimes) -> Dict[str, float]:
        return {
            **super().layer_values(rounds, setups),
            "sql.parse_bind_ms": rounds.median_ms("parse"),
            "logical.fingerprint_ms": rounds.median_ms("fingerprint"),
            "service.disk_hit_ms": rounds.median_ms("disk_cost"),
            "service.memory_hit_ms": rounds.median_ms("memory_cost"),
            "service.construct_ms": rounds.median_ms("service.construct"),
            "testing.correctness_run_s": rounds.group_sum_s("baseline_run"),
        }

    def setup(self, meter: Meter) -> None:
        obs = self.obs
        self.database = meter.op(
            "datagen.build", "datagen", tpch_database, seed=self.seed
        )
        self.registry = meter.op("rules.registry", "rules", default_registry)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        self.service = meter.op(
            "service.construct", "service", PlanService, self.database,
            registry=self.registry, cache_dir=self.cache_dir,
            tracer=obs.tracer, metrics=obs.metrics,
        )
        self.suite = meter.op(
            "generate", "testing", build_suite, self.database, self.registry,
            self.service, singleton_rule_nodes(self.registry),
        )
        oracle = CostOracle(self.database, self.registry, service=self.service)
        # Computes every edge of the graph: fills memory and writes disk.
        self.topk = meter.op(
            "fill_edge_costs", "testing", top_k_independent_plan,
            self.suite, oracle,
        )
        self.baseline = meter.op(
            "fill_baseline", "testing", baseline_plan, self.suite, oracle
        )
        self.runner = CorrectnessRunner(
            self.database, self.registry, service=self.service
        )
        meter.op("fill_run", "testing", self.runner.run,
                 self.baseline, self.suite)
        #: Every (query, rule node) edge of the graph, with the config that
        #: asks for its cost.
        self.edges = [
            (query, DEFAULT_CONFIG.with_disabled(node))
            for node in self.suite.rule_nodes
            for query in self.suite.queries_for(node)
        ]
        self.edge_costs = [
            self.service.cost(query.tree, config)
            for query, config in self.edges
        ]

    def round(self, meter: Meter) -> Dict[str, float]:
        database, registry, suite, obs = (
            self.database, self.registry, self.suite, self.obs
        )
        # (a) parse + bind + fingerprint of every suite query
        kept = 0
        for query in suite.queries:
            tree = meter.op("parse", "sql", sql_to_tree, query.sql,
                            database.catalog)
            if tree is None:
                continue
            fingerprint = meter.op("fingerprint", "logical", tree.fingerprint)
            kept += fingerprint == query.tree.fingerprint()

        # (b) a fresh service answers the graph from disk
        fresh = meter.op(
            "service.construct", "service", PlanService, database,
            registry=registry, cache_dir=self.cache_dir,
            tracer=obs.tracer, metrics=obs.metrics,
        )
        if fresh is None:
            return {}
        self._ask_every_edge(meter, "disk_cost", fresh)
        self._check_topk(meter, meter.op(
            "topk_disk", "testing", top_k_independent_plan, suite,
            CostOracle(database, registry, service=fresh),
        ))
        if fresh.counters.computed:
            meter.fail(f"fresh service ran the optimizer "
                       f"{fresh.counters.computed} times on a full cache")

        # (c) the long-lived service answers it from memory
        before = self.service.counters.as_dict()
        self._ask_every_edge(meter, "memory_cost", self.service)
        self._check_topk(meter, meter.op(
            "topk_memory", "testing", top_k_independent_plan, suite,
            CostOracle(database, registry, service=self.service),
        ))
        report = meter.op("baseline_run", "testing", self.runner.run,
                          self.baseline, suite)
        if report is not None and not report.passed:
            meter.fail(f"BASELINE replay: {(report.issues + report.errors)[0]}")
        after = self.service.counters.as_dict()

        # Both services together: disk hits are the fresh one's, memory
        # hits the long-lived one's.
        fresh_counters = fresh.counters.as_dict()
        counts = service_counts({
            key: fresh_counters[key] + after[key] - before[key]
            for key in after
        })
        counts["sql.roundtrip_fp_match_share"] = kept / suite.size
        return counts

    def _ask_every_edge(self, meter: Meter, op_name: str, service) -> None:
        for (query, config), expected in zip(self.edges, self.edge_costs):
            cost = meter.op(op_name, "service", service.cost, query.tree,
                            config)
            if cost != expected:
                meter.fail(f"{op_name}: query {query.query_id} cost {cost} "
                           f"is not the {expected} computed in set-up")

    def _check_topk(self, meter: Meter, plan) -> None:
        if plan is None:
            return
        if not plan.validates_each_rule_k_times(K):
            meter.fail("replayed TOPK: a rule node has fewer than k queries")
        if plan.assignments != self.topk.assignments:
            meter.fail("replayed TOPK selects other queries than set-up did")

    # ----------------------------------------------------------- inspection

    def pool(self) -> List:
        return [query.tree for query in self.suite.queries]

    def generated_sql(self) -> List[str]:
        return [query.sql for query in self.suite.queries]

    def digest_rows(self) -> List[DigestRow]:
        return suite_digest_rows(self.suite, self.topk)
