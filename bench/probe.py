"""The layer probe: the calls into the program that no round makes itself.

Part of the traced pass only.  A round times the calls the workload is
made of; each of those is a per-layer metric read from the round's own ops
(``Workload.layer_values``).  What is left is timed here, once, on the
workload's query pool: ``to_sql``, a cold ``optimize`` of ``Plan(q)`` and of
``Plan(q, not r)`` on a service the probe can attach a tracer to (the
campaigns optimise inside ``repro.testing``, out of a round's sight),
``with_replaced_rule``, ``PlanDiskCache.put``, ``data_fingerprint`` and the
sqlite3 backend, and the program's own counters are read.  No metric has
two producers: the names here and the names in ``layer_values`` are
disjoint (``bench/test_harness.py`` checks it).  Each call is an op of the
:class:`~bench.harness.Meter`, so its time is normalised like every other.
"""

from __future__ import annotations

import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from repro.backends.sqlite_backend import SqliteBackend
from repro.obs import MetricsRegistry, RecordingTracer
from repro.optimizer.config import DEFAULT_CONFIG
from repro.service import PlanDiskCache, PlanService
from repro.sql import to_sql
from repro.workloads import tpch_database

from bench.harness import Meter, median, percentile

#: Pool queries walked; the rest of the pool adds time, not information.
MAX_QUERIES = 24
REPEATS = 5

#: Per-layer metric -> the probe op it is the median milliseconds of.
MEDIAN_MS = {
    "sql.render_ms": "render",
    "optimizer.optimize_cold_ms": "optimize_cold",
    "optimizer.disabled_cold_ms": "optimize_disabled",
    "service.disk_put_ms": "disk_put",
    "storage.data_fingerprint_ms": "data_fingerprint",
    "rules.replace_rule_ms": "replace_rule",
    "backends.sqlite_setup_ms": "sqlite_setup",
    "backends.sqlite_execute_ms": "sqlite_execute",
}


def run_probe(workload, seed: int, workdir: Path, meter: Meter) -> Dict[str, float]:
    """Walk the pool; returns per-layer metric values (see BENCHMARK.json)."""
    out: Dict[str, float] = {}
    group = meter.run_group(
        "probe", lambda m: _walk(m, workload, seed, workdir, out)
    )
    ms: Dict[str, List[float]] = defaultdict(list)
    for op in group.ops:
        ms[op.name].append(op.norm_s * 1000.0)
    for metric, op_name in MEDIAN_MS.items():
        out[metric] = median(ms[op_name])
    out["optimizer.optimize_cold_p95_ms"] = percentile(ms["optimize_cold"], 0.95)
    return out


def _walk(meter: Meter, workload, seed, workdir, out: Dict[str, float]) -> None:
    database, registry = workload.database, workload.registry
    pool = workload.pool()[:MAX_QUERIES]
    exploration = set(registry.exploration_rule_names)
    tracer = RecordingTracer(capacity=1 << 16, detail="summary")
    metrics = MetricsRegistry()
    service = PlanService(database, registry=registry, tracer=tracer,
                          metrics=metrics)
    results = []
    for tree in pool:
        meter.op("render", "sql", to_sql, tree)
        result = meter.op("optimize_cold", "optimizer", service.optimize, tree)
        if result is None:
            continue  # already a failed op
        results.append(result)
        for rule in sorted(result.rules_exercised & exploration)[:1]:
            meter.op(
                "optimize_disabled", "optimizer", service.optimize,
                tree, DEFAULT_CONFIG.with_disabled((rule,)),
            )

    # Counts per optimisation, from the program's own records.
    spans: Dict[str, int] = defaultdict(int)
    for event in tracer.events:
        spans[event.name] += event.dur_us
    computed = spans["service.compute"] or 1
    considered = [sum(c.considered for c in r.rule_counters) for r in results]
    fired = [sum(c.fired for c in r.rule_counters) for r in results]
    out.update({
        "logical.tree_nodes": median([tree.tree_size() for tree in pool]),
        "optimizer.explore_share": spans["optimize.explore"] / computed,
        "optimizer.implement_share": spans["optimize.implement"] / computed,
        "optimizer.memo_groups": median([r.stats.group_count for r in results]),
        "optimizer.memo_exprs": median([r.stats.expr_count for r in results]),
        "optimizer.rule_considered": median(considered),
        "optimizer.rule_fired": median(fired),
        "optimizer.rule_yield": sum(fired) / (sum(considered) or 1),
        "optimizer.budget_exhausted": sum(
            r.stats.budget_exhausted for r in results),
        "physical.costings": (
            metrics.counter_value("optimizer.costings")
            / (metrics.counter_value("optimizer.optimizations") or 1)),
    })

    # The execution-result cache: the same batch twice, the second all hits.
    requests = [(r.plan, r.output_columns) for r in results]
    service.execute_many(requests)
    service.execute_many(requests)
    out["engine.exec_cache_hit_share"] = (
        metrics.counter_value("exec.cache_hits") / (2 * len(requests)))
    out["engine.scan_cache_hits"] = metrics.counter_value("exec.scan_cache_hits")

    for name in registry.exploration_rule_names[:REPEATS]:
        meter.op("replace_rule", "rules", registry.with_replaced_rule,
                 registry.rule(name))
    # put() alone, on a record of the shape the service writes
    disk = PlanDiskCache(
        Path(tempfile.mkdtemp(prefix="probe-", dir=workdir)),
        "probe-environment",
    )
    record = {
        "cost": 1.0, "error": None,
        "rules_exercised": sorted(registry.exploration_rule_names[:8]),
    }
    for index in range(len(pool)):
        meter.op("disk_put", "service", disk.put, f"key{index}", record)
    _walk_scratch_database(meter, seed, pool)


def _walk_scratch_database(meter, seed, pool) -> None:
    """``data_fingerprint`` and the sqlite3 backend, on a scale-1 database.

    Scale 1 whatever the workload's own scale: sqlite3 without indexes takes
    5 s per correlated subquery on 60,000 line items.  The pool's trees bind
    to the catalog, which every scale shares.
    """
    scratch = tpch_database(seed=seed)
    for _ in range(REPEATS):
        meter.op("data_fingerprint", "storage", scratch.data_fingerprint)

    backend = SqliteBackend()
    meter.op("sqlite_setup", "backends", backend.setup, scratch)
    try:
        for index, tree in enumerate(pool):
            run = meter.op("sqlite_execute", "backends", backend.run,
                           index, tree)
            if run is not None and run.error:
                meter.fail(f"probe: sqlite3 on pool query {index}: {run.error}")
    finally:
        backend.close()
