"""The plan service: all Plan/Cost traffic flows through here.

Every layer of the framework -- suite construction, compression,
correctness runs, query generation, the analyzer smoke checks, the CLI and
the benchmarks -- needs ``Plan(q)`` / ``Cost(q, ¬R)`` answers.  Instead of
each layer hand-rolling its own :class:`Optimizer`, a single
:class:`PlanService` serves those requests:

* **Memoization.**  Results are cached in-process under
  ``(tree.fingerprint(), config)``; structurally equal trees share one
  optimization even when their column bindings differ.
* **Persistence.**  With a ``cache_dir``, cost/metadata records survive
  across runs, keyed by an environment fingerprint over the rule registry,
  catalog DDL and table statistics (see :mod:`repro.service.cache`).  Plans
  are recomputed per process; costs and rule sets are served from disk.
* **Parallelism.**  :meth:`optimize_many` fans a batch over a
  ``ProcessPoolExecutor`` (``workers > 1``) with deterministic result
  ordering, deduplicating identical requests within the batch first.

Construction of :class:`Optimizer` instances is an implementation detail of
this module; no other package should instantiate one directly.
"""

from __future__ import annotations

import hashlib
import pickle
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.catalog.schema import Catalog
from repro.catalog.stats import StatsRepository
from repro.logical.operators import LogicalOp
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.optimizer.config import DEFAULT_CONFIG, OptimizerConfig
from repro.optimizer.engine import Optimizer
from repro.optimizer.result import OptimizationError, OptimizeResult
from repro.rules.registry import RuleRegistry, default_registry
from repro.service import worker as _worker
from repro.service.cache import PlanDiskCache, environment_fingerprint
from repro.storage.database import Database

#: One request: a bare tree (service default config) or (tree, config).
PlanRequest = Union[LogicalOp, Tuple[LogicalOp, Optional[OptimizerConfig]]]

_CacheKey = Tuple[str, OptimizerConfig]


@dataclass
class ServiceStats:
    """Cache/traffic counters for one :class:`PlanService`.

    ``requests`` counts every optimize/cost request (including batch
    members); ``computed`` counts actual optimizer runs.  The difference is
    absorbed by the two hit counters and by within-batch deduplication.
    """

    requests: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    computed: int = 0
    errors: int = 0
    batches: int = 0
    parallel_tasks: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "hits": self.hits,
            "computed": self.computed,
            "errors": self.errors,
            "batches": self.batches,
            "parallel_tasks": self.parallel_tasks,
        }


@dataclass
class _Entry:
    """One memoized outcome: a full result or a remembered failure."""

    result: Optional[OptimizeResult] = None
    error: Optional[str] = None

    @property
    def cost(self) -> float:
        return self.result.cost if self.result is not None else float("inf")


@dataclass
class _Pending:
    """Bookkeeping for one deduplicated computation inside a batch."""

    tree: LogicalOp
    config: OptimizerConfig
    indices: List[int] = field(default_factory=list)


class PlanService:
    """Fingerprint-cached, optionally parallel Plan/Cost server."""

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        catalog: Optional[Catalog] = None,
        stats: Optional[StatsRepository] = None,
        registry: Optional[RuleRegistry] = None,
        config: OptimizerConfig = DEFAULT_CONFIG,
        workers: int = 1,
        cache_dir: Optional[Path] = None,
        memory_cache: bool = True,
        memory_limit: Optional[int] = 20_000,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if database is not None:
            catalog = catalog or database.catalog
            stats = stats or database.stats_repository()
        if catalog is None or stats is None:
            raise ValueError(
                "PlanService needs a database, or a catalog plus stats"
            )
        #: The database this service was constructed over, when one was
        #: given.  Planning itself only needs catalog + stats; the handle
        #: lets execution-layer clients (the differential backend fleet,
        #: the CLI) recover the rows behind the plans they request.
        self.database = database
        self.catalog = catalog
        self.stats = stats
        self.registry = registry or default_registry()
        self.config = config
        self.workers = max(1, int(workers))
        self.counters = ServiceStats()
        #: Observability hooks (see :mod:`repro.obs`): the tracer records
        #: cache/compute events and is handed to every Optimizer this
        #: service constructs; the metrics registry mirrors
        #: :class:`ServiceStats` as ``service.*`` counters and aggregates
        #: per-rule optimizer counters, including worker-process merges.
        self.tracer = tracer
        self.metrics = metrics
        #: Resolved Counter handles, so the per-request path validates
        #: each ``service.*`` series name once (see ``_bump``).
        self._metric_counters: Dict[str, object] = {}
        self._memory_cache_enabled = memory_cache
        #: FIFO bound on in-process entries; one-shot trees from generation
        #: campaigns age out first, long before the reusable suite traffic.
        self.memory_limit = memory_limit
        self._entries: Dict[_CacheKey, _Entry] = {}
        self._cost_records: Dict[_CacheKey, Dict] = {}
        self._optimizers: Dict[OptimizerConfig, Optimizer] = {}
        #: Cross-batch execution results, keyed by (plan signature,
        #: projection cids, database fingerprint); see execute_many.
        self._exec_cache: Dict[Tuple, object] = {}
        self._exec_cache_limit = 10_000
        if cache_dir is not None:
            env = environment_fingerprint(catalog, stats, self.registry)
            self._disk: Optional[PlanDiskCache] = PlanDiskCache(
                Path(cache_dir), env
            )
        else:
            self._disk = None

    # ------------------------------------------------------------- plumbing

    def _bump(self, name: str) -> None:
        """Increment one :class:`ServiceStats` field and its metric twin."""
        setattr(self.counters, name, getattr(self.counters, name) + 1)
        if self.metrics is not None:
            counter = self._metric_counters.get(name)
            if counter is None:
                counter = self._metric_counters[name] = self.metrics.counter(
                    f"service.{name}"
                )
            counter.inc()

    def _resolve_config(self, config: Optional[OptimizerConfig]) -> OptimizerConfig:
        return self.config if config is None else config

    def _key(self, tree: LogicalOp, config: OptimizerConfig) -> _CacheKey:
        return (tree.fingerprint(), config)

    def _disk_key(self, key: _CacheKey) -> str:
        fingerprint, config = key
        payload = f"{fingerprint}|{config.cache_token()}".encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def _optimizer(self, config: OptimizerConfig) -> Optimizer:
        optimizer = self._optimizers.get(config)
        if optimizer is None:
            optimizer = Optimizer(
                self.catalog, self.stats, self.registry, config,
                tracer=self.tracer, metrics=self.metrics,
            )
            self._optimizers[config] = optimizer
        return optimizer

    def _record_for(self, key: _CacheKey, entry: _Entry) -> Dict:
        fingerprint, config = key
        record = {
            "fingerprint": fingerprint,
            "config": config.cache_token(),
            "error": entry.error,
        }
        if entry.result is not None:
            result = entry.result
            record.update(
                cost=result.cost,
                rules_exercised=sorted(result.rules_exercised),
                rule_interactions=[
                    list(pair) for pair in sorted(result.rule_interactions)
                ],
                memo_stats={
                    "group_count": result.stats.group_count,
                    "expr_count": result.stats.expr_count,
                    "rule_applications": result.stats.rule_applications,
                    "budget_exhausted": result.stats.budget_exhausted,
                },
            )
        return record

    def _store(self, key: _CacheKey, entry: _Entry) -> None:
        if self._memory_cache_enabled:
            if (
                self.memory_limit is not None
                and len(self._entries) >= self.memory_limit
            ):
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = entry
        if self._disk is not None:
            self._disk.put(self._disk_key(key), self._record_for(key, entry))

    def _compute(self, tree: LogicalOp, config: OptimizerConfig) -> _Entry:
        self._bump("computed")
        with self.tracer.span("service.compute", cat="service"):
            try:
                return _Entry(result=self._optimizer(config).optimize(tree))
            except OptimizationError as exc:
                self._bump("errors")
                return _Entry(error=str(exc))

    # ------------------------------------------------------------- requests

    def optimize(
        self, tree: LogicalOp, config: Optional[OptimizerConfig] = None
    ) -> OptimizeResult:
        """``Plan(q)`` / ``Plan(q, ¬R)``: the full optimization result.

        Raises :class:`OptimizationError` when no plan exists (failures are
        memoized too, so repeated requests do not re-search).
        """
        config = self._resolve_config(config)
        key = self._key(tree, config)
        self._bump("requests")
        entry = self._entries.get(key)
        if entry is not None:
            self._bump("memory_hits")
            if self.tracer.enabled:
                self.tracer.event(
                    "service.cache", cat="service",
                    outcome="memory_hit", request="optimize",
                )
        else:
            if self.tracer.enabled:
                self.tracer.event(
                    "service.cache", cat="service",
                    outcome="miss", request="optimize",
                )
            entry = self._compute(tree, config)
            self._store(key, entry)
        if entry.result is None:
            raise OptimizationError(entry.error or "optimization failed")
        return entry.result

    def cost(
        self, tree: LogicalOp, config: Optional[OptimizerConfig] = None
    ) -> float:
        """``Cost(q, ¬R)``; ``inf`` when no plan exists.

        Unlike :meth:`optimize` this can be answered from the persistent
        disk cache, because it needs no plan object.
        """
        config = self._resolve_config(config)
        key = self._key(tree, config)
        self._bump("requests")
        entry = self._entries.get(key)
        if entry is not None:
            self._bump("memory_hits")
            if self.tracer.enabled:
                self.tracer.event(
                    "service.cache", cat="service",
                    outcome="memory_hit", request="cost",
                )
            return entry.cost
        record = self._lookup_record(key)
        if record is not None:
            self._bump("disk_hits")
            if self.tracer.enabled:
                self.tracer.event(
                    "service.cache", cat="service",
                    outcome="disk_hit", request="cost",
                )
            return self._record_cost(record)
        if self.tracer.enabled:
            self.tracer.event(
                "service.cache", cat="service",
                outcome="miss", request="cost",
            )
        entry = self._compute(tree, config)
        self._store(key, entry)
        return entry.cost

    def _lookup_record(self, key: _CacheKey) -> Optional[Dict]:
        record = self._cost_records.get(key)
        if record is not None:
            return record
        if self._disk is None:
            return None
        record = self._disk.get(self._disk_key(key))
        if record is not None and self._memory_cache_enabled:
            self._cost_records[key] = record
        return record

    @staticmethod
    def _record_cost(record: Dict) -> float:
        if record.get("error") is not None:
            return float("inf")
        return float(record["cost"])

    # -------------------------------------------------------------- batches

    def optimize_many(
        self,
        requests: Sequence[PlanRequest],
        return_errors: bool = False,
    ) -> List[Union[OptimizeResult, OptimizationError]]:
        """Optimize a batch with deterministic result ordering.

        Identical ``(fingerprint, config)`` requests within the batch are
        computed once; with ``workers > 1`` the distinct computations fan
        out over a process pool.  With ``return_errors`` failed requests
        yield their :class:`OptimizationError` in place; otherwise the
        first failure raises after the batch completes.
        """
        normalized: List[Tuple[LogicalOp, OptimizerConfig]] = []
        for request in requests:
            if isinstance(request, LogicalOp):
                normalized.append((request, self.config))
            else:
                tree, config = request
                normalized.append((tree, self._resolve_config(config)))

        outcomes: List[Optional[_Entry]] = [None] * len(normalized)
        pending: Dict[_CacheKey, _Pending] = {}
        for index, (tree, config) in enumerate(normalized):
            key = self._key(tree, config)
            self._bump("requests")
            entry = self._entries.get(key)
            if entry is not None:
                self._bump("memory_hits")
                outcomes[index] = entry
                continue
            slot = pending.get(key)
            if slot is None:
                slot = _Pending(tree=tree, config=config)
                pending[key] = slot
            slot.indices.append(index)

        if pending:
            self._bump("batches")
            if self.tracer.enabled:
                self.tracer.event(
                    "service.batch", cat="service",
                    requests=len(normalized), distinct=len(pending),
                    hits=len(normalized) - sum(
                        len(slot.indices) for slot in pending.values()
                    ),
                )
            with self.tracer.span("service.batch_compute", cat="service"):
                computed = self._compute_batch(pending)
            for key, entry in computed.items():
                self._store(key, entry)
                for index in pending[key].indices:
                    outcomes[index] = entry

        results: List[Union[OptimizeResult, OptimizationError]] = []
        for entry in outcomes:
            assert entry is not None
            if entry.result is not None:
                results.append(entry.result)
            else:
                error = OptimizationError(entry.error or "optimization failed")
                if not return_errors:
                    raise error
                results.append(error)
        return results

    def cost_many(self, requests: Sequence[PlanRequest]) -> List[float]:
        """Batch form of :meth:`cost` (disk-cache aware, ``inf`` on failure)."""
        normalized: List[Tuple[LogicalOp, Optional[OptimizerConfig]]] = []
        for request in requests:
            if isinstance(request, LogicalOp):
                normalized.append((request, None))
            else:
                normalized.append(request)

        costs: List[Optional[float]] = [None] * len(normalized)
        missing: List[int] = []
        for index, (tree, config) in enumerate(normalized):
            resolved = self._resolve_config(config)
            key = self._key(tree, resolved)
            entry = self._entries.get(key)
            if entry is not None:
                self._bump("requests")
                self._bump("memory_hits")
                costs[index] = entry.cost
                continue
            record = self._lookup_record(key)
            if record is not None:
                self._bump("requests")
                self._bump("disk_hits")
                costs[index] = self._record_cost(record)
                continue
            missing.append(index)

        if missing:
            batch = [normalized[index] for index in missing]
            outcomes = self.optimize_many(batch, return_errors=True)
            for index, outcome in zip(missing, outcomes):
                if isinstance(outcome, OptimizationError):
                    costs[index] = float("inf")
                else:
                    costs[index] = outcome.cost
        return [float(cost) for cost in costs]  # every slot is filled above

    # ------------------------------------------------------- plan execution

    def execute_many(
        self,
        requests: Sequence[Tuple[object, Optional[Tuple]]],
        *,
        database: Optional[Database] = None,
    ) -> List["BatchItem"]:
        """Execute physical plans batched, with a cross-batch result cache.

        ``requests`` is a sequence of ``(physical plan, output columns)``
        pairs; returns one :class:`repro.engine.batch.BatchItem` per
        request, in order.  On top of the within-batch coalescing done by
        :func:`repro.engine.batch.execute_many`, results are cached
        across calls keyed by ``(plan signature, projection, database
        fingerprint)``, so campaign loops that re-execute the same
        baseline plan per mutant pay for it once (``exec.cache_hits``).
        The database fingerprint in the key invalidates stale entries
        the moment any table is mutated.
        """
        from repro.engine.batch import BatchItem, execute_many
        from repro.physical.operators import plan_signature

        database = database or self.database
        if database is None:
            raise ValueError(
                "PlanService.execute_many needs a database "
                "(pass one here or at construction)"
            )
        db_token = database.data_fingerprint()

        items: List[Optional[BatchItem]] = [None] * len(requests)
        misses: List[int] = []
        miss_requests: List[Tuple[object, Optional[Tuple]]] = []
        miss_keys: List[Tuple] = []
        hits = 0
        for index, (plan, outputs) in enumerate(requests):
            out_key = (
                tuple(c.cid for c in outputs) if outputs is not None else None
            )
            key = (plan_signature(plan), out_key, db_token)
            cached = self._exec_cache.get(key)
            if cached is not None:
                items[index] = BatchItem(
                    result=cached.result, error=cached.error, coalesced=True
                )
                hits += 1
            else:
                misses.append(index)
                miss_requests.append((plan, outputs))
                miss_keys.append(key)
        if hits and self.metrics is not None:
            self.metrics.counter("exec.cache_hits").inc(hits)

        if misses:
            executed = execute_many(
                miss_requests,
                database,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            for index, key, item in zip(misses, miss_keys, executed):
                items[index] = item
                if key not in self._exec_cache:
                    self._exec_cache[key] = item
            # FIFO bound: one-shot plans age out first.
            limit = self._exec_cache_limit
            while len(self._exec_cache) > limit:
                self._exec_cache.pop(next(iter(self._exec_cache)))
        return items

    # ------------------------------------------------------- pool execution

    def _compute_batch(
        self, pending: Dict[_CacheKey, _Pending]
    ) -> Dict[_CacheKey, _Entry]:
        tasks = list(pending.items())
        if self.workers > 1 and len(tasks) > 1:
            parallel = self._compute_parallel(tasks)
            if parallel is not None:
                return parallel
        computed: Dict[_CacheKey, _Entry] = {}
        for key, slot in tasks:
            computed[key] = self._compute(slot.tree, slot.config)
        return computed

    def _compute_parallel(
        self, tasks: List[Tuple[_CacheKey, _Pending]]
    ) -> Optional[Dict[_CacheKey, _Entry]]:
        """Fan ``tasks`` over a process pool; ``None`` falls back to serial
        (e.g. unpicklable environment or a sandbox without subprocesses)."""
        from concurrent.futures import ProcessPoolExecutor

        try:
            payload = pickle.dumps((self.catalog, self.stats, self.registry))
        except Exception as exc:  # pragma: no cover - defensive
            warnings.warn(f"plan service: environment not picklable ({exc}); "
                          "running batch serially", stacklevel=2)
            return None
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(tasks)),
                initializer=_worker.init_worker,
                initargs=(payload, self.metrics is not None),
            ) as pool:
                indexed = [
                    (position, slot.tree, slot.config)
                    for position, (_, slot) in enumerate(tasks)
                ]
                computed: Dict[_CacheKey, _Entry] = {}
                for position, result, error, metric_delta in pool.map(
                    _worker.optimize_task, indexed
                ):
                    key = tasks[position][0]
                    self._bump("computed")
                    self._bump("parallel_tasks")
                    if metric_delta is not None and self.metrics is not None:
                        # Fold this task's optimizer counters (measured in
                        # the worker process) into the parent registry.
                        self.metrics.merge(metric_delta)
                        self.metrics.counter("service.worker_merges").inc()
                    if error is not None:
                        self._bump("errors")
                        computed[key] = _Entry(error=error)
                    else:
                        computed[key] = _Entry(result=result)
                return computed
        except Exception as exc:  # pragma: no cover - defensive
            warnings.warn(
                f"plan service: process pool failed ({exc}); "
                "running batch serially",
                stacklevel=2,
            )
            return None
