"""The plan service: all Plan/Cost traffic flows through here.

Every layer of the framework -- suite construction, compression,
correctness runs, query generation, the analyzer smoke checks, the CLI and
the benchmarks -- needs ``Plan(q)`` / ``Cost(q, ¬R)`` answers.  Instead of
each layer hand-rolling its own :class:`Optimizer`, a single
:class:`PlanService` serves those requests:

* **Memoization.**  Results are cached in-process under
  ``(tree.fingerprint(), config)``; structurally equal trees share one
  optimization even when their column bindings differ.  The service keeps
  results under the fingerprint; the fingerprint itself is kept on the
  tree (:meth:`LogicalOp.fingerprint`), so a hit hashes nothing twice.
* **Persistence.**  With a ``cache_dir``, cost/metadata records survive
  across runs in one append-only log per environment fingerprint (over the
  rule registry, catalog DDL and table statistics; see
  :mod:`repro.service.cache`), read once into an index of
  ``(fingerprint, config token)``: a disk hit is a dict lookup.  Plans are
  recomputed per process; costs are served from disk.
* **Parallelism.**  A batch (:meth:`optimize_many`, :meth:`cost_many`)
  deduplicates identical requests, then fans its distinct misses over
  forked workers (``workers`` of them at most; by default the usable
  CPUs) that the service keeps for its life (see
  :mod:`repro.service.worker`); results come back in request order.  A
  traced service computes in its own process, so its trace holds every
  optimization.  :meth:`PlanService.close` (or leaving a ``with`` block)
  stops the workers; a service dropped without it stops them when it is
  collected.

Every request, scalar or batched, climbs the same ladder: a memory entry,
then (when no plan object is needed) a cost record from disk, then (for a
cost request with rules disabled) the lineage of ``Plan(q)``, then the
optimizer -- singly or through the pool.  The lineage rung answers
``Cost(q, ¬D)`` with ``Cost(q)`` when memory holds the full result of the
same tree with nothing disabled, that search was not cut, and no rule of
``D`` is in its ``plan_support``: the winning plan was built without
``D``, so the restricted search reaches it too, and no substitution
leaned on ``D`` only through an expression it landed on, so that search
forms no group the full one lacked (see :mod:`repro.optimizer.memo`).
Plan requests never take that rung, so every ``Plan(q, ¬R)`` is still
the optimizer's.  A generation trial
(:meth:`PlanService.optimize_exercising`) climbs it too, and lets the
optimizer stop after exploration when the answer is already *no*.
:meth:`PlanService._cached` is the one place that counts requests and hits
and emits ``service.cache``; :meth:`PlanService._computed` the one place
that counts, stores and evicts a computed outcome.

Construction of :class:`Optimizer` instances is an implementation detail of
this module; no other package should instantiate one directly.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

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
_Task = Tuple[LogicalOp, OptimizerConfig]

#: FIFO bounds on the two in-process stores (plan/cost entries, execution
#: results): one-shot trees and plans from generation campaigns age out
#: first, long before the reusable suite traffic.
MEMORY_LIMIT = 20_000
EXEC_CACHE_LIMIT = 10_000


@dataclass
class ServiceStats:
    """Cache/traffic counters for one :class:`PlanService`.

    ``requests`` counts every optimize/cost request (including batch
    members); ``computed`` counts actual optimizer runs.  The difference is
    absorbed by the two hit counters, by the cost requests the lineage
    rung answered (``lineage_hits``, not counted as hits) and by
    within-batch deduplication.
    """

    requests: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    lineage_hits: int = 0
    computed: int = 0
    errors: int = 0
    batches: int = 0
    parallel_tasks: int = 0
    pool_fallbacks: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "hits": self.hits,
            "lineage_hits": self.lineage_hits,
            "computed": self.computed,
            "errors": self.errors,
            "batches": self.batches,
            "parallel_tasks": self.parallel_tasks,
            "pool_fallbacks": self.pool_fallbacks,
        }


@dataclass
class _Entry:
    """One memoized outcome: a full result, a remembered failure, a
    cost-only answer read back from disk or off ``Plan(q)``'s lineage
    (neither ``result`` nor ``error``), which answers ``cost`` but not
    ``optimize``, or a RuleSet-only answer
    (``unexercised``) left by a generation trial that produced no plan,
    which answers neither."""

    result: Optional[OptimizeResult] = None
    error: Optional[str] = None
    cost: float = float("inf")
    #: Rules a trial asked for and ``RuleSet(q)`` does not all contain.
    unexercised: Optional[FrozenSet[str]] = None

    def answers(self, need_plan: bool, targets: FrozenSet[str]) -> bool:
        """Whether this entry settles a request: one for a plan or just a
        cost, or (non-empty ``targets``) a trial asking whether all of
        ``targets`` are exercised."""
        if self.unexercised is not None:
            # Still a *no* for any trial that asks for at least these rules
            # (never empty, so a plan or cost request is not answered).
            return self.unexercised <= targets
        return (
            not need_plan
            or self.result is not None
            or self.error is not None
        )

    def failure(self) -> OptimizationError:
        return OptimizationError(self.error or "optimization failed")


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
        workers: Optional[int] = None,
        cache_dir: Optional[Path] = None,
        memory_cache: bool = True,
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
        #: Worker processes a batch may fan over; ``None`` means the usable
        #: CPUs, and 1 computes every batch in this process.
        self.workers = (
            _worker.usable_cpus() if workers is None else max(1, int(workers))
        )
        self._pool: Optional[_worker.WorkerPool] = None
        self._reaper: Optional[weakref.finalize] = None
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
        #: Plan/cost answers, FIFO-bounded by ``MEMORY_LIMIT``.
        self._entries: Dict[_CacheKey, _Entry] = {}
        self._optimizers: Dict[OptimizerConfig, Optimizer] = {}
        #: Execution results, keyed by (plan signature, projection cids,
        #: database fingerprint) and FIFO-bounded by ``EXEC_CACHE_LIMIT``;
        #: see execute_many.
        self._exec_cache: Dict[Tuple, "BatchItem"] = {}
        if cache_dir is not None:
            env = environment_fingerprint(catalog, stats, self.registry)
            self._disk: Optional[PlanDiskCache] = PlanDiskCache(
                Path(cache_dir), env, tracer=tracer
            )
        else:
            self._disk = None
        #: ``config.cache_token()`` per config, the disk index's key half.
        self._tokens: Dict[OptimizerConfig, str] = {}

    # ------------------------------------------------------------- lifetime

    def close(self) -> None:
        """Stop the worker pool, if one was started.  The service stays
        usable: a later batch starts a new pool."""
        if self._reaper is not None:
            self._reaper()  # runs pool.close once, and detaches
        self._pool = self._reaper = None

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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

    def _log_key(self, key: _CacheKey) -> Tuple[str, str]:
        """The disk index's key: the fingerprint and the config's token
        (its text form, which, unlike its ``hash``, outlives the process)."""
        fingerprint, config = key
        token = self._tokens.get(config)
        if token is None:
            token = self._tokens[config] = config.cache_token()
        return fingerprint, token

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
        """What a later run reads back: the key and the cost or error."""
        fingerprint, token = self._log_key(key)
        record = {"fingerprint": fingerprint, "config": token}
        if entry.error is None:
            record["cost"] = entry.cost
        else:
            record["error"] = entry.error
        return record

    # ----------------------------------------------------- the request ladder

    def _cached(
        self,
        key: _CacheKey,
        need_plan: bool,
        request: str,
        targets: FrozenSet[str] = frozenset(),
    ) -> Optional[_Entry]:
        """The cached rungs, climbed by every request of every entry point:
        the memory entry, then -- plans are never persisted, so only when
        no plan object is needed -- the cost record on disk, then for a
        cost request with rules disabled the lineage of the undisabled
        result.  ``None`` is a miss; the caller computes, singly or as part
        of a batch."""
        self._bump("requests")
        entry = self._entries.get(key)
        refused = None
        if entry is not None and entry.answers(need_plan, targets):
            outcome = "memory_hit"
            self._bump("memory_hits")
        elif need_plan:
            entry, outcome = None, "miss"
        elif (entry := self._read_disk(key)) is not None:
            outcome = "disk_hit"
            self._bump("disk_hits")
            self._remember(key, entry)
        elif not key[1].disabled_rules:
            outcome = "miss"
        else:
            entry, refused = self._from_lineage(key)
            outcome = "miss" if entry is None else "lineage_hit"
        if self.tracer.enabled:
            fields = {"lineage": refused} if refused is not None else {}
            self.tracer.event(
                "service.cache", cat="service",
                outcome=outcome, request=request, **fields,
            )
        return entry

    def _from_lineage(
        self, key: _CacheKey
    ) -> Tuple[Optional[_Entry], Optional[str]]:
        """The lineage rung of cost request ``key``: ``Cost(q)`` as
        ``Cost(q, ¬D)`` (remembered, and persisted like a computed cost),
        or ``None`` and why not -- ``no_base`` (no full undisabled result
        in memory), ``base_cut:<cap>`` (that search was cut, so its plan
        may be beaten by a restricted search) or ``in_support:<rule>`` (the
        cost rests on a disabled rule)."""
        fingerprint, config = key
        disabled = config.disabled_rules
        base = self._entries.get(
            (fingerprint, config.replaced(disabled_rules=frozenset()))
        )
        result = None if base is None else base.result
        if result is None:
            return None, "no_base"
        if result.stats.budget_exhausted:
            return None, f"base_cut:{result.stats.cut}"
        if not disabled.isdisjoint(result.plan_support):
            return None, f"in_support:{min(disabled & result.plan_support)}"
        self._bump("lineage_hits")
        entry = _Entry(cost=result.cost)
        self._keep(key, entry)
        return entry, None

    def _read_disk(self, key: _CacheKey) -> Optional[_Entry]:
        if self._disk is None:
            return None
        answer = self._disk.get(self._log_key(key))
        if answer is None:
            return None
        if isinstance(answer, str):
            return _Entry(error=answer)
        return _Entry(cost=answer)

    def _remember(self, key: _CacheKey, entry: _Entry) -> None:
        if not self._memory_cache_enabled:
            return
        if len(self._entries) >= MEMORY_LIMIT:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = entry

    def _compute(
        self,
        key: _CacheKey,
        tree: LogicalOp,
        config: OptimizerConfig,
        targets: FrozenSet[str] = frozenset(),
    ) -> _Entry:
        """The last rung, in this process: run the optimizer."""
        with self.tracer.span("service.compute", cat="service"):
            try:
                result = self._optimizer(config).optimize_exercising(
                    tree, targets
                )
                error = None
            except OptimizationError as exc:
                result, error = None, str(exc)
        return self._computed(key, result, error, targets)

    def _computed(
        self,
        key: _CacheKey,
        result: Optional[OptimizeResult],
        error: Optional[str],
        targets: FrozenSet[str] = frozenset(),
    ) -> _Entry:
        """Count and store one optimizer outcome, computed here or by a
        pool worker; failures are remembered too, so repeated requests do
        not re-search.  A trial that ended without a plan (neither result
        nor error) is one optimizer invocation like any other, remembered
        in memory only: there is no cost to persist."""
        self._bump("computed")
        if error is not None:
            self._bump("errors")
            entry = _Entry(error=error)
        elif result is None:
            entry = _Entry(unexercised=targets)
        else:
            entry = _Entry(result=result, cost=result.cost)
        self._keep(key, entry)
        return entry

    def _keep(self, key: _CacheKey, entry: _Entry) -> None:
        """Remember ``entry``, and persist it unless it is RuleSet-only."""
        self._remember(key, entry)
        if self._disk is not None and entry.unexercised is None:
            self._disk.put(self._log_key(key), self._record_for(key, entry))

    def _serve(
        self, requests: Sequence[PlanRequest], need_plan: bool, request: str
    ) -> List[_Entry]:
        """The ladder over a batch: one entry per request, in order.

        Identical ``(fingerprint, config)`` misses are computed once; with
        ``workers > 1`` the distinct computations of an untraced service
        fan out over its worker pool."""
        entries: List[Optional[_Entry]] = [None] * len(requests)
        pending: Dict[_CacheKey, _Task] = {}  # distinct misses
        waiting: Dict[_CacheKey, List[int]] = {}  # the requests behind each
        for index, item in enumerate(requests):
            tree, config = (
                (item, None) if isinstance(item, LogicalOp) else item
            )
            config = self._resolve_config(config)
            key = self._key(tree, config)
            entry = self._cached(key, need_plan, request)
            if entry is None:
                pending[key] = (tree, config)
                waiting.setdefault(key, []).append(index)
            entries[index] = entry

        if pending:
            self._bump("batches")
            if self.tracer.enabled:
                self.tracer.event(
                    "service.batch", cat="service",
                    requests=len(requests), distinct=len(pending),
                    hits=len(requests) - sum(map(len, waiting.values())),
                )
            with self.tracer.span("service.batch_compute", cat="service"):
                computed = self._compute_batch(pending)
            for key, entry in computed.items():
                for index in waiting[key]:
                    entries[index] = entry
        return entries  # every slot is filled above

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
        entry = self._cached(key, True, "optimize") or self._compute(
            key, tree, config
        )
        if entry.result is None:
            raise entry.failure()
        return entry.result

    def optimize_exercising(
        self,
        tree: LogicalOp,
        targets: Sequence[str],
        config: Optional[OptimizerConfig] = None,
    ) -> Optional[OptimizeResult]:
        """One generation trial: :meth:`optimize`'s result when every rule
        in ``targets`` is in ``RuleSet(q)``, else ``None``.

        A *no* costs an exploration, not an optimization: the optimizer
        stops before implementation once a target is known unexercised.
        That answer is remembered for repeated trials of the same tree but
        holds no plan or cost, so a later :meth:`optimize` or :meth:`cost`
        of the tree computes in full.
        """
        config = self._resolve_config(config)
        key = self._key(tree, config)
        wanted = frozenset(targets)
        entry = self._cached(key, True, "optimize_exercising", wanted)
        if entry is None:
            entry = self._compute(key, tree, config, wanted)
        if entry.error is not None:
            raise entry.failure()
        result = entry.result
        if result is not None and result.exercised_all(wanted):
            return result
        return None

    def cost(
        self, tree: LogicalOp, config: Optional[OptimizerConfig] = None
    ) -> float:
        """``Cost(q, ¬R)``; ``inf`` when no plan exists.

        Unlike :meth:`optimize` this can be answered from the persistent
        disk cache, because it needs no plan object.
        """
        config = self._resolve_config(config)
        key = self._key(tree, config)
        entry = self._cached(key, False, "cost") or self._compute(
            key, tree, config
        )
        return entry.cost

    def optimize_many(
        self,
        requests: Sequence[PlanRequest],
        return_errors: bool = False,
    ) -> List[Union[OptimizeResult, OptimizationError]]:
        """Batch form of :meth:`optimize`, results in request order.

        With ``return_errors`` failed requests yield their
        :class:`OptimizationError` in place; otherwise the first failure
        raises after the batch completes.
        """
        results: List[Union[OptimizeResult, OptimizationError]] = []
        for entry in self._serve(requests, True, "optimize"):
            if entry.result is not None:
                results.append(entry.result)
            elif return_errors:
                results.append(entry.failure())
            else:
                raise entry.failure()
        return results

    def cost_many(self, requests: Sequence[PlanRequest]) -> List[float]:
        """Batch form of :meth:`cost` (disk-cache aware, ``inf`` on failure)."""
        return [entry.cost for entry in self._serve(requests, False, "cost")]

    # ------------------------------------------------------- plan execution

    def execute_many(
        self,
        requests: Sequence[Tuple[object, Optional[Tuple]]],
        *,
        database: Optional[Database] = None,
    ) -> List["BatchItem"]:
        """Execute physical plans, each distinct one once.

        ``requests`` is a sequence of ``(physical plan, output columns)``
        pairs; returns one :class:`repro.engine.batch.BatchItem` per
        request, in order.  Results are cached under ``(plan signature,
        projection, database fingerprint)``: a key first seen in this call
        executes, every later occurrence is served the same
        :class:`~repro.engine.results.QueryResult` (and its cached bag
        digest) -- counted as ``exec.coalesced`` within the call and as
        ``exec.cache_hits`` in a later one, so campaign loops that
        re-execute the same baseline plan per mutant pay for it once.  The
        database fingerprint in the key invalidates stale entries the
        moment any table is mutated.
        """
        from repro.engine.batch import BatchItem, execute_item
        from repro.physical.operators import plan_signature

        database = database or self.database
        if database is None:
            raise ValueError(
                "PlanService.execute_many needs a database "
                "(pass one here or at construction)"
            )
        db_token = database.data_fingerprint()

        items: List[BatchItem] = []
        executed_here = set()
        for plan, outputs in requests:
            out_key = (
                tuple(c.cid for c in outputs) if outputs is not None else None
            )
            key = (plan_signature(plan), out_key, db_token)
            cached = self._exec_cache.get(key)
            if cached is not None:
                items.append(BatchItem(
                    result=cached.result, error=cached.error, coalesced=True
                ))
                self._count_exec(
                    "exec.coalesced" if key in executed_here
                    else "exec.cache_hits"
                )
                continue
            item = execute_item(
                plan, database, outputs,
                tracer=self.tracer, metrics=self.metrics,
            )
            if len(self._exec_cache) >= EXEC_CACHE_LIMIT:
                self._exec_cache.pop(next(iter(self._exec_cache)))
            self._exec_cache[key] = item
            executed_here.add(key)
            items.append(item)
            self._count_exec("exec.batches")
        return items

    def _count_exec(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # ------------------------------------------------------- pool execution

    def _compute_batch(
        self, pending: Dict[_CacheKey, _Task]
    ) -> Dict[_CacheKey, _Entry]:
        if self.workers > 1 and len(pending) > 1 and not self.tracer.enabled:
            parallel = self._compute_parallel(pending)
            if parallel is not None:
                return parallel
        return {
            key: self._compute(key, tree, config)
            for key, (tree, config) in pending.items()
        }

    def _compute_parallel(
        self, pending: Dict[_CacheKey, _Task]
    ) -> Optional[Dict[_CacheKey, _Entry]]:
        """Fan ``pending`` over the worker pool, started or grown to what
        the batch can use; ``None`` falls back to serial (a worker died, or
        this process cannot fork), counted as ``pool_fallbacks``."""
        tasks = list(pending.values())
        try:
            if self._pool is None:
                self._pool = _worker.WorkerPool(
                    (self.catalog, self.stats, self.registry),
                    self.metrics is not None,
                )
                self._reaper = weakref.finalize(self, self._pool.close)
            self._pool.grow(min(self.workers, len(tasks)))
            outcomes = self._pool.map(tasks)
        except Exception as exc:
            self.close()
            self._bump("pool_fallbacks")
            warnings.warn(
                f"plan service: worker pool failed ({exc!r}); "
                "running batch serially",
                stacklevel=2,
            )
            return None
        computed: Dict[_CacheKey, _Entry] = {}
        for key, (tree, _), (result, error, metric_delta) in zip(
            pending, tasks, outcomes
        ):
            self._bump("parallel_tasks")
            if metric_delta is not None and self.metrics is not None:
                # Fold this task's optimizer counters (measured in the
                # worker process) into the parent registry.
                self.metrics.merge(metric_delta)
                self.metrics.counter("service.worker_merges").inc()
            if result is not None:
                result = replace(result, logical_tree=tree)
            computed[key] = self._computed(key, result, error)
        return computed
