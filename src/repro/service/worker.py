"""Process-pool worker side of :class:`repro.service.PlanService`.

``optimize_many`` ships each worker one pickled *environment* (catalog,
statistics, registry) through the pool initializer; the worker rebuilds an
:class:`Optimizer` per distinct config on demand and keeps it for the life
of the pool, so fanning out N requests costs one environment transfer per
worker, not per request.

When the parent service carries a :class:`~repro.obs.metrics.MetricsRegistry`
each task also measures its optimizer counters into a fresh per-task
registry and ships the snapshot back with the result; the parent merges
the deltas so campaign reports see one coherent set of per-rule firing
counts no matter how many processes did the work.

Everything here is module-level so it pickles by reference under both the
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import pickle
from typing import Dict, Optional, Tuple

from repro.logical.operators import LogicalOp
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.engine import Optimizer
from repro.optimizer.result import OptimizationError, OptimizeResult

_ENVIRONMENT = None
_OPTIMIZERS: Dict[OptimizerConfig, Optimizer] = {}
_WANT_METRICS = False

#: Snapshot type shipped back to the parent (``MetricsRegistry.snapshot()``).
MetricDelta = Optional[Dict[str, Dict[str, object]]]


def init_worker(payload: bytes, want_metrics: bool = False) -> None:
    """Pool initializer: install the pickled (catalog, stats, registry)."""
    global _ENVIRONMENT, _WANT_METRICS
    _ENVIRONMENT = pickle.loads(payload)
    _WANT_METRICS = bool(want_metrics)
    _OPTIMIZERS.clear()


def _optimizer_for(config: OptimizerConfig) -> Optimizer:
    optimizer = _OPTIMIZERS.get(config)
    if optimizer is None:
        catalog, stats, registry = _ENVIRONMENT
        optimizer = Optimizer(catalog, stats, registry, config)
        _OPTIMIZERS[config] = optimizer
    return optimizer


def optimize_task(
    task: Tuple[LogicalOp, OptimizerConfig],
) -> Tuple[Optional[OptimizeResult], Optional[str], MetricDelta]:
    """Optimize one request; failures come back as messages, not raises,
    so one bad tree cannot poison a whole batch."""
    tree, config = task
    optimizer = _optimizer_for(config)
    metrics = None
    if _WANT_METRICS:
        # A fresh registry per task: the snapshot shipped back is exactly
        # this task's contribution, so the parent-side merge never double
        # counts however the pool schedules work.
        metrics = optimizer.metrics = MetricsRegistry()
    try:
        result, error = optimizer.optimize(tree), None
    except OptimizationError as exc:
        result, error = None, str(exc)
    if metrics is None:
        return result, error, None
    optimizer.metrics = None
    return result, error, metrics.snapshot()
