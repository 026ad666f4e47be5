"""The forked worker pool behind :class:`repro.service.PlanService`.

A service with ``workers > 1`` starts a :class:`WorkerPool` at its first
batch with two or more distinct misses and keeps it for its whole life.
Each worker is a plain ``os.fork`` of the service's process joined to it
by two pipes: it reads one pickled ``(index, tree, config)`` task at a
time and writes back ``(index, result, error, metric delta)``.  Catalog,
statistics and registry are inherited through the fork, so nothing about
the environment is pickled -- a registry that would not pickle (a
mutant's, say) fans out like any other.  A worker builds one
:class:`Optimizer` per distinct config on demand and keeps it for the
life of the pool, and worker ``i`` runs on the ``i``-th CPU the process
may use.

Results travel without their ``logical_tree``: the parent re-attaches the
tree it asked about.  Columns a rule mints in a worker (set-op rules,
``AvgToSumDivCount``, the group-by split) take their ids from a range of
their own -- the worker's slot shifted left by 40 bits -- so they collide
neither with another worker's nor with a column the parent binds after
the fork.

When the parent service carries a :class:`~repro.obs.metrics.MetricsRegistry`
each task also measures its optimizer counters into a fresh per-task
registry and ships the snapshot back with the result; the parent merges
the deltas so campaign reports see one coherent set of per-rule firing
counts no matter how many processes did the work.
"""

from __future__ import annotations

import gc
import itertools
import os
import pickle
import select
import signal
from dataclasses import replace
from typing import (
    BinaryIO, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.catalog.schema import Catalog
from repro.catalog.stats import StatsRepository
from repro.expr import expressions
from repro.logical.operators import LogicalOp
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.engine import Optimizer
from repro.optimizer.result import OptimizationError, OptimizeResult
from repro.rules.registry import RuleRegistry

#: Snapshot type shipped back to the parent (``MetricsRegistry.snapshot()``).
MetricDelta = Optional[Dict[str, Dict[str, object]]]
#: One request, and what a worker answers for it.
Task = Tuple[LogicalOp, OptimizerConfig]
Outcome = Tuple[Optional[OptimizeResult], Optional[str], MetricDelta]
Environment = Tuple[Catalog, StatsRepository, RuleRegistry]

#: Column-id ranges: worker ``slot`` mints from ``slot << _ID_SHIFT``.
_ID_SHIFT = 40
#: Process-wide, so two pools of one process never share a range.
_slots = itertools.count(1)
#: The parent's ends of every live pool's pipes: a new worker closes them
#: all, so no worker keeps another worker's task pipe open.
_parent_fds: Set[int] = set()


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class _Child(NamedTuple):
    """The parent's handle on one worker: its pid and both pipe ends."""

    pid: int
    tasks: BinaryIO
    results: BinaryIO


class WorkerPool:
    """Forked workers, each serving tasks until its task pipe closes."""

    def __init__(self, environment: Environment, want_metrics: bool) -> None:
        self._environment = environment
        self._want_metrics = want_metrics
        self._owner = os.getpid()
        self.children: List[_Child] = []

    def grow(self, size: int) -> None:
        """Fork workers until there are ``size``."""
        while len(self.children) < size:
            self.children.append(self._fork(len(self.children), next(_slots)))

    def _fork(self, index: int, slot: int) -> _Child:
        task_read, task_write = os.pipe()
        result_read, result_write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the worker: never returns into the caller's code
            status = 1
            try:
                for fd in (task_write, result_read, *_parent_fds):
                    os.close(fd)
                _pin(index)
                _serve(slot, task_read, result_write,
                       self._environment, self._want_metrics)
                status = 0
            finally:
                os._exit(status)
        os.close(task_read)
        os.close(result_write)
        _parent_fds.update((task_write, result_read))
        return _Child(
            pid, os.fdopen(task_write, "wb"), os.fdopen(result_read, "rb")
        )

    def map(self, tasks: Sequence[Task]) -> List[Outcome]:
        """Every task's outcome, by task index.  Tasks go out in order, each
        to whichever worker is idle; a dead worker raises ``EOFError``.  A
        map that raises (or is interrupted) closes the pool first, so no
        answer of it is left in a pipe for the next map to read."""
        outcomes: List[Optional[Outcome]] = [None] * len(tasks)
        queue = iter(enumerate(tasks))
        busy: Dict[int, _Child] = {}
        poller = select.poll()

        def dispatch(child: _Child) -> None:
            task = next(queue, None)
            if task is not None:
                index, (tree, config) = task
                pickle.dump((index, tree, config), child.tasks,
                            pickle.HIGHEST_PROTOCOL)
                child.tasks.flush()
                busy[child.results.fileno()] = child

        try:
            for child in self.children:
                poller.register(child.results, select.POLLIN)
                dispatch(child)
            while busy:
                for fd, _ in poller.poll():
                    child = busy.pop(fd, None)
                    if child is None:  # an idle worker's pipe closed
                        raise EOFError("a pool worker exited")
                    index, *outcome = pickle.load(child.results)
                    outcomes[index] = tuple(outcome)
                    dispatch(child)
        except BaseException:
            self.close()
            raise
        return outcomes

    def close(self) -> None:
        """Stop and reap every worker.  A no-op in any process but the one
        that forked them (a worker inherits its parent's pools)."""
        if os.getpid() != self._owner:
            return
        children, self.children = self.children, []
        for child in children:
            for pipe in (child.tasks, child.results):
                _parent_fds.discard(pipe.fileno())
                try:
                    pipe.close()
                except OSError:  # a flush into a dead worker's pipe
                    pass
            try:
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # already reaped


def _pin(index: int) -> None:
    """Keep worker ``index`` on a CPU of its own.  Left to itself the
    scheduler can stack two freshly forked workers on one CPU for over a
    second while another CPU idles, and the batch then runs no faster than
    in one process."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})


def _serve(
    slot: int,
    tasks_fd: int,
    results_fd: int,
    environment: Environment,
    want_metrics: bool,
) -> None:
    """A worker's life: answer tasks until the parent closes the pipe."""
    # What the parent left in memory is never collected here: no finalizer
    # of the parent's runs in a worker, and no page is copied to scan it.
    gc.freeze()
    expressions._column_ids = itertools.count(slot << _ID_SHIFT)
    catalog, stats, registry = environment
    optimizers: Dict[OptimizerConfig, Optimizer] = {}
    tasks = os.fdopen(tasks_fd, "rb")
    results = os.fdopen(results_fd, "wb")
    while True:
        try:
            index, tree, config = pickle.load(tasks)
        except EOFError:
            return
        optimizer = optimizers.get(config)
        if optimizer is None:
            optimizer = optimizers[config] = Optimizer(
                catalog, stats, registry, config
            )
        metrics = None
        if want_metrics:
            # A fresh registry per task: the snapshot shipped back is
            # exactly this task's contribution, so the parent-side merge
            # never double counts however tasks are scheduled.
            metrics = optimizer.metrics = MetricsRegistry()
        try:
            result, error = optimizer.optimize(tree), None
        except OptimizationError as exc:
            result, error = None, str(exc)
        if result is not None:
            # The parent holds the tree; sending it back is waste.
            result = replace(result, logical_tree=None)
        delta = None if metrics is None else metrics.snapshot()
        pickle.dump((index, result, error, delta), results,
                    pickle.HIGHEST_PROTOCOL)
        results.flush()

