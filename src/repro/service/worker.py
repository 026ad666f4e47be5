"""A pool of forked workers that run one function.

A :class:`WorkerPool` is built over one task function and forks its
workers only when :meth:`WorkerPool.grow` asks for them, so each worker
inherits the function -- and everything it holds -- through the fork:
nothing of it is pickled.  Each worker is a plain ``os.fork`` joined to
its parent by two pipes: it reads one pickled ``(index, arguments)`` task
at a time, calls ``task(*arguments)`` and writes back ``(index,
answer)``.  Worker ``i`` runs on the ``i``-th CPU the process may use.

The function's one client is :class:`repro.service.PlanService`, whose
pool runs the same optimizer-running callable its own process calls (see
:mod:`repro.service.plan_service`): a registry that would not pickle (a
mutant's, say) fans out like any other.  Columns a rule mints in a worker
(set-op rules, ``AvgToSumDivCount``, the group-by split) take their ids
from a range of their own -- the worker's slot shifted left by 40 bits --
so they collide neither with another worker's nor with a column the
parent binds after the fork.
"""

from __future__ import annotations

import gc
import itertools
import os
import pickle
import select
import signal
from typing import (
    Any, BinaryIO, Callable, Dict, List, NamedTuple, Sequence, Set, Tuple,
)

from repro.expr import expressions

#: What a pool runs: called in a worker as ``task(*arguments)``.
Task = Callable[..., Any]

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
    """Forked workers, each calling ``task`` until its task pipe closes."""

    def __init__(self, task: Task) -> None:
        self._task = task
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
                _serve(slot, task_read, result_write, self._task)
                status = 0
            finally:
                os._exit(status)
        os.close(task_read)
        os.close(result_write)
        _parent_fds.update((task_write, result_read))
        return _Child(
            pid, os.fdopen(task_write, "wb"), os.fdopen(result_read, "rb")
        )

    def map(self, tasks: Sequence[Tuple]) -> List[Any]:
        """``task(*arguments)`` for every ``arguments`` of ``tasks``, in
        task order.  Tasks go out in order, each to whichever worker is
        idle; a dead worker raises ``EOFError``.  A map that raises (or is
        interrupted) closes the pool first, so no answer of it is left in a
        pipe for the next map to read."""
        answers: List[Any] = [None] * len(tasks)
        queue = iter(enumerate(tasks))
        busy: Dict[int, _Child] = {}
        poller = select.poll()

        def dispatch(child: _Child) -> None:
            task = next(queue, None)
            if task is not None:
                pickle.dump(task, child.tasks, pickle.HIGHEST_PROTOCOL)
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
                    index, answer = pickle.load(child.results)
                    answers[index] = answer
                    dispatch(child)
        except BaseException:
            self.close()
            raise
        return answers

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


def _serve(slot: int, tasks_fd: int, results_fd: int, task: Task) -> None:
    """A worker's life: answer tasks until the parent closes the pipe.  An
    exception out of ``task`` ends the worker, and the parent's ``map``
    sees its pipe close."""
    # What the parent left in memory is never collected here: no finalizer
    # of the parent's runs in a worker, and no page is copied to scan it.
    gc.freeze()
    expressions._column_ids = itertools.count(slot << _ID_SHIFT)
    tasks = os.fdopen(tasks_fd, "rb")
    results = os.fdopen(results_fd, "wb")
    while True:
        try:
            index, arguments = pickle.load(tasks)
        except EOFError:
            return
        answer = task(*arguments)
        pickle.dump((index, answer), results, pickle.HIGHEST_PROTOCOL)
        results.flush()

