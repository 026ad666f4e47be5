"""Measurement core: the reference kernel, timed ops, rounds and the noise gate.

Every call the benchmark makes into ``repro`` goes through :meth:`Meter.op`,
which is at once the stopwatch and the benchmark's own span recorder (name,
layer, start, end, and the round or set-up the op belongs to).

**Why times are normalised.**  The sandbox this runs in changes speed in
steps that last a few seconds each: the same pure-Python loop takes 42, 54,
65 or 83 ms depending on what a neighbour is doing, and CPU time moves with
wall time, so it is contention, not descheduling.  A raw stopwatch therefore
does not repeat within a tenth.  The meter brackets ops with a fixed
pure-Python *reference kernel* and reports every time as
``wall * NOMINAL_KERNEL_S / kernel_sample``: seconds on a machine on which
a kernel sample takes exactly :data:`NOMINAL_KERNEL_S`.  The kernel is
benchmark code and never changes with the program, so a change to the
program moves only the numerator.  Measured on this box over 150 s each,
medians of consecutive repeats of one fixed batch ranged over 61% of their
mean raw and 23% normalised for an optimizer batch (interquartile spread of
single repeats 21% -> 8%), and over 26% raw and 8% normalised for an
execution batch (9% -> 5%).

**The noise gate.**  Normalisation is only as good as the kernel samples on
either side of an op agree.  A round whose duration-weighted disagreement
exceeds :data:`UNSTEADY_LIMIT` straddled a speed step; it is discarded and
counted in ``noisy_rounds``, and the time window runs on.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: Elements the reference kernel churns (about 7 ms on this box's usual speed).
KERNEL_ELEMENTS = 80_000
_KERNEL_INPUT = list(range(KERNEL_ELEMENTS))
#: A sample is the fastest of this many kernel runs, times their number: an
#: interrupt inside one 7 ms run must not pass for a slower machine.  On this
#: box that took the disagreement of adjacent samples (90th percentile) from
#: 6.6% to 1.4%.
KERNEL_RUNS = 3
#: All reported times are scaled to a machine on which a sample takes this.
NOMINAL_KERNEL_S = 0.022
#: An op starts with a fresh kernel sample when the last one is older.
SAMPLE_EVERY_S = 0.15
#: Duration-weighted relative disagreement of bracketing kernel samples above
#: which a round is discarded as noisy.  Only a speed step gets that far;
#: 0.08 also caught the fast flicker of a busy neighbour, and discarded 14 of
#: 30 ``campaign_rules`` rounds without making the medians of consecutive
#: windows any steadier (interquartile 0.046 against 0.053 ungated).
UNSTEADY_LIMIT = 0.12
#: A run keeps measuring past ``--seconds`` until it has this many steady
#: rounds, but never past ``GRACE`` times the window.
MIN_STEADY_ROUNDS = 2
GRACE = 1.25
#: Address-space cap of a workload process: a runaway plan becomes one
#: MemoryError, counted as a failed op, instead of an OOM-killed sandbox.
ADDRESS_SPACE_LIMIT = 4 << 30


def reference_kernel() -> int:
    """Fixed list, integer and dict churn: the yardstick for machine speed.

    Shaped like the program (comprehensions over columns, index gathers, a
    hash table) because a cache-resident integer loop follows a neighbour's
    memory traffic only half as well: on an execution batch the medians
    above ranged over 14% normalised by such a loop, 8% by this.
    """
    column = [x * 3 for x in _KERNEL_INPUT]
    selected = [i for i, x in enumerate(column) if x & 4]
    taken = [column[i] for i in selected]
    table = {}
    for x in taken[:20_000]:
        table[x & 0xFFF] = x
    return len(taken) + len(table)


def limit_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Op:
    """One timed call into the program: the benchmark's span record."""

    name: str
    layer: str
    group: int  # index of the round or set-up this op belongs to
    start: float
    end: float = 0.0
    failed: bool = False
    #: ``wall_s`` scaled by the bracketing kernel samples.
    norm_s: float = 0.0
    #: Relative disagreement of those two samples (0 = same machine speed).
    unsteady: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Group:
    """The (already normalised) ops of one round, set-up, check or probe."""

    kind: str  # "round" | "setup" | "check" | "probe"
    index: int
    ops: List[Op]
    #: Exact counts the round read from the program's own counters.
    counts: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.total_s = sum(op.norm_s for op in self.ops)
        self.wall_s = sum(op.wall_s for op in self.ops)
        #: Duration-weighted disagreement of the ops' bracketing samples.
        self.unsteadiness = (
            sum(op.wall_s * op.unsteady for op in self.ops) / self.wall_s
            if self.wall_s > 0 else 0.0
        )
        self.noisy = self.unsteadiness > UNSTEADY_LIMIT


class Meter:
    """Stopwatch, span recorder and machine-speed sampler in one."""

    def __init__(
        self,
        kernel: Callable[[], object] = reference_kernel,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._kernel = kernel
        self._clock = clock
        self._sample_starts: List[float] = []
        self._sample_ends: List[float] = []
        self._sample_seconds: List[float] = []
        self.ops: List[Op] = []
        self.groups: List[Group] = []
        #: First few failure messages, for the detail file and stderr.
        self.errors: List[str] = []

    # ------------------------------------------------------------- sampling

    def sample(self) -> None:
        start = self._clock()
        runs = []
        for _ in range(KERNEL_RUNS):
            before = self._clock()
            self._kernel()
            runs.append(self._clock() - before)
        self._sample_starts.append(start)
        self._sample_ends.append(self._clock())
        self._sample_seconds.append(min(runs) * KERNEL_RUNS)

    def _normalise(self, ops: Sequence[Op]) -> None:
        """Scale each op by the kernel samples just before and just after."""
        for op in ops:
            before = bisect_right(self._sample_ends, op.start) - 1
            after = bisect_left(self._sample_starts, op.end)
            k_before = self._sample_seconds[max(before, 0)]
            k_after = self._sample_seconds[
                min(after, len(self._sample_seconds) - 1)
            ]
            op.norm_s = op.wall_s * NOMINAL_KERNEL_S * 2.0 / (k_before + k_after)
            op.unsteady = abs(k_before - k_after) / (k_before + k_after)

    # --------------------------------------------------------------- timing

    def op(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Time ``fn(*args, **kwargs)`` as one op of the current group.

        An exception is a failed op, recorded and swallowed: the benchmark
        must keep running and report ``failed``, not die on the first bad
        plan (that includes a ``MemoryError`` from the address-space cap).
        """
        if (
            not self._sample_ends
            or self._clock() - self._sample_ends[-1] > SAMPLE_EVERY_S
        ):
            self.sample()
        op = Op(name, layer, len(self.groups), self._clock())
        self.ops.append(op)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            op.end = self._clock()

    def fail(self, message: str) -> None:
        """Mark the most recent op failed (an output check did not hold)."""
        if self.ops:
            self.ops[-1].failed = True
        if len(self.errors) < 20:
            self.errors.append(message)

    def run_group(
        self, kind: str, fn: Callable[["Meter"], Optional[Dict[str, float]]]
    ) -> Group:
        """Run ``fn(self)`` as one round or set-up, bracketed by samples."""
        first = len(self.ops)
        self.sample()
        counts = fn(self) or {}
        self.sample()
        ops = self.ops[first:]
        self._normalise(ops)
        group = Group(kind, len(self.groups), ops, counts)
        self.groups.append(group)
        return group

    def measure_rounds(
        self, round_fn: Callable[["Meter"], Dict[str, float]], seconds: float
    ) -> List[Group]:
        """Run rounds for ``seconds``; see ``MIN_STEADY_ROUNDS``/``GRACE``."""
        rounds: List[Group] = []
        start = self._clock()
        while True:
            gc.collect()
            rounds.append(self.run_group("round", round_fn))
            elapsed = self._clock() - start
            steady = sum(1 for group in rounds if not group.noisy)
            if elapsed >= seconds and (
                steady >= MIN_STEADY_ROUNDS or elapsed >= GRACE * seconds
            ):
                return rounds


def steady(groups: Sequence[Group]) -> List[Group]:
    """The groups that passed the noise gate (all of them if none did)."""
    kept = [group for group in groups if not group.noisy]
    return kept or list(groups)


class OpTimes:
    """Normalised times of some groups' ops, looked up by op name."""

    def __init__(self, groups: Sequence[Group]) -> None:
        self._groups = groups

    def per_group(self, name: str) -> List[List[float]]:
        return [
            [op.norm_s for op in group.ops if op.name == name]
            for group in self._groups
        ]

    def pooled_ms(self, name: str) -> List[float]:
        """Milliseconds of every ``name`` op, pooled over the groups."""
        return [1000.0 * t for times in self.per_group(name) for t in times]

    def median_ms(self, name: str) -> float:
        return median(self.pooled_ms(name))

    def group_sum_s(self, name: str) -> float:
        """Median over the groups of the seconds their ``name`` ops took."""
        return median([sum(times) for times in self.per_group(name)])


# ------------------------------------------------------------------ statistics


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count, the form every timing is kept in."""
    values = list(values)
    if not values:
        return {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def median(values: Sequence[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]
