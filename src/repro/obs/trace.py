"""Structured optimizer tracing.

A :class:`Tracer` receives *events* (instantaneous records) and *spans*
(records with a duration) from the optimizer engine, the memo, and the
plan service.  Two implementations exist:

* :data:`NULL_TRACER` -- the default.  Every hook is a no-op and
  ``enabled`` is False, so instrumented hot paths pay exactly one
  attribute check (``if tracer.enabled:``) when tracing is off.
* :class:`RecordingTracer` -- keeps events in a bounded ring buffer
  (oldest events are dropped first, with a drop counter) and stamps each
  event with a monotonic-clock timestamp relative to the tracer's start.

Determinism contract: the *sequence* of events (names, categories,
arguments, order) for one optimization depends only on the query, the
registry, and the config -- never on wall-clock time.  Timestamps and
durations live in separate fields so exports can include them (Chrome
trace viewing) or exclude them (byte-identical JSON for snapshot tests
and caching); :meth:`RecordingTracer.to_json` excludes them by design.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Event argument values: kept to JSON scalars so exports never need custom
#: encoders.
ArgValue = object

#: Default ring-buffer capacity (events).  A single mid-sized optimization
#: emits a few thousand rule events; 64k holds several queries of detail.
DEFAULT_CAPACITY = 65536


@dataclass(frozen=True)
class TraceEvent:
    """One recorded trace event.

    ``ts_us``/``dur_us`` are microseconds on the monotonic clock relative
    to the owning tracer's start; ``dur_us`` is 0 for instantaneous
    events.  ``args`` is a sorted tuple of ``(key, value)`` pairs so
    events are hashable and export deterministically.
    """

    seq: int
    name: str
    cat: str
    args: Tuple[Tuple[str, ArgValue], ...]
    ts_us: int = 0
    dur_us: int = 0

    def arg(self, key: str, default: ArgValue = None) -> ArgValue:
        for name, value in self.args:
            if name == key:
                return value
        return default

    def deterministic_dict(self) -> Dict[str, ArgValue]:
        """The timing-free view used by deterministic JSON export."""
        return {
            "seq": self.seq,
            "name": self.name,
            "cat": self.cat,
            "args": {key: value for key, value in self.args},
        }


class _NullSpan:
    """Reusable no-op context manager handed out by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def annotate(self, **args: "ArgValue") -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """The no-op base tracer: every hook returns immediately.

    Instrumentation sites guard bulk work behind ``tracer.enabled`` and
    call :meth:`event` / :meth:`span` unconditionally only where the call
    itself is the bulk work; either way the disabled cost is one branch
    or one cheap method call, with no allocation.

    High-volume per-attempt events (every rule considered/rejected, every
    memo insert, every costing) are guarded behind ``tracer.detailed``
    instead: a ``summary``-detail recording tracer skips them, keeping
    recording overhead low on full campaign runs while per-rule *counts*
    stay exact on the records the optimizer returns anyway.
    """

    enabled: bool = False
    detailed: bool = False

    def event(self, name: str, cat: str = "optimizer", **args: ArgValue) -> None:
        pass

    def span(self, name: str, cat: str = "optimizer", **args: ArgValue):
        return _NULL_SPAN


#: The shared default tracer.  Identity-checked in tests to guarantee the
#: disabled path allocates nothing.
NULL_TRACER = Tracer()


class _RecordingSpan:
    """Context manager that records one complete ('X') event on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start_ns")

    def __init__(self, tracer: "RecordingTracer", name: str, cat: str, args):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_RecordingSpan":
        self._start_ns = time.perf_counter_ns()
        return self

    def annotate(self, **args: ArgValue) -> None:
        """Attach args discovered mid-span (e.g. output row counts)."""
        self._args.update(args)

    def __exit__(self, *exc_info) -> None:
        end_ns = time.perf_counter_ns()
        self._tracer._record(
            self._name,
            self._cat,
            self._args,
            ts_ns=self._start_ns,
            dur_ns=end_ns - self._start_ns,
        )


class RecordingTracer(Tracer):
    """A tracer that keeps events in a bounded ring buffer.

    ``detail``: ``"full"`` records per-attempt events too; ``"summary"``
    records only the low-volume ones (spans, rule firings, service/cache
    traffic) -- the right choice when tracing whole benchmark campaigns.
    """

    enabled = True

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, detail: str = "full"
    ) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        if detail not in ("full", "summary"):
            raise ValueError("detail must be 'full' or 'summary'")
        self.capacity = capacity
        self.detail = detail
        self.detailed = detail == "full"
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._t0_ns = time.perf_counter_ns()

    # -------------------------------------------------------------- record

    def _record(
        self,
        name: str,
        cat: str,
        args: Dict[str, ArgValue],
        ts_ns: Optional[int] = None,
        dur_ns: int = 0,
    ) -> None:
        if ts_ns is None:
            ts_ns = time.perf_counter_ns()
        if len(self._events) == self.capacity:
            self._dropped += 1
        self._events.append(
            TraceEvent(
                seq=self._seq,
                name=name,
                cat=cat,
                args=tuple(sorted(args.items())),
                ts_us=(ts_ns - self._t0_ns) // 1000,
                dur_us=dur_ns // 1000,
            )
        )
        self._seq += 1

    def event(self, name: str, cat: str = "optimizer", **args: ArgValue) -> None:
        self._record(name, cat, args)

    def span(self, name: str, cat: str = "optimizer", **args: ArgValue):
        return _RecordingSpan(self, name, cat, args)

    # ------------------------------------------------------------- inspect

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer (total recorded - kept)."""
        return self._dropped

    def clear(self) -> None:
        self._events.clear()
        self._seq = 0
        self._dropped = 0
        self._t0_ns = time.perf_counter_ns()

    def signature(self) -> List[Tuple[str, str, Tuple]]:
        """The timing-free event sequence, for determinism assertions."""
        return [(e.name, e.cat, e.args) for e in self._events]

    # -------------------------------------------------------------- export

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Deterministic JSON export: timestamps and durations excluded.

        Two runs of the same seeded workload produce byte-identical
        output (the acceptance property behind ``repro trace --format
        json``); sorted keys make the bytes independent of dict order.
        """
        payload = {
            "capacity": self.capacity,
            "dropped": self._dropped,
            "events": [e.deterministic_dict() for e in self._events],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def to_chrome_json(self, indent: Optional[int] = 2) -> str:
        """Chrome trace-event JSON (load via ``chrome://tracing`` or
        https://ui.perfetto.dev) -- includes real timings, so this export
        is *not* byte-deterministic."""
        trace_events = []
        for e in self._events:
            record = {
                "name": e.name,
                "cat": e.cat,
                "ph": "X" if e.dur_us else "i",
                "ts": e.ts_us,
                "pid": 0,
                "tid": 0,
                "args": {key: value for key, value in e.args},
            }
            if e.dur_us:
                record["dur"] = e.dur_us
            else:
                record["s"] = "t"  # instant-event scope: thread
            trace_events.append(record)
        return json.dumps(
            {"traceEvents": trace_events, "displayTimeUnit": "ms"},
            indent=indent,
            sort_keys=True,
        )

    def counts_by_name(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for e in self._events:
            counts[e.name] = counts.get(e.name, 0) + 1
        return counts

    def to_text(
        self, subject: str, metrics, service_stats, top: int = 10
    ) -> str:
        """The ``repro trace`` text report: event totals plus the ``top``
        hottest rows of ``metrics``' per-rule firing table (``metrics`` is
        the :class:`~repro.obs.metrics.MetricsRegistry` that observed the
        same run, ``service_stats`` the ``ServiceStats`` of the plan service
        that served it)."""
        summary = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.counts_by_name().items())
        )
        rows = metrics.rule_table()
        lines = [
            f"traced: {subject}",
            f"events: {len(self._events)} recorded, {self._dropped} dropped",
            f"by name: {summary}",
            "",
            f"hot rules (top {min(top, len(rows))} of {len(rows)}):",
            f"{'rule':<32} {'considered':>10} {'fired':>6} {'rejected':>8}",
        ]
        for rule, considered, fired, rejected in rows[:top]:
            lines.append(f"{rule:<32} {considered:>10} {fired:>6} {rejected:>8}")
        lines.append("")
        lines.append(
            f"optimizations: {metrics.counter_value('optimizer.optimizations')}, "
            f"costings: {metrics.counter_value('optimizer.costings')}, "
            f"service requests: {service_stats.requests} "
            f"({service_stats.memory_hits} memory hits)"
        )
        executions = metrics.counter_value("exec.executions", executor="columnar")
        if executions:
            lines.append(
                f"executions: {executions}, result rows: "
                f"{metrics.counter_value('exec.rows')}"
            )
        return "\n".join(lines)

