"""The traced pass: the program's own spans under the benchmark's ops.

The benchmark's ops are the top of the span tree (one per public call it
makes).  In a traced round the program's ``RecordingTracer``, attached
through public constructor arguments, adds the spans the program already
emits underneath them.  A layer's *self time* is its spans' duration minus
the part their child spans cover; self times over all layers add up to the
round.  End-to-end metrics never come from this pass.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

from repro.obs import MetricsRegistry, RecordingTracer

from bench.harness import Op
from bench.workloads import Observers

#: ``src/repro/<module>`` a program span belongs to, by longest name prefix.
#: ``service.compute`` wraps exactly ``Optimizer.optimize``.
SPAN_LAYERS = (
    ("service.compute", "optimizer"),
    ("optimize.", "optimizer"),
    ("service.", "service"),
    ("exec.", "engine"),
    ("correctness.", "testing"),
    ("oracle.", "testing"),
    ("compression.", "testing"),
    ("diff.", "testing"),
)
#: The layers a round can enter (rules, datagen and backends are entered in
#: set-up and by the probe only, or from inside ``testing``).
LAYERS = (
    "sql", "logical", "optimizer", "engine", "storage", "service", "testing",
)


#: Events the program's tracer holds between two harvests (one round).
TRACE_CAPACITY = 1 << 18


@dataclass
class Span:
    name: str
    layer: str
    start: float  # seconds on the perf_counter clock
    end: float
    source: str  # "bench" (an op) | "program" (a tracer span)
    group: int = -1


def span_layer(name: str) -> str:
    for prefix, layer in SPAN_LAYERS:
        if name.startswith(prefix):
            return layer
    return "obs"


class ProgramTrace:
    """A ``RecordingTracer`` + ``MetricsRegistry`` pair and what they saw."""

    def __init__(self) -> None:
        self.tracer = RecordingTracer(capacity=TRACE_CAPACITY, detail="summary")
        # The tracer stamps events relative to its own start, which it does
        # not expose: read the clock right after, a few microseconds apart.
        self._origin = time.perf_counter()
        self.metrics = MetricsRegistry()
        self.spans: List[Span] = []
        self.events = 0
        self.dropped = 0

    @property
    def observers(self) -> Observers:
        return Observers(self.tracer, self.metrics)

    def harvest(self, group: int) -> None:
        """Move the tracer's buffer into ``spans`` (call after each round)."""
        for event in self.tracer.events:
            self.events += 1
            if event.dur_us:
                start = self._origin + event.ts_us / 1e6
                self.spans.append(Span(
                    event.name, span_layer(event.name), start,
                    start + event.dur_us / 1e6, "program", group,
                ))
        self.dropped += self.tracer.dropped
        self.tracer.clear()
        self._origin = time.perf_counter()


def op_spans(ops: Iterable[Op]) -> List[Span]:
    return [
        Span(op.name, op.layer, op.start, op.end, "bench", op.group)
        for op in ops
    ]


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds of self time per layer over a forest of nested spans."""
    totals: Dict[str, float] = {}
    stack: List[List] = []  # [span, seconds covered by its children]

    def close() -> None:
        span, covered = stack.pop()
        duration = span.end - span.start
        totals[span.layer] = (
            totals.get(span.layer, 0.0) + max(0.0, duration - covered)
        )
        if stack:
            stack[-1][1] += duration

    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        while stack and span.start >= stack[-1][0].end:
            close()
        stack.append([span, 0.0])
    while stack:
        close()
    return totals


def layer_shares(spans: Sequence[Span]) -> Dict[str, float]:
    """``share.<layer>``: self time as a share of the traced rounds."""
    totals = layer_self_times(spans)
    whole = sum(totals.values()) or 1.0
    return {
        f"share.{layer}": totals.get(layer, 0.0) / whole for layer in LAYERS
    }


def write_trace(path: Path, workload: str, spans: Sequence[Span]) -> None:
    payload = {
        "workload": workload,
        "clock": "perf_counter seconds",
        "spans": [
            [s.name, s.layer, s.source, s.group, round(s.start, 6),
             round(s.end, 6)]
            for s in spans
        ],
        "columns": ["name", "layer", "source", "group", "start", "end"],
    }
    path.write_text(json.dumps(payload))
