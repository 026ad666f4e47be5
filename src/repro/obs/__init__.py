"""Observability: structured tracing and metrics for the optimizer stack.

The framework's method rests on knowing *which rules fired where* --
``RuleSet(q)`` drives generation and the rule-query bipartite graph drives
compression -- and this package records exactly that while a campaign
runs:

* :class:`Tracer` / :class:`RecordingTracer` (:mod:`repro.obs.trace`):
  structured span/event records with monotonic timings, a bounded ring
  buffer, deterministic JSON export and Chrome trace-event export.  The
  default :data:`NULL_TRACER` makes every hook a no-op.
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`): declared
  counters and histograms -- per-rule firing and rejection counts, memo
  sizes, plan executions.  A traced plan service computes in its
  own process, so its trace sees every optimization it runs; a registry
  sees them all at any worker count, because the service folds each
  run's record into it.  A service's cache traffic is not a metric: it
  is the service's own ``ServiceStats`` (``PlanService.counters``).

See ``docs/OBSERVABILITY.md`` for usage and the generated metric
reference in ``docs/METRICS.md``.
"""

from repro.obs.metrics import (
    METRIC_DOCS,
    Counter,
    Histogram,
    MetricsRegistry,
    documented_metrics,
    parse_name,
    render_name,
)
from repro.obs.trace import (
    DEFAULT_CAPACITY,
    NULL_TRACER,
    RecordingTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_CAPACITY",
    "Histogram",
    "METRIC_DOCS",
    "MetricsRegistry",
    "NULL_TRACER",
    "RecordingTracer",
    "TraceEvent",
    "Tracer",
    "documented_metrics",
    "parse_name",
    "render_name",
]
