"""The metrics registry: named counters, gauges, and histograms.

Every metric the framework emits is declared up front in
:data:`METRIC_DOCS` with its kind and a one-line description; a
:class:`MetricsRegistry` refuses undeclared names by default, which is
what lets ``tools/generate_metrics_docs.py`` render a reference table
(``docs/METRICS.md``) that can never drift from the code.

Per-rule metrics carry a ``rule`` label (one time series per rule name);
:meth:`MetricsRegistry.merge` folds a :meth:`snapshot` from another
process into this registry, which is how ``optimize_many()`` worker
metrics reach the parent's campaign report: counters and histograms add,
gauges keep the maximum observed value.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: label set: sorted ((key, value), ...) pairs.
Labels = Tuple[Tuple[str, str], ...]

#: Declared metrics: name -> (kind, label keys, description).  The docs
#: generator and the registry's strict mode both read this table.
METRIC_DOCS: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    # ------------------------------------------------------------ optimizer
    "optimizer.optimizations": (
        "counter", (),
        "Optimizer runs that did not raise: every one, whether it "
        "produced a plan or stopped after exploration "
        "(`optimizer.unexercised` counts the latter), so ratios per "
        "optimization keep one optimizer invocation as their base.",
    ),
    "optimizer.unexercised": (
        "counter", (),
        "Generation trials (`Optimizer.optimize_exercising()`) that "
        "stopped after exploration because a target rule was not "
        "exercised: no implementation, no plan.  Each is counted in "
        "`optimizer.optimizations` too, and records its per-rule counters "
        "and memo sizes like any other run.",
    ),
    "optimizer.optimization_errors": (
        "counter", (),
        "`Optimizer.optimize()` runs that raised `OptimizationError`.",
    ),
    "optimizer.rule.considered": (
        "counter", ("rule",),
        "Times the rule was attempted on a memo expression whose operator "
        "kind its pattern root matches -- the pairs its compiled matcher "
        "is called for (exploration and implementation phases).",
    ),
    "optimizer.rule.fired": (
        "counter", ("rule",),
        "Attempts in which the rule's substitution produced at least one "
        "alternative -- the paper's *rule exercised* predicate.",
    ),
    "optimizer.rule.rejected": (
        "counter", ("rule",),
        "Attempts that produced nothing: below a matching root kind the "
        "pattern found no binding, or every binding failed the "
        "precondition.",
    ),
    "optimizer.rule.precondition_failures": (
        "counter", ("rule",),
        "Individual pattern bindings discarded by the rule's "
        "precondition (one attempt can contribute several).",
    ),
    "optimizer.rule_applications": (
        "counter", (),
        "Successful exploration-rule applications across all "
        "optimizations (the budget `max_rule_applications` counts these "
        "per run).",
    ),
    "optimizer.costings": (
        "counter", (),
        "Physical alternatives costed during implementation "
        "(`local_cost` invocations).",
    ),
    "optimizer.enforcers": (
        "counter", (),
        "Sort enforcers considered to satisfy a required ordering.",
    ),
    "optimizer.budget_exhausted": (
        "counter", (),
        "Optimizations that hit a memo/application budget cap and "
        "stopped exploration early.",
    ),
    "optimizer.memo.groups": (
        "histogram", (),
        "Final memo group count, one observation per optimization.",
    ),
    "optimizer.memo.exprs": (
        "histogram", (),
        "Final memo expression count, one observation per optimization.",
    ),
    # -------------------------------------------------------------- service
    "service.requests": (
        "counter", (),
        "Plan/Cost requests received by the `PlanService` (batch members "
        "included).",
    ),
    "service.memory_hits": (
        "counter", (),
        "Requests answered from the in-process fingerprint cache.",
    ),
    "service.disk_hits": (
        "counter", (),
        "Cost requests answered from the persistent disk cache.",
    ),
    "service.lineage_hits": (
        "counter", (),
        "Cost requests with rules disabled answered with `Cost(q)` from "
        "the lineage of the uncut undisabled result in memory (its "
        "`plan_support` avoids every disabled rule); not counted as hits.",
    ),
    "service.computed": (
        "counter", (),
        "Requests that ran the optimizer (cache misses).",
    ),
    "service.errors": (
        "counter", (),
        "Computations that ended in `OptimizationError` (memoized too).",
    ),
    "service.batches": (
        "counter", (),
        "`optimize_many()` batches that had at least one cache miss.",
    ),
    "service.parallel_tasks": (
        "counter", (),
        "Computations executed by the service's forked worker pool.",
    ),
    "service.worker_merges": (
        "counter", (),
        "Worker metric snapshots merged back into this registry.",
    ),
    "service.pool_fallbacks": (
        "counter", (),
        "Batches whose worker pool failed (a worker died, the process "
        "could not fork) and that ran serially instead.",
    ),
    # ----------------------------------------------------------- generation
    "generation.oversized": (
        "counter", (),
        "Generation draws skipped because the tree's estimated result "
        "(root rows x output columns) exceeded "
        "`repro.testing.generator.MAX_RESULT_CELLS`: each spent a trial, "
        "none reached the optimizer, and the campaign drew again.  One "
        "`generation.oversized` trace event each names the tree.",
    ),
    # ------------------------------------------------------------- mutation
    "mutation.mutants": (
        "counter", ("operator",),
        "Mutants evaluated by the mutation campaign, per mutation "
        "operator.",
    ),
    "mutation.outcomes": (
        "counter", ("variant", "status"),
        "Kill-matrix cells: one increment per (suite variant, outcome "
        "status) pair of every evaluated mutant.",
    ),
    "mutation.pool_queries": (
        "counter", (),
        "Pattern-based queries generated into mutant evaluation pools "
        "(regenerated against each mutated registry).",
    ),
    "mutation.fleet_errors": (
        "counter", (),
        "Mutants whose differential fleet raised instead of reporting: "
        "nothing folds into their verdicts, so a non-zero count means "
        "the second oracle did not judge those pools.",
    ),
    "mutation.no_fire_witnessed": (
        "counter", ("rule",),
        "Generation seeds stopped with a NO_FIRE verdict against the "
        "clean build, per rule: one attempt's trials all failed on the "
        "mutated build while the clean rule fired on `pool` of the same "
        "trees.",
    ),
    # ------------------------------------------------------------- compress
    "compress.selections": (
        "counter", ("objective",),
        "Detection-aware suite selections computed over a kill matrix, "
        "per objective.",
    ),
    "compress.selected_queries": (
        "counter", ("objective",),
        "Query slots chosen into detection-aware selections, per "
        "objective.",
    ),
    "compress.covered_mutants": (
        "counter", ("objective",),
        "Expected-detectable mutants detected by a scored selection, "
        "per objective.",
    ),
    "compress.adaptive_raises": (
        "counter", (),
        "Per-rule budget raises performed by the adaptive-k stage of "
        "the detection objective.",
    ),
    "compress.pareto_points": (
        "counter", (),
        "Points emitted into cost-vs-detection Pareto reports.",
    ),
    # --------------------------------------------------------- differential
    "diff.queries": (
        "counter", (),
        "Suite queries fanned out across the differential backend fleet.",
    ),
    "diff.executions": (
        "counter", ("backend",),
        "Query executions attempted per fleet backend (errors included).",
    ),
    "diff.outcomes": (
        "counter", ("backend", "outcome"),
        "Unified per-(query, backend) verdicts against the reference "
        "backend: agree, disagree, error, or skip.",
    ),
    "diff.exact_bags": (
        "counter", (),
        "Exact result bags materialized to explain a disagreement "
        "(verdicts compare digests; an all-agree run leaves this at 0).",
    ),
    # ------------------------------------------------------------ execution
    "exec.executions": (
        "counter", ("executor",),
        "Completed plan executions, labelled by executor "
        "(columnar or iterator).",
    ),
    "exec.rows": (
        "counter", (),
        "Result rows produced by completed plan executions.",
    ),
    "exec.batches": (
        "counter", (),
        "Coalesced execution groups processed by `execute_many()` "
        "(one unique (plan, projection) pair per group).",
    ),
    "exec.coalesced": (
        "counter", (),
        "Requests inside `execute_many()` batches that reused another "
        "request's execution instead of running the plan again.",
    ),
    "exec.cache_hits": (
        "counter", (),
        "`PlanService.execute_many()` requests answered from the "
        "cross-batch result cache (keyed by plan signature, projection, "
        "and database fingerprint).",
    ),
    "exec.scan_cache_hits": (
        "counter", (),
        "Columnar table scans served from the per-table column "
        "snapshot cache (shared scans), including a snapshot extended by "
        "the rows inserted since it was built.",
    ),
    "exec.columns_gathered": (
        "counter", (),
        "Columns the columnar executor's gathers built: a gather (a "
        "filter's survivors, a join's pairs, a sort's permutation) builds "
        "a column the first time an operator reads it.",
    ),
    "exec.columns_skipped": (
        "counter", (),
        "Columns of those gathers that no operator read, so they were "
        "never built.",
    ),
    # ---------------------------------------------------------------- trace
    "trace.dropped_events": (
        "gauge", (),
        "Events evicted from the recording tracer's ring buffer.",
    ),
}


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; cross-process merge keeps the maximum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Count/sum/min/max summary of observed values."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


def render_name(name: str, labels: Labels) -> str:
    """``name{k=v,...}`` -- the stable text key used in snapshots."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


def parse_name(rendered: str) -> Tuple[str, Labels]:
    """Inverse of :func:`render_name` (used by :meth:`MetricsRegistry.merge`)."""
    if not rendered.endswith("}"):
        return rendered, ()
    name, _, inner = rendered[:-1].partition("{")
    labels = []
    for part in inner.split(","):
        key, _, value = part.partition("=")
        labels.append((key, value))
    return name, tuple(labels)


class MetricsRegistry:
    """All metrics of one process (or one worker task).

    ``strict`` (the default) rejects metric names absent from
    :data:`METRIC_DOCS` and label keys that do not match the declaration,
    so every emitted series is guaranteed to be documented.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._gauges: Dict[Tuple[str, Labels], Gauge] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}
        #: ``(kind, name, label keys)`` triples that already passed strict
        #: validation -- metric resolution is on the optimizer's
        #: per-optimization path, so repeats must not re-validate.
        self._validated: set = set()
        #: Pre-resolved handles for the optimizer's bookkeeping path (one
        #: registry serves many Optimizer instances -- one per distinct
        #: config -- so the cache must live here, not on the engine).
        self._rule_counter_cache: Dict[str, Tuple[Counter, ...]] = {}
        self._optimizer_handles: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------ creation

    def _key(self, kind: str, name: str, labels: Mapping[str, str]) -> Tuple[str, Labels]:
        if self.strict:
            shape = (kind, name, tuple(labels))
            if shape not in self._validated:
                self._validate(kind, name, labels)
                self._validated.add(shape)
        if not labels:
            return name, ()
        if len(labels) == 1:
            ((key, value),) = labels.items()
            return name, ((key, str(value)),)
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _validate(self, kind: str, name: str, labels: Mapping[str, str]) -> None:
        doc = METRIC_DOCS.get(name)
        if doc is None:
            raise KeyError(
                f"undeclared metric {name!r}: add it to "
                "repro.obs.metrics.METRIC_DOCS (and regenerate "
                "docs/METRICS.md)"
            )
        declared_kind, declared_labels, _ = doc
        if declared_kind != kind:
            raise TypeError(
                f"metric {name!r} is declared as a {declared_kind}, "
                f"not a {kind}"
            )
        if tuple(sorted(labels)) != tuple(sorted(declared_labels)):
            raise KeyError(
                f"metric {name!r} expects labels {declared_labels}, "
                f"got {tuple(sorted(labels))}"
            )

    def counter(self, name: str, **labels: str) -> Counter:
        key = self._key("counter", name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = self._key("gauge", name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = self._key("histogram", name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    # ------------------------------------------------------- cached handles

    def rule_counters(self, rule: str) -> Tuple[Counter, ...]:
        """``(considered, fired, rejected, precondition_failures)`` counter
        handles for one rule, resolved and validated exactly once."""
        cached = self._rule_counter_cache.get(rule)
        if cached is None:
            cached = self._rule_counter_cache[rule] = (
                self.counter("optimizer.rule.considered", rule=rule),
                self.counter("optimizer.rule.fired", rule=rule),
                self.counter("optimizer.rule.rejected", rule=rule),
                self.counter(
                    "optimizer.rule.precondition_failures", rule=rule
                ),
            )
        return cached

    def optimizer_handles(self) -> Dict[str, object]:
        """The label-free optimizer metric handles, resolved once."""
        handles = self._optimizer_handles
        if handles is None:
            handles = self._optimizer_handles = {
                "optimizations": self.counter("optimizer.optimizations"),
                "unexercised": self.counter("optimizer.unexercised"),
                "applications": self.counter("optimizer.rule_applications"),
                "costings": self.counter("optimizer.costings"),
                "enforcers": self.counter("optimizer.enforcers"),
                "budget": self.counter("optimizer.budget_exhausted"),
                "groups": self.histogram("optimizer.memo.groups"),
                "exprs": self.histogram("optimizer.memo.exprs"),
            }
        return handles

    # ----------------------------------------------------------- snapshots

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A picklable, JSON-friendly dump with deterministic key order."""
        return {
            "counters": {
                render_name(name, labels): metric.value
                for (name, labels), metric in sorted(self._counters.items())
            },
            "gauges": {
                render_name(name, labels): metric.value
                for (name, labels), metric in sorted(self._gauges.items())
            },
            "histograms": {
                render_name(name, labels): metric.as_dict()
                for (name, labels), metric in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Mapping[str, Mapping[str, object]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram components add; gauges keep the maximum.
        Used to aggregate per-task worker metrics from ``optimize_many``.
        """
        for rendered, value in snapshot.get("counters", {}).items():
            name, labels = parse_name(rendered)
            self.counter(name, **dict(labels)).value += int(value)
        for rendered, value in snapshot.get("gauges", {}).items():
            name, labels = parse_name(rendered)
            gauge = self.gauge(name, **dict(labels))
            gauge.value = max(gauge.value, value)
        for rendered, parts in snapshot.get("histograms", {}).items():
            name, labels = parse_name(rendered)
            histogram = self.histogram(name, **dict(labels))
            histogram.count += int(parts["count"])
            histogram.total += float(parts["total"])
            for bound, pick in (("min", min), ("max", max)):
                incoming = parts.get(bound)
                if incoming is None:
                    continue
                current = getattr(histogram, bound)
                setattr(
                    histogram,
                    bound,
                    incoming if current is None else pick(current, incoming),
                )

    # ------------------------------------------------------------- queries

    def counter_value(self, name: str, **labels: str) -> int:
        key = self._key("counter", name, labels)
        metric = self._counters.get(key)
        return metric.value if metric is not None else 0

    def rule_table(self) -> List[Tuple[str, int, int, int]]:
        """``(rule, considered, fired, rejected)`` rows, sorted by fired
        count descending then name -- the `repro trace` hot-rule table."""
        rules = set()
        for metric_name in (
            "optimizer.rule.considered",
            "optimizer.rule.fired",
            "optimizer.rule.rejected",
        ):
            for (name, labels) in self._counters:
                if name == metric_name:
                    rules.add(dict(labels)["rule"])
        rows = [
            (
                rule,
                self.counter_value("optimizer.rule.considered", rule=rule),
                self.counter_value("optimizer.rule.fired", rule=rule),
                self.counter_value("optimizer.rule.rejected", rule=rule),
            )
            for rule in rules
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows


def documented_metrics() -> Iterable[Tuple[str, str, Tuple[str, ...], str]]:
    """``(name, kind, label keys, description)`` rows in name order, for
    the docs generator."""
    for name in sorted(METRIC_DOCS):
        kind, labels, description = METRIC_DOCS[name]
        yield name, kind, labels, description
