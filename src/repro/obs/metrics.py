"""The metrics registry: named counters and histograms.

Every metric the framework emits is declared up front in
:data:`METRIC_DOCS` with its kind and a one-line description; a
:class:`MetricsRegistry` refuses undeclared names, which is what lets
``tools/generate_metrics_docs.py`` render a reference table
(``docs/METRICS.md``) that can never drift from the code.

Per-rule metrics carry a ``rule`` label (one time series per rule name).
A registry only ever sees its own process.  The ``optimizer.*`` series are
a fold over the records optimizer runs return, done by the plan service
that asked for them (``PlanService._computed``), so a registry counts the
runs its service's pool workers computed too.

A count that a record already holds is not declared here a second time:
a plan service's traffic is its ``ServiceStats`` (``PlanService.counters``),
a generation campaign's redraws are ``GenerationOutcome.oversized``, and a
mutation campaign's verdicts are its ``MutationReport``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: label set: sorted ((key, value), ...) pairs.
Labels = Tuple[Tuple[str, str], ...]

#: Declared metrics: name -> (kind, label keys, description).  The docs
#: generator and the registry's validation both read this table.
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
    # ------------------------------------------------------------ execution
    "exec.executions": (
        "counter", ("executor",),
        "Completed plan executions, labelled by executor (always "
        "`columnar`: the row-at-a-time reference interpreter under "
        "`repro.testing` writes no metrics).",
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
}


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


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
    """Inverse of :func:`render_name` (``tools/generate_rule_docs.py
    --trace`` reads per-rule counters out of a snapshot with it)."""
    if not rendered.endswith("}"):
        return rendered, ()
    name, _, inner = rendered[:-1].partition("{")
    labels = []
    for part in inner.split(","):
        key, _, value = part.partition("=")
        labels.append((key, value))
    return name, tuple(labels)


class MetricsRegistry:
    """All metrics of one process.

    Rejects metric names absent from :data:`METRIC_DOCS` and label keys
    that do not match the declaration, so every emitted series is
    guaranteed to be documented.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}
        #: ``(kind, name, label keys)`` triples that already passed
        #: validation -- metric resolution is on per-request and
        #: per-execution paths, so repeats must not re-validate.
        self._validated: set = set()

    # ------------------------------------------------------------ creation

    def _key(self, kind: str, name: str, labels: Mapping[str, str]) -> Tuple[str, Labels]:
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

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = self._key("histogram", name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    # ----------------------------------------------------------- snapshots

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A picklable, JSON-friendly dump with deterministic key order."""
        return {
            "counters": {
                render_name(name, labels): metric.value
                for (name, labels), metric in sorted(self._counters.items())
            },
            "histograms": {
                render_name(name, labels): metric.as_dict()
                for (name, labels), metric in sorted(self._histograms.items())
            },
        }

    # ------------------------------------------------------------- queries

    def counter_value(self, name: str, **labels: str) -> int:
        key = self._key("counter", name, labels)
        metric = self._counters.get(key)
        return metric.value if metric is not None else 0

    def rule_table(self) -> List[Tuple[str, int, int, int]]:
        """``(rule, considered, fired, rejected)`` rows, sorted by fired
        count descending then name -- the `repro trace` hot-rule table.
        A plan service resolves a rule's series together, so the rules
        are those with an ``optimizer.rule.considered`` series."""
        rules = [
            labels[0][1]
            for name, labels in self._counters
            if name == "optimizer.rule.considered"
        ]
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
