"""The differential fleet runner: one suite, many backends.

Where :class:`repro.testing.correctness.CorrectnessRunner` compares
``Plan(q)`` against ``Plan(q, ¬R)`` *inside* the engine, the
:class:`DifferentialRunner` fans every suite query out across a fleet of
independent backends (:mod:`repro.backends`) and compares normalized
result bags across implementations.  The first backend is the *reference*
(by convention the in-process engine -- the system under test); each
other backend's bag is diffed against it:

* ``agree``    -- bags identical (bag digests equal, floats quantized);
* ``disagree`` -- bags differ: a correctness bug in (at least) one
  implementation.  With a fault-injected registry this is the kill
  signal: the engine executed a wrongly-transformed plan while the
  external backend executed the SQL text;
* ``error``    -- the backend failed on this query;
* ``skip``     -- the reference itself failed, so there is nothing to
  compare against.

Backends run one after another on the calling thread, each handed the
whole suite as one :meth:`~repro.backends.base.Backend.run_many` batch.

Everything the campaign observed lands in a deterministic JSON *collect
artifact* (`to_json`): same seed, same fleet, byte-identical output
across fresh processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.backends.base import Backend, BackendRun, bag_diff_summary
from repro.storage.database import Database
from repro.testing.suite import SuiteQuery, TestSuite

#: Unified per-(query, backend) verdicts.
AGREE = "agree"
DISAGREE = "disagree"
ERROR = "error"
SKIP = "skip"

OUTCOMES = (AGREE, DISAGREE, ERROR, SKIP)


@dataclass(frozen=True)
class DiffOutcome:
    """One backend's unified verdict for one query."""

    query_id: int
    backend: str
    outcome: str  # one of OUTCOMES
    detail: str = ""


@dataclass
class DiffReport:
    """Everything one differential campaign observed."""

    backends: List[str]
    reference: str
    skipped_backends: Dict[str, str] = field(default_factory=dict)
    suite_info: Dict[str, object] = field(default_factory=dict)
    queries: List[SuiteQuery] = field(default_factory=list)
    #: ``runs[query_id][backend]``.
    runs: Dict[int, Dict[str, BackendRun]] = field(default_factory=dict)
    outcomes: List[DiffOutcome] = field(default_factory=list)

    # ------------------------------------------------------------ verdicts

    @property
    def tallies(self) -> Dict[str, Dict[str, int]]:
        """Outcome counts per non-reference backend, one count per
        verdict of ``OUTCOMES``: a backend without outcomes reads zeros."""
        tallies = {
            name: dict.fromkeys(OUTCOMES, 0) for name in self.backends[1:]
        }
        for outcome in self.outcomes:
            tallies[outcome.backend][outcome.outcome] += 1
        return tallies

    @property
    def disagreements(self) -> List[DiffOutcome]:
        return [o for o in self.outcomes if o.outcome == DISAGREE]

    @property
    def errors(self) -> List[DiffOutcome]:
        return [o for o in self.outcomes if o.outcome == ERROR]

    @property
    def passed(self) -> bool:
        """No disagreement and no execution error anywhere in the fleet."""
        return not self.disagreements and not self.errors and not any(
            run.error for runs in self.runs.values()
            for run in runs.values()
        )

    # -------------------------------------------------------- attribution

    def rule_attribution(self) -> Dict[str, Dict[str, int]]:
        """Disagreements/errors per generating rule node.

        A disagreeing query implicates its ``generated_for`` node
        directly, and every rule in its ``RuleSet`` weakly (any of them
        may have produced the wrong transformation).
        """
        by_query = {query.query_id: query for query in self.queries}
        attribution: Dict[str, Dict[str, int]] = {}

        def bucket(rule: str) -> Dict[str, int]:
            return attribution.setdefault(
                rule,
                {"generated_for": 0, "implicated": 0, "errors": 0},
            )

        for outcome in self.outcomes:
            if outcome.outcome not in (DISAGREE, ERROR):
                continue
            query = by_query.get(outcome.query_id)
            if query is None:
                continue
            key = "errors" if outcome.outcome == ERROR else "generated_for"
            for rule in query.generated_for:
                bucket(rule)[key] += 1
            if outcome.outcome == DISAGREE:
                for rule in sorted(query.ruleset):
                    bucket(rule)["implicated"] += 1
        return attribution

    # ------------------------------------------------------------- exports

    def to_json_dict(self) -> Dict[str, object]:
        query_payload = []
        for query in self.queries:
            runs = self.runs.get(query.query_id, {})
            entry: Dict[str, object] = {
                "id": query.query_id,
                "generated_for": list(query.generated_for),
                "ruleset": sorted(query.ruleset),
                "runs": {
                    name: run.to_json_dict()
                    for name, run in sorted(runs.items())
                },
                "outcomes": {
                    outcome.backend: {
                        "outcome": outcome.outcome,
                        "detail": outcome.detail,
                    }
                    for outcome in self.outcomes
                    if outcome.query_id == query.query_id
                },
            }
            query_payload.append(entry)
        return {
            "campaign": {
                "backends": list(self.backends),
                "reference": self.reference,
                "skipped_backends": dict(sorted(
                    self.skipped_backends.items()
                )),
                "suite": dict(self.suite_info),
            },
            "queries": query_payload,
            "summary": {
                "per_backend": self.tallies,
                "disagreements": len(self.disagreements),
                "errors": len(self.errors),
                "rule_attribution": self.rule_attribution(),
                "passed": self.passed,
            },
        }

    def to_json(self) -> str:
        """Deterministic collect artifact: byte-identical across fresh
        processes for the same (seed, fleet, suite) inputs."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"differential fleet: {', '.join(self.backends)} "
            f"(reference: {self.reference})",
        ]
        for name, reason in sorted(self.skipped_backends.items()):
            lines.append(f"skipped backend {name}: {reason}")
        lines.append(f"queries: {len(self.queries)}")
        for name, tally in sorted(self.tallies.items()):
            lines.append(
                f"  vs {name:<10} agree={tally[AGREE]} "
                f"disagree={tally[DISAGREE]} error={tally[ERROR]} "
                f"skip={tally[SKIP]}"
            )
        for outcome in self.disagreements:
            lines.append(
                f"DISAGREE [{outcome.backend}] query "
                f"{outcome.query_id}: {outcome.detail}"
            )
        for outcome in self.errors:
            lines.append(
                f"ERROR [{outcome.backend}] query {outcome.query_id}: "
                f"{outcome.detail}"
            )
        attribution = self.rule_attribution()
        if attribution:
            lines.append("rule attribution (disagreements/errors):")
            for rule, counts in sorted(attribution.items()):
                lines.append(
                    f"  {rule:<32} generated_for={counts['generated_for']} "
                    f"implicated={counts['implicated']} "
                    f"errors={counts['errors']}"
                )
        lines.append("PASSED" if self.passed else "FAILED")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = ["# Differential fleet report", ""]
        lines.append(
            f"Fleet: {', '.join(f'`{b}`' for b in self.backends)} — "
            f"reference `{self.reference}`, {len(self.queries)} queries."
        )
        if self.skipped_backends:
            lines.append("")
            for name, reason in sorted(self.skipped_backends.items()):
                lines.append(f"- skipped `{name}`: {reason}")
        lines += [
            "",
            "| backend | agree | disagree | error | skip |",
            "|---|---:|---:|---:|---:|",
        ]
        for name, tally in sorted(self.tallies.items()):
            lines.append(
                f"| `{name}` | {tally[AGREE]} | {tally[DISAGREE]} "
                f"| {tally[ERROR]} | {tally[SKIP]} |"
            )
        if self.disagreements or self.errors:
            lines += ["", "## Findings", ""]
            by_query = {query.query_id: query for query in self.queries}
            for outcome in self.disagreements + self.errors:
                query = by_query.get(outcome.query_id)
                sql = ""
                if query is not None:
                    run = self.runs.get(outcome.query_id, {}).get(
                        self.reference
                    )
                    sql = f"\n  - `{run.sql}`" if run else ""
                lines.append(
                    f"- **{outcome.outcome}** `{outcome.backend}` on "
                    f"query {outcome.query_id}: {outcome.detail}{sql}"
                )
        lines += ["", f"**{'PASSED' if self.passed else 'FAILED'}**"]
        return "\n".join(lines)


class DifferentialRunner:
    """Fans a test suite across a backend fleet and unifies verdicts."""

    def __init__(
        self,
        database: Database,
        backends: Sequence[Backend],
        *,
        skipped_backends: Optional[Dict[str, str]] = None,
    ) -> None:
        if len(backends) < 2:
            raise ValueError(
                "a differential fleet needs at least two backends "
                f"(got {[b.name for b in backends]})"
            )
        names = [backend.name for backend in backends]
        if len(set(names)) != len(names):
            raise ValueError(f"backend names must be unique: {names}")
        self.database = database
        self.backends = list(backends)
        self.skipped_backends = dict(skipped_backends or {})

    # ------------------------------------------------------------- helpers

    def _run_backend(
        self, backend: Backend, queries: Sequence[SuiteQuery]
    ) -> List[BackendRun]:
        """One backend's pass over the suite, as one batch."""
        backend.ensure_ready(self.database)
        return backend.run_many(
            [(query.query_id, query.tree) for query in queries]
        )

    # -------------------------------------------------------------- public

    def run(self, suite: TestSuite, suite_info: Optional[Dict] = None) -> DiffReport:
        """Execute every suite query on every backend and unify."""
        queries = list(suite.queries)
        report = DiffReport(
            backends=[backend.name for backend in self.backends],
            reference=self.backends[0].name,
            skipped_backends=self.skipped_backends,
            suite_info=dict(suite_info or {}),
            queries=queries,
        )
        per_backend = [
            self._run_backend(backend, queries) for backend in self.backends
        ]
        for query, *runs in zip(queries, *per_backend):
            report.runs[query.query_id] = {
                run.backend: run for run in runs
            }
        self._unify(report)
        return report

    # --------------------------------------------------------- unification

    def _unify(self, report: DiffReport) -> None:
        reference, *others = report.backends
        for query in report.queries:
            runs = report.runs[query.query_id]
            report.outcomes.extend(
                self._judge(runs[reference], runs[name]) for name in others
            )

    def _judge(self, ref_run: BackendRun, run: BackendRun) -> DiffOutcome:
        query_id = run.query_id
        if not ref_run.succeeded:
            return DiffOutcome(
                query_id, run.backend, SKIP,
                f"reference failed: {ref_run.error}",
            )
        if not run.succeeded:
            return DiffOutcome(query_id, run.backend, ERROR, run.error or "")
        if ref_run.column_count != run.column_count and (
            ref_run.row_count and run.row_count
        ):
            return DiffOutcome(
                query_id, run.backend, DISAGREE,
                f"column count differs: {ref_run.column_count} vs "
                f"{run.column_count}",
            )
        if ref_run.digest != run.digest:
            # Only a disagreement pays for exact bags, to explain itself.
            return DiffOutcome(
                query_id, run.backend, DISAGREE,
                bag_diff_summary(ref_run.bag, run.bag),
            )
        return DiffOutcome(query_id, run.backend, AGREE)
