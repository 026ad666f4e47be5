"""The diagnostic model shared by all static-analysis passes.

Every pass (registry lint, substitution verification, plan sanitizing)
reports findings as :class:`Diagnostic` records -- a stable code, a
severity, the rule or plan location the finding anchors to, and a
human-readable message.  :class:`AnalysisReport` aggregates diagnostics
across passes and renders them for humans (``to_text``) or machines
(``to_json``).

Severity policy (documented in ``docs/ANALYSIS.md``):

* **ERROR** -- the rule or plan is provably wrong: an invalid tree, a
  schema change, a lost derived property, a provably empty rewrite.  The
  clean seed registry must report zero errors.
* **WARNING** -- likely a defect but with a sampling or drift caveat
  (dead patterns, never-passing preconditions, stale documentation).
* **INFO** -- observations that are normal in a healthy registry
  (duplicate structural patterns distinguished by preconditions, large
  but plausible estimate drift).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rules.framework import Rule
    from repro.rules.registry import RuleRegistry


class Severity(enum.Enum):
    """Diagnostic severity, ordered ERROR > WARNING > INFO."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def at_least(self, other: "Severity") -> bool:
        return self.rank >= other.rank


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    code: str
    severity: Severity
    message: str
    #: Name of the rule the finding is about (None for plan-level findings).
    rule: Optional[str] = None
    #: Free-form location: a pattern position, binding description, plan
    #: node, source line, or documentation anchor.
    location: Optional[str] = None
    #: One-line remediation suggestion (set by passes whose findings have a
    #: mechanical fix, e.g. the implementation AST lint).
    hint: Optional[str] = None

    def __str__(self) -> str:
        where = self.rule or "-"
        if self.location:
            where = f"{where} @ {self.location}"
        text = f"{self.severity.value.upper()} {self.code} [{where}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "rule": self.rule,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class AnalysisReport:
    """Aggregated findings of one or more analysis passes."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Work counters per pass, e.g. {"rules_linted": 35, "bindings": 412}.
    counters: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------- mutation

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Sequence[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def merge(self, other: "AnalysisReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        for key, value in other.counters.items():
            self.count(key, value)

    # -------------------------------------------------------------- queries

    def with_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.with_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.with_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.with_severity(Severity.INFO)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def for_rule(self, rule_name: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule_name]

    def at_or_above(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity.at_least(severity)]

    # ------------------------------------------------------------ rendering

    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info"
        )

    def to_text(self) -> str:
        """Human-readable report, most severe findings first."""
        lines: List[str] = []
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (-d.severity.rank, d.code, d.rule or ""),
        )
        for diagnostic in ordered:
            lines.append(str(diagnostic))
        if self.counters:
            checked = ", ".join(
                f"{key}={value}" for key, value in sorted(self.counters.items())
            )
            lines.append(f"-- {checked}")
        lines.append(f"-- {self.summary()}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "counters": dict(sorted(self.counters.items())),
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=False)


class AnalysisPass:
    """The protocol of a static pass over a rule registry.

    Every pass is constructed with the same keywords, reports on the
    whole registry through :meth:`run` and on one rule (the admission
    gate's entry point) through :meth:`check_rule`; both return an
    :class:`AnalysisReport`.  ``repro.analysis.STATIC_PASSES`` lists the
    passes in report order.  A pass that needs no synthesized bindings
    (the AST lint) accepts and ignores the sampling keywords.
    """

    #: Bindings synthesized per rule per workload when the caller does
    #: not say.
    DEFAULT_SAMPLES = 6
    #: Work counter the default :meth:`run` bumps once per rule.
    RULE_COUNTER: str

    def __init__(
        self,
        registry: "RuleRegistry",
        workloads: Optional[Sequence] = None,
        samples_per_workload: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        from repro.analysis.verify import default_workloads

        self.registry = registry
        self.workloads = list(
            workloads if workloads is not None else default_workloads()
        )
        self.samples = (
            self.DEFAULT_SAMPLES
            if samples_per_workload is None
            else samples_per_workload
        )
        self.seed = seed

    def run(self) -> AnalysisReport:
        """Check every rule of the registry."""
        report = AnalysisReport()
        for rule in self.registry.all_rules:
            report.merge(self.check_rule(rule))
            report.count(self.RULE_COUNTER)
        return report

    def check_rule(self, rule: "Rule") -> AnalysisReport:
        """Check one rule in the context of the registry."""
        raise NotImplementedError
