"""Pass 1: registry lint.

Structural checks over the rule registry that need no binding synthesis:

* **RL101** pattern arity: every non-generic pattern node must have exactly
  as many children as the operator it names (a mismatched node can never
  structurally match, so the rule is dead by construction);
* **RL102** pattern XML round-trip: ``pattern_from_xml(pattern_to_xml(p))``
  must reproduce ``p`` -- the XML export is the interface the query
  generator consumes, so a lossy round-trip silently breaks generation;
* **RL103** rule naming: empty or non-identifier names break the registry's
  name-keyed APIs and CLI selection;
* **RL110** duplicate patterns (INFO): two rules with identical patterns
  are normal when preconditions differ, but worth surfacing;
* **RL111** subsumed patterns (INFO): one rule's pattern matches strictly
  more trees than another's;
* **RL120** dead pattern (WARNING): no binding could be synthesized from
  the pattern against any bundled workload schema;
* **RL121** dead precondition (WARNING): bindings were synthesized but the
  precondition rejected every one of them.

Documentation drift is checked by ``tools/generate_rule_docs.py --check``,
which compares the generated files whole.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.analysis.context import TreeContext
from repro.analysis.diagnostics import (
    AnalysisPass,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.logical.operators import OPERATOR_CLASSES, LogicalOp
from repro.logical.validate import ValidationError, validate_tree
from repro.rules.framework import (
    PatternNode,
    Rule,
    match_structure,
    pattern_from_xml,
    pattern_to_xml,
    walk_pattern,
)
from repro.testing.builders import GenerationFailure
from repro.testing.pattern_gen import PatternInstantiator, merge_hints

def synthesize_bindings(
    rule: Rule,
    workloads: Sequence,
    samples: int,
    stream: str,
) -> List[Tuple[str, TreeContext, LogicalOp]]:
    """Synthesize validated sample bindings for ``rule`` from its pattern.

    The one binding sampler of the static passes: for every bundled
    workload, instantiate the rule's pattern ``samples`` times with
    per-index seeded RNGs, keep only trees that structurally match the
    pattern and validate against the catalog.  Returns ``(workload name,
    context, tree)`` triples; deterministic for a fixed ``stream`` (each
    pass draws from its own, so passes do not share samples).
    """
    hints = merge_hints([rule])
    bindings: List[Tuple[str, TreeContext, LogicalOp]] = []
    for workload_name, catalog, stats in workloads:
        context = TreeContext(catalog, stats)
        for index in range(samples):
            rng = random.Random(
                f"{stream}:{rule.name}:{workload_name}:{index}"
            )
            instantiator = PatternInstantiator(catalog, rng, stats)
            try:
                tree = instantiator.instantiate(rule.pattern, hints)
            except GenerationFailure:
                continue
            except Exception:  # noqa: BLE001 - malformed patterns crash
                continue       # the generator; RL101/RL120 report them
            if not match_structure(tree, rule.pattern):
                continue
            try:
                validate_tree(tree, catalog)
            except ValidationError:
                continue
            bindings.append((workload_name, context, tree))
    return bindings


def pattern_subsumes(wider: PatternNode, narrower: PatternNode) -> bool:
    """Does every tree matching ``narrower`` also match ``wider``?"""
    if wider.is_generic:
        return True
    if narrower.is_generic:
        return False
    if wider.kind is not narrower.kind:
        return False
    if wider.join_kinds is not None:
        if narrower.join_kinds is None:
            return False
        if not set(narrower.join_kinds) <= set(wider.join_kinds):
            return False
    if len(wider.children) != len(narrower.children):
        # Arity differences make the narrower pattern match trees the wider
        # one cannot (or vice versa); treat as incomparable.
        return False
    return all(
        pattern_subsumes(w, n)
        for w, n in zip(wider.children, narrower.children)
    )


class RegistryLinter(AnalysisPass):
    """Structural lint over a rule registry."""

    # ------------------------------------------------------------------ run

    def run(self) -> AnalysisReport:
        report = AnalysisReport()
        for rule in self.registry.all_rules:
            self._lint_pattern(report, rule)
            self._lint_name(report, rule)
            report.count("rules_linted")
        self._lint_duplicates(report)
        for rule in self.registry.all_rules:
            self._lint_rule_liveness(report, rule)
        return report

    def check_rule(self, rule: Rule) -> AnalysisReport:
        """Scoped lint of one rule (the admission gate's entry point).

        Runs the structural and liveness checks; the registry-wide
        duplicate check needs full-registry context and is left to
        :meth:`run`.
        """
        report = AnalysisReport()
        self._lint_pattern(report, rule)
        self._lint_name(report, rule)
        self._lint_rule_liveness(report, rule)
        report.count("rules_linted")
        return report

    # ----------------------------------------------------------- structural

    def _lint_pattern(self, report: AnalysisReport, rule: Rule) -> None:
        for node, path in walk_pattern(rule.pattern):
            if node.is_generic:
                continue
            # A node whose child count differs from its operator's can
            # never match (see ``match_structure``).
            operator = OPERATOR_CLASSES.get(node.kind)
            if operator is None:
                report.add(
                    Diagnostic(
                        "RL101",
                        Severity.ERROR,
                        f"pattern node has unknown operator kind {node.kind}",
                        rule=rule.name,
                        location=path,
                    )
                )
            elif len(node.children) != len(operator.child_fields):
                report.add(
                    Diagnostic(
                        "RL101",
                        Severity.ERROR,
                        f"pattern node {node.kind.value} has "
                        f"{len(node.children)} children but the operator "
                        f"takes {len(operator.child_fields)}; the rule can "
                        "never match",
                        rule=rule.name,
                        location=path,
                    )
                )
        try:
            round_tripped = pattern_from_xml(pattern_to_xml(rule.pattern))
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            report.add(
                Diagnostic(
                    "RL102",
                    Severity.ERROR,
                    f"pattern XML round-trip raised "
                    f"{type(exc).__name__}: {exc}",
                    rule=rule.name,
                )
            )
            return
        if round_tripped != rule.pattern:
            report.add(
                Diagnostic(
                    "RL102",
                    Severity.ERROR,
                    "pattern XML round-trip is lossy: "
                    f"{rule.pattern} became {round_tripped}",
                    rule=rule.name,
                )
            )

    def _lint_name(self, report: AnalysisReport, rule: Rule) -> None:
        if not rule.name or not rule.name.isidentifier():
            report.add(
                Diagnostic(
                    "RL103",
                    Severity.ERROR,
                    f"rule name {rule.name!r} is not a valid identifier",
                    rule=rule.name or type(rule).__name__,
                )
            )

    def _lint_duplicates(self, report: AnalysisReport) -> None:
        rules = self.registry.all_rules
        by_pattern: Dict[str, List[Rule]] = {}
        for rule in rules:
            by_pattern.setdefault(str(rule.pattern), []).append(rule)
        for pattern_str, group in sorted(by_pattern.items()):
            exploration = [r for r in group if r.is_exploration]
            if len(exploration) > 1:
                names = ", ".join(sorted(r.name for r in exploration))
                report.add(
                    Diagnostic(
                        "RL110",
                        Severity.INFO,
                        f"rules {names} share the pattern `{pattern_str}` "
                        "(fine when their preconditions differ)",
                        rule=sorted(r.name for r in exploration)[0],
                    )
                )
        for wider in rules:
            for narrower in rules:
                if wider is narrower:
                    continue
                if wider.is_exploration != narrower.is_exploration:
                    continue
                if str(wider.pattern) == str(narrower.pattern):
                    continue  # exact duplicates reported as RL110
                # A shallow pattern trivially subsumes every deeper one
                # through its generic leaves; only same-shape subsumption
                # (a strictly wider join-kind set) is worth surfacing.
                if wider.pattern.size() != narrower.pattern.size():
                    continue
                if pattern_subsumes(
                    wider.pattern, narrower.pattern
                ) and not wider.pattern.is_generic:
                    report.add(
                        Diagnostic(
                            "RL111",
                            Severity.INFO,
                            f"pattern `{wider.pattern}` subsumes "
                            f"{narrower.name}'s `{narrower.pattern}`",
                            rule=wider.name,
                        )
                    )

    # ------------------------------------------------------------- liveness

    def _lint_rule_liveness(self, report: AnalysisReport, rule: Rule) -> None:
        bindings = synthesize_bindings(
            rule, self.workloads, self.samples, f"lint:{self.seed}"
        )
        if not bindings:
            report.add(
                Diagnostic(
                    "RL120",
                    Severity.WARNING,
                    "no binding could be synthesized from the pattern "
                    "against any bundled workload schema; the rule "
                    "may be dead",
                    rule=rule.name,
                )
            )
            return
        passed = 0
        for _, context, tree in bindings:
            try:
                if rule.precondition(tree, context):
                    passed += 1
            except Exception:  # noqa: BLE001 - verify pass reports SV201
                continue
        if passed == 0:
            report.add(
                Diagnostic(
                    "RL121",
                    Severity.WARNING,
                    f"precondition rejected all {len(bindings)} "
                    "synthesized bindings; the rule may never fire",
                    rule=rule.name,
                )
            )
