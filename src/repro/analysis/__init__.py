"""Static analysis of the rule registry and optimizer plans.

Six passes over a shared diagnostic model (see ``docs/ANALYSIS.md``); the
four that read the registry (1, 2, 4, 5) follow one protocol,
:class:`AnalysisPass`, and are listed once, in report order, in
:data:`STATIC_PASSES` (:mod:`repro.analysis.passes`):

1. registry lint (:mod:`repro.analysis.lint`) -- pattern well-formedness,
   duplicate/subsumed patterns, dead rules;
2. symbolic substitution verification (:mod:`repro.analysis.verify`) --
   synthesize bindings from each rule's pattern, apply the substitution,
   and check schema, keys, non-null columns and row bounds statically;
3. the plan sanitizer (:mod:`repro.analysis.sanitize`) -- invariant checks
   wired into the optimizer behind ``OptimizerConfig.sanitize_plans``;
4. the rule-interaction graph (:mod:`repro.analysis.interact`) -- which
   rule's outputs feed which rule's pattern, with cycle/commuting/
   redundancy/blind-spot findings over the graph;
5. the implementation AST lint (:mod:`repro.analysis.astlint`) -- drift
   between a rule's declared pattern and its Python implementation;
6. the admission gate (:mod:`repro.analysis.gate`) -- RL+SV+AL+IG plus a
   sampled dynamic differential check, composed into one pass/fail
   verdict per candidate rule.
"""

from repro.analysis.astlint import AstLinter
from repro.analysis.bounds import BoundsDeriver, RowBounds
from repro.analysis.context import TreeContext
from repro.analysis.diagnostics import (
    AnalysisPass,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.gate import GateVerdict, RuleGate
from repro.analysis.interact import (
    InteractionAnalyzer,
    InteractionEdge,
    InteractionGraph,
    interaction_markdown,
)
from repro.analysis.lint import (
    RegistryLinter,
    pattern_subsumes,
    synthesize_bindings,
)
from repro.analysis.passes import STATIC_PASSES, StaticPass
from repro.analysis.sanitize import (
    MonotonicityGuard,
    PlanSanitizer,
    PlanSanityError,
    sanitized_plan_smoke,
)
from repro.analysis.verify import SubstitutionVerifier, default_workloads

__all__ = [
    "AnalysisPass",
    "AnalysisReport",
    "AstLinter",
    "BoundsDeriver",
    "Diagnostic",
    "GateVerdict",
    "InteractionAnalyzer",
    "InteractionEdge",
    "InteractionGraph",
    "MonotonicityGuard",
    "PlanSanitizer",
    "PlanSanityError",
    "RegistryLinter",
    "RowBounds",
    "RuleGate",
    "STATIC_PASSES",
    "Severity",
    "StaticPass",
    "SubstitutionVerifier",
    "TreeContext",
    "default_workloads",
    "interaction_markdown",
    "pattern_subsumes",
    "sanitized_plan_smoke",
    "synthesize_bindings",
]
