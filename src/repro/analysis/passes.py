"""The one ordered table of static passes.

``repro analyze`` runs the rows over the whole registry
(:meth:`AnalysisPass.run`) and :class:`repro.analysis.gate.RuleGate`
runs them over one candidate (:meth:`AnalysisPass.check_rule`); both
iterate :data:`STATIC_PASSES`, so the report order, the ``--skip-*``
selection and the gate's static stage are one sequence.  The plan
sanitizer is not a row: it runs inside the optimizer, not over the
registry.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.analysis.astlint import AstLinter
from repro.analysis.diagnostics import AnalysisPass
from repro.analysis.interact import InteractionAnalyzer
from repro.analysis.lint import RegistryLinter
from repro.analysis.verify import SubstitutionVerifier


class StaticPass(NamedTuple):
    """One row: ``build(registry, workloads, samples_per_workload=,
    seed=)`` constructs the pass."""

    #: Selector: ``repro analyze --skip-<name>``, or ``--<name>`` for an
    #: opt-in row.
    name: str
    build: Callable[..., AnalysisPass]
    #: Left out of a plain ``repro analyze`` (the gate runs every row).
    opt_in: bool = False


STATIC_PASSES = (
    StaticPass("lint", RegistryLinter),
    StaticPass("verify", SubstitutionVerifier),
    StaticPass("astlint", AstLinter),
    StaticPass("interactions", InteractionAnalyzer, opt_in=True),
)
