"""Optimizer configuration.

``disabled_rules`` is the paper's rule on/off switch (Section 2.3, "Query
Optimizer Extensions"): optimizing a query ``q`` under a config with rules
``R`` disabled yields ``Plan(q, ¬R)`` and ``Cost(q, ¬R)``.

The budget caps keep exploration finite even for rule combinations that can
generate unboundedly many fresh-column expressions (e.g. repeated union
re-association); hitting a cap stops exploration cleanly and optimization
proceeds with the alternatives found so far -- the same pruning posture the
paper attributes to production optimizers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import FrozenSet, Iterable


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for one optimization run.

    The dataclass is frozen and hashable so ``(tree fingerprint, config)``
    can key the :class:`repro.service.PlanService` caches; derive variants
    with :meth:`with_disabled` / :meth:`replaced` instead of mutating.
    """

    disabled_rules: FrozenSet[str] = frozenset()
    max_groups: int = 4000
    max_exprs_per_group: int = 64
    max_rule_applications: int = 50_000
    #: Run the plan sanitizer (see :mod:`repro.analysis.sanitize`) on every
    #: expression substitutions insert into the memo, every costed physical
    #: alternative, and the final extracted plan.  Off by default.
    sanitize_plans: bool = False

    def with_disabled(self, names: Iterable[str]) -> "OptimizerConfig":
        """This config with additional rules disabled."""
        return dataclasses.replace(
            self, disabled_rules=self.disabled_rules | frozenset(names)
        )

    def replaced(self, **changes: object) -> "OptimizerConfig":
        """This config with the given fields replaced (frozen-safe update)."""
        return dataclasses.replace(self, **changes)

    def is_disabled(self, rule_name: str) -> bool:
        return rule_name in self.disabled_rules

    def cache_token(self) -> str:
        """Deterministic text form of this config, stable across processes.

        ``hash()`` of a frozen dataclass with string members varies with
        ``PYTHONHASHSEED``, so the persistent plan cache keys on this token
        instead.  ``disabled_rules`` is emitted sorted.
        """
        disabled = ",".join(sorted(self.disabled_rules))
        return (
            f"disabled=[{disabled}];groups={self.max_groups};"
            f"exprs={self.max_exprs_per_group};"
            f"apps={self.max_rule_applications};"
            f"sanitize={int(self.sanitize_plans)}"
        )


#: The one shared default configuration.  Every layer (CLI, correctness
#: runner, suite builder, query generator, service) starts from this object
#: and derives variants via ``with_disabled`` / ``replaced``, so there is a
#: single source of truth for the default budgets.
DEFAULT_CONFIG = OptimizerConfig()
