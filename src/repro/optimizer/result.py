"""Optimization results.

:class:`OptimizeResult` is the framework's window into the optimizer --
``rules_exercised`` is the paper's ``RuleSet(q)`` and ``cost`` its
``Cost(q)`` (or ``Cost(q, ¬R)`` when rules were disabled in the config).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.expr.expressions import Column
from repro.physical.operators import PhysicalOp


class OptimizationError(Exception):
    """Raised when no executable plan can be produced."""


@dataclass(frozen=True)
class MemoStats:
    """Search-effort counters for one optimization."""

    group_count: int
    expr_count: int
    #: Exploration-rule firings (what ``max_rule_applications`` caps).
    rule_applications: int
    #: Which cap cut the search, None when it was not cut: ``groups`` or
    #: ``exprs`` (a memo cap was hit), ``applications`` (the application
    #: cap left a root-matching (expression, rule) pair untried) or
    #: ``absorb`` (a group absorb stopped at the expression cap with
    #: alternatives left uncopied).
    cut: Optional[str] = None
    #: The group whose exploration hit :attr:`cut`, when known.
    cut_group: Optional[int] = None
    #: Physical alternatives costed during implementation (``local_cost``
    #: calls); 0 for a run that stopped after exploration.
    costings: int = 0
    #: Sort enforcers considered to satisfy a required ordering.
    enforcers: int = 0

    @property
    def budget_exhausted(self) -> bool:
        """The search was cut (see :attr:`cut`)."""
        return self.cut is not None


@dataclass(frozen=True)
class RuleCounters:
    """Per-rule attempt outcomes for one optimization.

    ``considered`` counts (expression, rule) attempts: the pairs whose
    pattern root matches the expression's operator kind, i.e. those the
    rule's compiled matcher was called for -- the engine's rule index never
    forms the rest.  ``fired`` counts the attempts whose substitution produced at
    least one alternative (the paper's *exercised* predicate); ``rejected``
    the rest (a join-kind or child-pattern mismatch left no binding, or
    every binding failed the precondition).  Always
    ``considered == fired + rejected``.  ``precondition_failures`` counts
    the single bindings the precondition discarded, so one attempt can add
    several.  Every active rule has a row, all zero when no expression of
    its kind turned up.
    """

    name: str
    considered: int
    fired: int
    rejected: int
    precondition_failures: int = 0


@dataclass(frozen=True)
class Unexercised:
    """A generation trial's *no*, known once exploration ended: a target
    rule that only exploration could exercise is not in ``RuleSet(q)``, so
    the optimizer stopped there, without implementation or plan.  The run
    reports its counts all the same, as a result does."""

    #: Search-effort counters of the exploration (no costings, no
    #: enforcers).
    stats: MemoStats
    #: Per-rule counts of the exploration, sorted by rule name.
    rule_counters: Tuple[RuleCounters, ...]


@dataclass(frozen=True)
class OptimizeResult:
    """The output of one optimizer invocation."""

    #: The chosen physical plan (an executable operator tree).
    plan: PhysicalOp
    #: Estimated cost of :attr:`plan` in cost units.
    cost: float
    #: ``RuleSet(q)``: names of rules exercised during this optimization.
    rules_exercised: FrozenSet[str]
    #: Output columns of the original query, in presentation order.
    output_columns: Tuple[Column, ...]
    #: Search-effort counters.
    stats: MemoStats
    #: Derived rule interactions (Section 7): ``(producer, consumer)`` pairs
    #: where ``consumer`` was exercised on an expression created by
    #: ``producer``'s substitution.
    rule_interactions: FrozenSet[Tuple[str, str]] = frozenset()
    #: Per-rule attempt outcomes (see :class:`RuleCounters`), sorted by
    #: rule name.
    rule_counters: Tuple[RuleCounters, ...] = ()
    #: The rules :attr:`cost` rests on: the implementation rule of each
    #: physical operator of :attr:`plan`, the memo support of the logical
    #: expressions it implements, and the memo's ``landed_support`` (see
    #: :mod:`repro.optimizer.memo`).  When the search was not cut
    #: and a rule set ``R`` avoids it, the plan service answers
    #: ``Cost(q, ¬R)`` with ``Cost(q)`` -- the paper's Section 7
    #: *relevance* of ``R`` to ``q``, read off.
    plan_support: FrozenSet[str] = frozenset()

    def exercised(self, rule_name: str) -> bool:
        return rule_name in self.rules_exercised

    def exercised_all(self, rule_names) -> bool:
        return all(name in self.rules_exercised for name in rule_names)

    def rule_firing_summary(self) -> Tuple[int, int, int]:
        """Totals over :attr:`rule_counters`: (considered, fired, rejected)."""
        considered = sum(c.considered for c in self.rule_counters)
        fired = sum(c.fired for c in self.rule_counters)
        rejected = sum(c.rejected for c in self.rule_counters)
        return considered, fired, rejected
