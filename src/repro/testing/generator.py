"""The Query Generation component (paper, Figure 2).

:class:`QueryGenerator` ties together the two generation strategies --
RANDOM (stochastic baseline) and PATTERN (rule-pattern driven) -- with the
optimizer extensions (``RuleSet(q)`` tracking), and exposes the paper's
interfaces:

* generate a SQL query exercising a **singleton rule** (Section 3.1);
* generate a SQL query exercising a **rule pair** via pattern composition
  (Section 3.2);
* generate more complex queries by **adding N random operators** to a
  pattern-derived tree (Section 2.3, used for correctness testing);
* the Section 7 variant: generate a query for which a rule is **relevant**
  (turning the rule off changes the chosen plan).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.logical.cardinality import CardinalityEstimator
from repro.logical.operators import LogicalOp
from repro.logical.validate import ValidationError, validate_tree
from repro.optimizer.result import OptimizationError, OptimizeResult
from repro.rules.registry import RuleRegistry, default_registry
from repro.service import PlanService
from repro.sql.generate import to_sql
from repro.storage.database import Database
from repro.testing.builders import GenerationFailure
from repro.testing.composition import compose_patterns
from repro.testing.pattern_gen import (
    PatternInstantiator,
    add_random_operators,
    merge_hints,
)
from repro.testing.random_gen import RandomQueryGenerator

#: The largest *estimated* result -- root rows x output columns -- a drawn
#: tree may have and still be tried; read only by ``QueryGenerator._campaign``.
#: Every query a campaign keeps is executed and digested by each oracle, so a
#: tree estimated past this is redrawn instead of being fetched and hashed.
MAX_RESULT_CELLS = 1_000_000


@dataclass
class GenerationOutcome:
    """Result of one generation campaign for a rule (or rule set)."""

    target_rules: Tuple[str, ...]
    succeeded: bool
    trials: int
    optimizer_calls: int
    elapsed_seconds: float
    tree: Optional[LogicalOp] = None
    sql: Optional[str] = None
    optimize_result: Optional[OptimizeResult] = None
    #: Of a failed campaign: the trees that reached the optimizer, in trial
    #: order -- none of them exercised every target.
    tried: Tuple[LogicalOp, ...] = ()
    #: Draws skipped because their estimated result exceeded
    #: ``MAX_RESULT_CELLS``: each used up a trial and none reached the
    #: optimizer (counted whether or not the campaign succeeded).
    oversized: int = 0

    @property
    def operator_count(self) -> int:
        return self.tree.tree_size() if self.tree is not None else 0


class QueryGenerator:
    """Generates SQL test queries that exercise target transformation rules."""

    def __init__(
        self,
        database: Database,
        registry: Optional[RuleRegistry] = None,
        seed: int = 0,
        service: Optional[PlanService] = None,
    ) -> None:
        self.database = database
        self.registry = registry or default_registry()
        #: Trials are asked under the service's own config, so that what
        #: its owner set (e.g. ``sanitize_plans``) holds for them too.
        self.service = service or PlanService(database, registry=self.registry)
        self.stats = self.service.stats
        self._estimator = CardinalityEstimator(database.catalog, self.stats)
        self.rng = random.Random(seed)
        self._random_gen = RandomQueryGenerator(
            database.catalog, seed=self.rng.randrange(2**31), stats=self.stats
        )
        self._instantiator = PatternInstantiator(
            database.catalog, self.rng, self.stats
        )

    # ------------------------------------------------------------- internals

    def _try_query(
        self, tree: LogicalOp, targets: Sequence[str]
    ) -> Optional[OptimizeResult]:
        """One trial's question to the optimizer: is every target in
        ``RuleSet(tree)``?  The result if so, else ``None``."""
        try:
            return self.service.optimize_exercising(tree, targets)
        except OptimizationError:
            return None

    def _note_oversized(
        self, tree: LogicalOp, targets: Sequence[str], rows: float,
        columns: int,
    ) -> None:
        """Make one redraw visible as a trace event (the count is
        ``GenerationOutcome.oversized``)."""
        self.service.tracer.event(
            "generation.oversized", cat="testing",
            targets=",".join(targets), rows=round(rows),
            columns=columns, fingerprint=tree.fingerprint()[:12],
        )

    def _campaign(
        self,
        targets: Sequence[str],
        make_tree,
        max_trials: int,
        accept=None,
    ) -> GenerationOutcome:
        """Run trials of ``make_tree`` until all ``targets`` are exercised
        (and ``accept(tree, result)``, when given, agrees).  A draw that is
        invalid, or estimated over ``MAX_RESULT_CELLS``, is a spent trial:
        it never reaches the service and is not in ``tried``."""
        start = time.perf_counter()
        tried = []
        oversized = 0
        for trial in range(1, max_trials + 1):
            try:
                tree = make_tree(trial)
            except GenerationFailure:
                continue
            if tree is None:
                continue
            try:
                columns = len(validate_tree(tree, self.database.catalog))
            except ValidationError:
                continue  # never reaches the optimizer
            rows = self._estimator.estimate_tree(tree).rows
            if rows * columns > MAX_RESULT_CELLS:
                # Nor does a result too dear to fetch and hash: the trial
                # is spent and the loop draws again.
                oversized += 1
                self._note_oversized(tree, targets, rows, columns)
                continue
            tried.append(tree)
            result = self._try_query(tree, targets)
            if result is not None and (
                accept is None or accept(tree, result)
            ):
                return GenerationOutcome(
                    target_rules=tuple(targets),
                    succeeded=True,
                    trials=trial,
                    optimizer_calls=len(tried),
                    elapsed_seconds=time.perf_counter() - start,
                    tree=tree,
                    sql=to_sql(tree),
                    optimize_result=result,
                    oversized=oversized,
                )
        return GenerationOutcome(
            target_rules=tuple(targets),
            succeeded=False,
            trials=max_trials,
            optimizer_calls=len(tried),
            elapsed_seconds=time.perf_counter() - start,
            tried=tuple(tried),
            oversized=oversized,
        )

    def query_for_node(
        self,
        node: Sequence[str],
        method: str = "pattern",
        max_trials: Optional[int] = None,
        extra_operators: int = 0,
    ) -> GenerationOutcome:
        """One entry point over the four strategies below: ``node`` is a
        singleton or a rule pair, ``method`` is ``"pattern"`` or
        ``"random"``; ``max_trials=None`` keeps the strategy's own default
        and ``extra_operators`` applies to singleton pattern queries."""
        limit = {} if max_trials is None else {"max_trials": max_trials}
        if len(node) == 2:
            if method == "pattern":
                return self.pattern_query_for_pair(*node, **limit)
            return self.random_query_for_pair(*node, **limit)
        if method == "pattern":
            return self.pattern_query_for_rule(
                node[0], extra_operators=extra_operators, **limit
            )
        return self.random_query_for_rule(node[0], **limit)

    # -------------------------------------------------------- singleton rules

    def random_query_for_rule(
        self, rule_name: str, max_trials: int = 500
    ) -> GenerationOutcome:
        """RANDOM baseline: stochastic trees until the rule is exercised."""
        self.registry.rule(rule_name)  # validate the name early

        def make_tree(_trial: int) -> LogicalOp:
            return self._random_gen.random_tree()

        return self._campaign([rule_name], make_tree, max_trials)

    def pattern_query_for_rule(
        self,
        rule_name: str,
        max_trials: int = 25,
        extra_operators: int = 0,
    ) -> GenerationOutcome:
        """PATTERN: instantiate the rule's own pattern (Section 3.1).

        ``extra_operators`` wraps each candidate in that many additional
        random operators (the complexity knob of Section 2.3).
        """
        rule = self.registry.rule(rule_name)
        hints = merge_hints([rule])

        def make_tree(_trial: int) -> LogicalOp:
            tree = self._instantiator.instantiate(rule.pattern, hints)
            if extra_operators:
                tree = add_random_operators(
                    tree,
                    extra_operators,
                    self.database.catalog,
                    self.rng,
                    self.stats,
                )
            return tree

        return self._campaign([rule_name], make_tree, max_trials)

    # ------------------------------------------------------------- rule pairs

    def random_query_for_pair(
        self, first: str, second: str, max_trials: int = 2000
    ) -> GenerationOutcome:
        """RANDOM baseline for a rule pair."""
        self.registry.rule(first)
        self.registry.rule(second)

        def make_tree(_trial: int) -> LogicalOp:
            return self._random_gen.random_tree()

        return self._campaign([first, second], make_tree, max_trials)

    def pattern_query_for_pair(
        self, first: str, second: str, max_trials: int = 50
    ) -> GenerationOutcome:
        """PATTERN for a rule pair via pattern composition (Section 3.2).

        Composite patterns are tried smallest-first, so the first success is
        the candidate with the fewest operators.
        """
        rule_a = self.registry.rule(first)
        rule_b = self.registry.rule(second)
        composites = compose_patterns(rule_a.pattern, rule_b.pattern)
        hints = merge_hints([rule_a, rule_b])

        def make_tree(trial: int) -> LogicalOp:
            # Cycle through composites; several trials per composite.
            composite = composites[(trial - 1) % len(composites)]
            return self._instantiator.instantiate(composite, hints)

        return self._campaign([first, second], make_tree, max_trials)

    # -------------------------------------------------- Section 7 extensions

    def derived_interaction_query(
        self, producer: str, consumer: str, max_trials: int = 80
    ) -> GenerationOutcome:
        """Generate a query exhibiting the Section 7 interaction variant:
        ``consumer`` is exercised on an expression *obtained as a result of
        exercising* ``producer`` (not merely both firing somewhere).

        Uses pattern composition as for plain pairs, but accepts a candidate
        only when the optimizer's provenance tracking recorded the
        ``(producer, consumer)`` edge.
        """
        rule_a = self.registry.rule(producer)
        rule_b = self.registry.rule(consumer)
        composites = compose_patterns(rule_a.pattern, rule_b.pattern)
        hints = merge_hints([rule_a, rule_b])

        def make_tree(trial: int) -> LogicalOp:
            composite = composites[(trial - 1) % len(composites)]
            return self._instantiator.instantiate(composite, hints)

        def derived(_tree: LogicalOp, result: OptimizeResult) -> bool:
            return (producer, consumer) in result.rule_interactions

        return self._campaign(
            [producer, consumer], make_tree, max_trials, accept=derived
        )

    def relevant_query_for_rule(
        self, rule_name: str, max_trials: int = 50
    ) -> GenerationOutcome:
        """Generate a query for which ``rule_name`` is *relevant*: turning
        the rule off changes the optimizer's chosen plan (Section 7)."""
        rule = self.registry.rule(rule_name)
        hints = merge_hints([rule])
        disabled_config = self.service.config.with_disabled([rule_name])
        reoptimized = 0

        def make_tree(_trial: int) -> LogicalOp:
            return self._instantiator.instantiate(rule.pattern, hints)

        def changes_plan(tree: LogicalOp, result: OptimizeResult) -> bool:
            nonlocal reoptimized
            reoptimized += 1
            try:
                without = self.service.optimize(tree, disabled_config)
            except OptimizationError:
                return False
            return without.plan != result.plan

        outcome = self._campaign(
            [rule_name], make_tree, max_trials, accept=changes_plan
        )
        outcome.optimizer_calls += reoptimized
        return outcome
