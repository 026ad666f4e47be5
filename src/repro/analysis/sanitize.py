"""Pass 3: the plan sanitizer.

Invariant checks the optimizer can run on itself, wired into
:mod:`repro.optimizer.engine` behind ``OptimizerConfig.sanitize_plans``
(off by default -- zero overhead unless enabled):

* **SA301** every column an inserted memo expression references must be
  produced by the child group(s) it reads it from, as the operator declares
  in :meth:`~repro.logical.operators.Operator.column_reads` (the
  declaration ``validate_tree`` checks plain trees against); a final
  plan's operators are checked against their own ``column_reads()`` the
  same way, their inputs producing their ``result_columns()``;
* **SA302** an expression's derived output schema must equal its group's
  (a substitution that lands a different-schema expression in a group
  corrupts every plan extracted through it);
* **SA303** every physical operator's ordering requirements must be
  satisfied by what its children provide (e.g. a MergeJoin over unsorted
  input);
* **SA304** every costed operator must have a finite, non-negative cost;
* **SA306** the final physical plan must resolve all column references
  bottom-up and produce the query's output columns.

**SA305** is the cross-run monotonicity invariant ``Cost(q) <=
Cost(q, not R)`` -- disabling rules can only remove alternatives, so the
unrestricted optimizer must never pick a costlier plan than a restricted
one.  It cannot be checked inside a single optimization;
:class:`MonotonicityGuard` is the assertion hook callers feed with
(base cost, restricted cost) pairs.

All violations raise :class:`PlanSanityError` (an
:class:`~repro.optimizer.result.OptimizationError`), so a corrupted
rewrite fails the optimization instead of silently producing a wrong
plan.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.catalog.schema import Catalog
from repro.expr.expressions import Column, column_ids
from repro.logical.operators import GroupRef
from repro.logical.properties import PropertyDeriver
from repro.optimizer.config import DEFAULT_CONFIG
from repro.optimizer.result import OptimizationError
from repro.physical.operators import Ordering, PhysicalOp, ordering_satisfies


class PlanSanityError(OptimizationError):
    """A sanitizer invariant was violated."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class PlanSanitizer:
    """Invariant checks over memo insertions and extracted physical plans."""

    def __init__(self, catalog: Catalog) -> None:
        self._deriver = PropertyDeriver(catalog)
        #: Number of invariant checks performed (for overhead accounting
        #: and the off-by-default test).
        self.checks = 0

    # ------------------------------------------------------ memo insertions

    def check_group_expr(self, expr, memo, rule_name: Optional[str] = None) -> None:
        """Validate one memo-form group expression a substitution inserted.

        ``expr.op``'s children are :class:`GroupRef` leaves; every column
        the expression reads must come from the child group(s) its
        operator declares for that read (SA301), and the expression must
        derive the same output schema as its group (SA302).
        """
        self.checks += 1
        op = expr.op
        origin = f" (inserted by rule {rule_name})" if rule_name else ""
        child_props = []
        for child in op.children:
            if not isinstance(child, GroupRef):
                raise PlanSanityError(
                    "SA301",
                    f"memo expression {op.describe()} has a non-GroupRef "
                    f"child{origin}",
                )
            child_props.append(memo.group(child.group_id).props)
        dangling = op.dangling_read(
            tuple(props.column_ids for props in child_props)
        )
        if dangling is not None:
            _read, column = dangling
            raise PlanSanityError(
                "SA301",
                f"{op.describe()} references column "
                f"{column.qualified_name}#{column.cid}, which no "
                f"child group it reads from produces{origin}",
            )
        derived = self._deriver.derive(op, tuple(child_props))
        group_props = memo.group(expr.group_id).props
        if derived.column_ids != group_props.column_ids:
            raise PlanSanityError(
                "SA302",
                f"{op.describe()} derives output columns "
                f"{sorted(derived.column_ids)} but its group's schema is "
                f"{sorted(group_props.column_ids)}{origin}",
            )

    # ---------------------------------------------------------------- costs

    def check_cost(self, op: PhysicalOp, cost: float) -> None:
        """SA304: a costed physical alternative must have a sane cost."""
        self.checks += 1
        if math.isnan(cost) or cost < 0.0:
            raise PlanSanityError(
                "SA304",
                f"{op.describe()} was costed at {cost!r}; costs must be "
                "finite and non-negative",
            )

    # ---------------------------------------------------------- final plans

    def check_plan(
        self, plan: PhysicalOp, output_columns: Tuple[Column, ...]
    ) -> None:
        """Validate a fully extracted physical plan bottom-up.

        Checks column-reference resolution (SA301), ordering requirements
        (SA303) and output completeness (SA306).
        """
        self.checks += 1
        columns, _provided = self._check_node(plan)
        available = column_ids(columns)
        missing = [
            column
            for column in output_columns
            if column.cid not in available
        ]
        if missing:
            names = ", ".join(c.qualified_name for c in missing)
            raise PlanSanityError(
                "SA306",
                f"final plan does not produce required output column(s) "
                f"{names}",
            )

    def _check_node(
        self, op: PhysicalOp
    ) -> Tuple[Tuple[Column, ...], Ordering]:
        """Check ``op``'s subtree; returns its output columns and
        ordering."""
        child_results = [
            self._check_node(child)
            for child in op.children
            if isinstance(child, PhysicalOp)
        ]
        if len(child_results) != len(op.children):
            raise PlanSanityError(
                "SA301",
                f"{op.describe()} has an unextracted (non-physical) child",
            )
        child_columns = tuple(columns for columns, _ in child_results)
        child_orderings = tuple(ordering for _, ordering in child_results)

        requirements = op.required_child_orderings()
        for index, (required, provided) in enumerate(
            zip(requirements, child_orderings)
        ):
            if not ordering_satisfies(provided, required):
                raise PlanSanityError(
                    "SA303",
                    f"{op.describe()} requires child {index} ordered by "
                    f"{required} but the child provides {provided}",
                )

        dangling = op.dangling_read(
            tuple(column_ids(columns) for columns in child_columns)
        )
        if dangling is not None:
            read, column = dangling
            raise PlanSanityError(
                "SA301", f"{op.describe()}: {read.missing(column)}"
            )
        return (
            op.result_columns(child_columns),
            op.provided_ordering(child_orderings),
        )


#: Relative slack :class:`MonotonicityGuard` allows for float
#: accumulation-order noise.
_COST_TOLERANCE = 1e-9


class MonotonicityGuard:
    """Assertion hook for ``Cost(q) <= Cost(q, not R)`` (SA305).

    Disabling rules only removes alternatives from the search space, so the
    unrestricted optimizer must never pick a plan costlier than a restricted
    run's.  Feed the guard one :meth:`observe` call per (query, disabled
    rule set) pair; violations are collected as diagnostics, and
    :meth:`assert_ok` turns them into a hard failure.

    The invariant only applies to *complete* searches: when either run hit
    an exploration budget cap (``OptimizeResult.stats.budget_exhausted``)
    the unrestricted space is truncated rather than a superset, and callers
    must not feed the pair to the guard.

    A small relative tolerance (``_COST_TOLERANCE``) absorbs float
    accumulation-order noise.
    """

    def __init__(self) -> None:
        self.violations: List[Diagnostic] = []
        self.observations = 0

    def observe(
        self,
        query_label: str,
        base_cost: float,
        restricted_cost: float,
        disabled: Iterable[str] = (),
    ) -> bool:
        """Record one comparison; returns True when the invariant holds."""
        self.observations += 1
        if base_cost <= restricted_cost * (1.0 + _COST_TOLERANCE):
            return True
        rules = ", ".join(sorted(disabled)) or "-"
        self.violations.append(
            Diagnostic(
                code="SA305",
                severity=Severity.ERROR,
                message=(
                    f"Cost(q)={base_cost:.4f} exceeds "
                    f"Cost(q, not {{{rules}}})={restricted_cost:.4f}: "
                    "disabling rules produced a cheaper plan"
                ),
                location=query_label,
            )
        )
        return False

    def assert_ok(self) -> None:
        if self.violations:
            raise PlanSanityError(
                "SA305",
                f"{len(self.violations)} monotonicity violation(s); "
                f"first: {self.violations[0].message}",
            )


def sanitized_plan_smoke(database, registry, count: int, seed: int) -> AnalysisReport:
    """Optimize ``count`` random queries with the plan sanitizer on, and
    assert cost monotonicity against single-rule-disabled
    re-optimizations (``repro analyze --plans N``)."""
    from repro.service import PlanService
    from repro.testing.builders import GenerationFailure
    from repro.testing.random_gen import RandomQueryGenerator

    service = PlanService(database, registry=registry)
    generator = RandomQueryGenerator(
        database.catalog, seed=seed, stats=service.stats
    )
    config = DEFAULT_CONFIG.replaced(sanitize_plans=True)
    exploration = {rule.name for rule in registry.exploration_rules}
    guard = MonotonicityGuard()
    report = AnalysisReport()
    produced = 0
    attempts = 0
    while produced < count and attempts < count * 4:
        attempts += 1
        try:
            tree = generator.random_tree()
        except GenerationFailure:
            continue
        try:
            base = service.optimize(tree, config)
        except PlanSanityError as exc:
            report.add(
                Diagnostic(
                    code=exc.code,
                    severity=Severity.ERROR,
                    message=str(exc),
                    location=f"plan {produced}",
                )
            )
            produced += 1
            continue
        except OptimizationError:
            continue
        produced += 1
        report.count("plans_sanitized")
        for rule_name in sorted(base.rules_exercised & exploration)[:3]:
            try:
                restricted = service.optimize(
                    tree, config.with_disabled([rule_name])
                )
            except OptimizationError:
                continue
            if (
                base.stats.budget_exhausted
                or restricted.stats.budget_exhausted
            ):
                # A truncated search space is not a superset of the
                # restricted one, so the invariant does not apply.
                continue
            guard.observe(
                f"query {produced}", base.cost, restricted.cost, (rule_name,)
            )
            report.count("monotonicity_checks")
    report.extend(guard.violations)
    return report
