"""Pass 2: symbolic substitution verification.

For every rule in the registry the verifier synthesizes minimal bindings
from the rule's *own* pattern (reusing the pattern-based generator from
:mod:`repro.testing.pattern_gen`), applies the substitution to the plain
tree, and statically checks the result -- no data, no execution:

* the substitute is a valid logical tree (``validate_tree``);
* it produces exactly the binding's output columns (as a set of column
  ids: memo groups are order-insensitive, e.g. JoinCommutativity legally
  swaps column order);
* every derived unique key of the binding is still provable on the
  substitute, and every derived non-NULL column stays non-NULL;
* the sound row-count bounds of binding and substitute overlap, and the
  substitute is not provably empty unless the binding is.

Random sampling alone would miss property-breaking rewrites whose trigger
inputs are rare, so each sampled binding is augmented with deterministic
*adversarial variants*: every join kind the pattern admits, strict
self-comparisons and ``IS NULL`` filters on each visible join column, and
key-destroying projections under Distinct.  These are exactly the inputs
that separate e.g. ``DistinctRemoveOnKey`` from its key-check-free buggy
variant (see ``repro.rules.faults``).

Implementation rules are checked shallowly: the substitution must yield
physical operators with consistent ordering requirements and a
non-negative finite local cost.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.analysis.bounds import BoundsDeriver
from repro.analysis.context import TreeContext
from repro.analysis.diagnostics import (
    AnalysisPass,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.lint import synthesize_bindings
from repro.catalog.schema import Catalog
from repro.catalog.stats import StatsRepository
from repro.expr.expressions import (
    TRUE,
    ColumnRef,
    Comparison,
    ComparisonOp,
    IsNull,
)
from repro.logical.operators import (
    Distinct,
    Join,
    JoinKind,
    LogicalOp,
    OpKind,
    Project,
    Select,
)
from repro.logical.validate import ValidationError, validate_tree
from repro.physical.cost import local_cost
from repro.physical.operators import PhysicalOp
from repro.rules.framework import PatternNode, Rule, match_structure

#: One bundled analysis workload: (name, catalog, statistics).
Workload = Tuple[str, Catalog, StatsRepository]

#: Ratio beyond which binding/substitute cardinality estimates are reported
#: as informational drift.  Estimates legitimately differ across shapes, so
#: the bar is deliberately high.
ESTIMATE_DRIFT_RATIO = 100.0

#: Cap on adversarial variants derived from one sampled binding.
MAX_VARIANTS_PER_BINDING = 12

#: Operators whose output is duplicate-free *by definition* (rather than by
#: inheritance from input keys).  See the SV204 check.
_DEFINITIONAL_KEY_ROOTS = frozenset(
    {
        OpKind.DISTINCT,
        OpKind.GB_AGG,
        OpKind.UNION,
        OpKind.INTERSECT,
        OpKind.EXCEPT,
    }
)


def default_workloads(seed: int = 1) -> List[Workload]:
    """The bundled schemas the analyzer verifies rules against."""
    from repro.workloads import star_database, tpch_database

    tpch = tpch_database(seed=seed)
    star = star_database(seed=seed)
    return [
        ("tpch", tpch.catalog, tpch.stats_repository()),
        ("star", star.catalog, star.stats_repository()),
    ]


class SubstitutionVerifier(AnalysisPass):
    """Verifies every registry rule's substitution symbolically."""

    RULE_COUNTER = "rules_verified"

    def check_rule(self, rule: Rule) -> AnalysisReport:
        report = AnalysisReport()
        seen_codes = set()

        def emit(code, severity, message, location=None):
            if (code, rule.name) in seen_codes:
                return
            seen_codes.add((code, rule.name))
            report.add(
                Diagnostic(
                    code=code,
                    severity=severity,
                    message=message,
                    rule=rule.name,
                    location=location,
                )
            )

        bindings = self._synthesize_bindings(rule)
        checked = 0
        for workload_name, ctx, tree in bindings:
            try:
                accepted = rule.precondition(tree, ctx)
            except Exception as exc:  # noqa: BLE001 - any crash is a finding
                emit(
                    "SV201",
                    Severity.ERROR,
                    f"precondition raised {type(exc).__name__}: {exc}",
                    location=f"{workload_name}: {tree.describe()}",
                )
                continue
            if not accepted:
                continue
            checked += 1
            report.count("bindings_checked")
            try:
                substitutes = list(rule.substitute(tree, ctx))
            except Exception as exc:  # noqa: BLE001
                emit(
                    "SV201",
                    Severity.ERROR,
                    f"substitution raised {type(exc).__name__}: {exc}",
                    location=f"{workload_name}: {tree.describe()}",
                )
                continue
            for substitute in substitutes:
                location = f"{workload_name}: {tree.describe()}"
                if rule.is_exploration:
                    self._check_logical(
                        emit, ctx, tree, substitute, location
                    )
                else:
                    self._check_physical(emit, substitute, location)
        if not bindings:
            emit(
                "SV200",
                Severity.INFO,
                "no binding could be synthesized from the pattern "
                "(see the registry lint's dead-rule check)",
            )
        elif checked == 0:
            emit(
                "SV200",
                Severity.INFO,
                f"none of {len(bindings)} synthesized bindings passed the "
                "precondition; substitution not verified",
            )
        return report

    # -------------------------------------------------------------- checks

    def _check_logical(self, emit, ctx, binding, substitute, location):
        if not isinstance(substitute, LogicalOp):
            emit(
                "SV202",
                Severity.ERROR,
                f"substitution yielded {type(substitute).__name__}, "
                "not a logical operator",
                location,
            )
            return
        try:
            validate_tree(substitute, ctx.catalog)
        except ValidationError as exc:
            emit(
                "SV202",
                Severity.ERROR,
                f"substitute fails validation: {exc}",
                location,
            )
            return

        bind_props = ctx.props(binding)
        sub_props = ctx.props(substitute)

        if bind_props.column_ids != sub_props.column_ids:
            missing = bind_props.column_ids - sub_props.column_ids
            extra = sub_props.column_ids - bind_props.column_ids
            emit(
                "SV203",
                Severity.ERROR,
                "substitute changes the output schema "
                f"(missing column ids {sorted(missing)}, "
                f"extra {sorted(extra)})",
                location,
            )
            return

        # Key preservation is only checked when the binding's root operator
        # *definitionally* establishes uniqueness (Distinct, GbAgg, UNION,
        # INTERSECT, EXCEPT).  Inherited keys are derived conservatively, so
        # their provability legitimately varies across equivalent shapes
        # (join associativity, anti-join -> outer-join-filter); definitional
        # duplicate-freeness at the match root must always survive.
        if (
            binding.kind in _DEFINITIONAL_KEY_ROOTS
            and bind_props.has_key(bind_props.column_ids)
            and not sub_props.has_key(sub_props.column_ids)
        ):
            emit(
                "SV204",
                Severity.ERROR,
                "substitute loses the binding's duplicate-free guarantee: "
                "the rewrite may introduce duplicate rows",
                location,
            )

        lost_non_null = bind_props.non_null - sub_props.non_null
        if lost_non_null:
            names = sorted(c.qualified_name for c in lost_non_null)
            emit(
                "SV205",
                Severity.ERROR,
                "substitute loses derived non-NULL columns "
                f"{names}: the rewrite may introduce NULLs",
                location,
            )

        deriver = BoundsDeriver(ctx)
        bind_bounds = deriver.derive(binding)
        sub_bounds = deriver.derive(substitute)
        if sub_bounds.provably_empty and not bind_bounds.provably_empty:
            emit(
                "SV206",
                Severity.ERROR,
                "substitute is provably empty (contradictory predicate) "
                "while the binding is not; the rewrite drops rows",
                location,
            )
        elif not sub_bounds.overlaps(bind_bounds):
            emit(
                "SV207",
                Severity.ERROR,
                "substitute row-count bounds "
                f"{sub_bounds} are disjoint from the binding's "
                f"{bind_bounds}",
                location,
            )

        bind_rows = max(ctx.estimate(binding).rows, 1.0)
        sub_rows = max(ctx.estimate(substitute).rows, 1.0)
        ratio = max(bind_rows, sub_rows) / min(bind_rows, sub_rows)
        if ratio > ESTIMATE_DRIFT_RATIO:
            emit(
                "SV208",
                Severity.INFO,
                f"cardinality estimates drift {ratio:.0f}x between binding "
                f"({bind_rows:.0f} rows) and substitute ({sub_rows:.0f})",
                location,
            )

    def _check_physical(self, emit, substitute, location):
        if not isinstance(substitute, PhysicalOp):
            emit(
                "SV210",
                Severity.ERROR,
                f"implementation rule yielded {type(substitute).__name__}, "
                "not a physical operator",
                location,
            )
            return
        requirements = substitute.required_child_orderings()
        if len(requirements) != len(substitute.children):
            emit(
                "SV211",
                Severity.ERROR,
                f"required_child_orderings() returned {len(requirements)} "
                f"entries for {len(substitute.children)} children",
                location,
            )
        try:
            cost = local_cost(
                substitute,
                tuple(10.0 for _ in substitute.children),
                10.0,
            )
        except Exception as exc:  # noqa: BLE001
            emit(
                "SV212",
                Severity.ERROR,
                f"cost model rejected the operator: {exc}",
                location,
            )
            return
        if not cost >= 0.0 or cost != cost or cost == float("inf"):
            emit(
                "SV212",
                Severity.ERROR,
                f"operator has invalid local cost {cost!r}",
                location,
            )

    # ----------------------------------------------------------- bindings

    def _synthesize_bindings(
        self, rule: Rule
    ) -> List[Tuple[str, TreeContext, LogicalOp]]:
        """The sampled bindings plus their adversarial variants."""
        sampled = synthesize_bindings(
            rule, self.workloads, self.samples, str(self.seed)
        )
        bindings = list(sampled)
        for workload_name, ctx, tree in sampled:
            for variant in self._adversarial_variants(tree, rule.pattern, ctx):
                if not match_structure(variant, rule.pattern):
                    continue
                try:
                    validate_tree(variant, ctx.catalog)
                except ValidationError:
                    continue
                bindings.append((workload_name, ctx, variant))
        return bindings

    # ------------------------------------------------- adversarial variants

    def _adversarial_variants(
        self, tree: LogicalOp, pattern: PatternNode, ctx: TreeContext
    ) -> Iterable[LogicalOp]:
        variants: List[LogicalOp] = []
        if isinstance(tree, Select) and isinstance(tree.child, Join):
            variants.extend(
                self._select_over_join_variants(tree, pattern, ctx)
            )
        if isinstance(tree, Distinct):
            variant = self._keyless_distinct_variant(tree, ctx)
            if variant is not None:
                variants.append(variant)
        if isinstance(tree, Join):
            variants.extend(self._join_kind_variants(tree, pattern))
        return variants[:MAX_VARIANTS_PER_BINDING]

    def _pattern_join_kinds(
        self, node: PatternNode, current: JoinKind
    ) -> Tuple[JoinKind, ...]:
        if (
            not node.is_generic
            and node.kind is OpKind.JOIN
            and node.join_kinds
        ):
            return node.join_kinds
        return (current,)

    def _select_over_join_variants(
        self, tree: Select, pattern: PatternNode, ctx: TreeContext
    ) -> Iterable[LogicalOp]:
        join: Join = tree.child
        child_pattern = pattern.children[0] if pattern.children else None
        kinds = self._pattern_join_kinds(
            child_pattern, join.join_kind
        ) if child_pattern is not None else (join.join_kind,)
        left_cols = ctx.props(join.left).columns
        right_cols = ctx.props(join.right).columns
        for kind in kinds:
            if kind is JoinKind.CROSS and join.predicate != TRUE:
                continue
            if kind is not JoinKind.CROSS and join.predicate == TRUE:
                continue
            new_join = Join(kind, join.left, join.right, join.predicate)
            # Strict self-comparisons (always TRUE on non-NULL input, but
            # null-rejecting) expose lost non-NULL guarantees; IS NULL
            # filters expose rewrites that contradict derived non-NULL
            # columns (e.g. outer join -> inner join without the check).
            probe_cols = list(left_cols[:2])
            if kind.preserves_right_columns:
                probe_cols.extend(right_cols[:4])
            for column in probe_cols:
                ref = ColumnRef(column)
                yield Select(
                    new_join, Comparison(ComparisonOp.GE, ref, ref)
                )
                yield Select(new_join, IsNull(ref))

    def _keyless_distinct_variant(
        self, tree: Distinct, ctx: TreeContext
    ) -> Optional[LogicalOp]:
        """Distinct over a projection that destroys every derived key."""
        child = tree.child
        props = ctx.props(child)
        if not props.keys:
            return None  # the sampled binding is already key-free
        key_member_ids = set()
        for key in props.keys:
            key_member_ids.update(key)
        keyless = [
            column
            for column in props.columns
            if column.cid not in key_member_ids
        ]
        if not keyless:
            return None
        outputs = tuple(
            (column, ColumnRef(column)) for column in keyless[:3]
        )
        return Distinct(Project(child, outputs))

    def _join_kind_variants(
        self, tree: Join, pattern: PatternNode
    ) -> Iterable[LogicalOp]:
        for kind in self._pattern_join_kinds(pattern, tree.join_kind):
            if kind is tree.join_kind:
                continue
            if kind is JoinKind.CROSS and tree.predicate != TRUE:
                continue
            if kind is not JoinKind.CROSS and tree.predicate == TRUE:
                continue
            yield Join(kind, tree.left, tree.right, tree.predicate)
