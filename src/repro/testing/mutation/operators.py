"""Mutation operators: systematic fault injection for transformation rules.

Each operator inspects one rule of the registry and derives zero or more
*mutants* -- plausibly buggy variants of the rule, built the same way a
developer would get them wrong (see :mod:`repro.rules.faults` for the
hand-written originals these generalize):

* ``drop-precondition`` -- the semantic guard is skipped entirely;
* ``widen-join-kind``   -- the pattern accepts a join kind the rewrite was
  never designed for (e.g. applying an inner-join identity to a LOJ);
* ``drop-conjunct``     -- the substitute loses one predicate conjunct;
* ``drop-distinct``     -- a ``Distinct`` the rewrite must introduce is
  forgotten;
* ``hoist-distinct``    -- that ``Distinct`` lands on the wrong side of a
  projection;
* ``perturb-combiner``  -- a two-phase aggregation's global phase re-applies
  the original function instead of the combining function;
* ``skip-substitute``   -- the first alternative a rule would emit is
  silently dropped (an availability bug, not a soundness bug);
* ``handwritten``       -- the four curated faults of
  :data:`repro.rules.faults.ALL_FAULTS`.

Every mutant carries a stable ``mutant_id`` and an ``expected_detectable``
flag: whether the differential oracle (``Plan(q)`` vs ``Plan(q, ¬R)``, run
over queries generated against the *mutated* registry) should flag it.
Mutants that are semantically equivalent, guard-only, or produce plans the
cost model never selects are flagged ``False`` with the reason recorded in
``expectation_note`` -- the campaign reports them instead of silently
dropping them.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import TRUE, conjuncts, conjunction, referenced_columns
from repro.logical.operators import (
    Apply,
    Distinct,
    GbAgg,
    Join,
    JoinKind,
    LogicalOp,
    OpKind,
    Project,
    Select,
)
from repro.rules.faults import ALL_FAULTS
from repro.rules.framework import PatternNode, Rule
from repro.rules.registry import RuleRegistry


@dataclass(frozen=True)
class Mutant:
    """One injectable rule fault."""

    #: Stable identifier, e.g. ``"SelectMerge:drop-conjunct"`` or
    #: ``"JoinCommutativity:widen-join-kind:j0+left-outer"``.
    mutant_id: str
    rule_name: str
    operator: str
    description: str
    #: Should the differential oracle flag this mutant?  ``False`` for
    #: equivalent mutants, guard-only preconditions, and rewrites the cost
    #: model never selects -- the reason is in :attr:`expectation_note`.
    expected_detectable: bool
    expectation_note: str = ""
    _factory: Callable[[], Rule] = field(
        default=None, repr=False, compare=False
    )

    def build(self) -> Rule:
        """Instantiate the buggy rule (same ``name`` as the original, so
        ``registry.with_replaced_rule`` accepts it)."""
        return self._factory()


# --------------------------------------------------------------- tree rewrites


def _rewrite_first(tree: LogicalOp, fn):
    """Apply ``fn`` to the first (pre-order) node where it returns non-None.

    Returns ``(new_tree, changed)``.  ``fn`` may return a ``GroupRef`` --
    legal as a substitute root or child.  Children that are group
    references are passed through untouched.
    """
    replaced = fn(tree)
    if replaced is not None:
        return replaced, True
    new_children = []
    changed = False
    for child in tree.children:
        if not changed and isinstance(child, LogicalOp):
            child, changed = _rewrite_first(child, fn)
        new_children.append(child)
    if changed:
        return tree.with_children(tuple(new_children)), True
    return tree, False


def _drop_last_conjunct(node):
    if isinstance(node, Select) and node.predicate != TRUE:
        parts = conjuncts(node.predicate)
        if len(parts) >= 2:
            return Select(node.child, conjunction(parts[:-1]))
        return node.child
    if isinstance(node, Join) and node.predicate != TRUE:
        parts = conjuncts(node.predicate)
        remaining = conjunction(parts[:-1]) if len(parts) >= 2 else TRUE
        return Join(node.join_kind, node.left, node.right, remaining)
    if isinstance(node, Apply) and node.predicate != TRUE:
        parts = conjuncts(node.predicate)
        remaining = conjunction(parts[:-1]) if len(parts) >= 2 else TRUE
        return Apply(node.apply_kind, node.left, node.right, remaining)
    return None


def _drop_distinct(node):
    if isinstance(node, Distinct):
        return node.child
    return None


def _hoist_distinct(node):
    if isinstance(node, Distinct) and isinstance(node.child, Project):
        project = node.child
        return Project(Distinct(project.child), project.outputs)
    return None


def _perturb_combiner(tree: LogicalOp):
    """Rewrite the first global-phase GbAgg to re-apply each aggregate's
    *original* function (as collected from the local phase in the same
    tree) instead of its combining function -- the classic eager/split
    aggregation bug (COUNT of partials instead of SUM of partials)."""
    local_functions: Dict[int, AggregateFunction] = {}
    for node in tree.walk():
        if isinstance(node, GbAgg) and node.phase == "local":
            for column, call in node.aggregates:
                local_functions[column.cid] = call.function

    def fn(node):
        if not (isinstance(node, GbAgg) and node.phase == "global"):
            return None
        new_aggs = []
        changed = False
        for out_column, call in node.aggregates:
            original = None
            if call.argument is not None:
                refs = list(referenced_columns(call.argument))
                if len(refs) == 1:
                    original = local_functions.get(refs[0].cid)
            if original is AggregateFunction.COUNT_STAR:
                original = AggregateFunction.COUNT
            if original is None or original is call.function:
                new_aggs.append((out_column, call))
                continue
            new_aggs.append(
                (out_column, AggregateCall(original, call.argument))
            )
            changed = True
        if not changed:
            return None
        return GbAgg(node.child, node.group_by, tuple(new_aggs), node.phase)

    new_tree, changed = _rewrite_first(tree, fn)
    return new_tree if changed else tree


# -------------------------------------------------------- mutant construction


def _substitute_source(rule: Rule) -> str:
    try:
        return inspect.getsource(type(rule).substitute)
    except (OSError, TypeError):  # pragma: no cover - builtins/eval'd rules
        return ""


def _transformed_substitute(rule_cls, transform):
    """A ``substitute`` that post-processes every yielded tree."""

    def substitute(self, binding, ctx):
        for tree in rule_cls.substitute(self, binding, ctx):
            if isinstance(tree, LogicalOp):
                tree, _ = _rewrite_first(tree, transform)
            yield tree

    return substitute


def _mutant_class(rule: Rule, mutant_id: str, namespace: dict):
    """A dynamic subclass of ``type(rule)`` carrying the fault.

    The class keeps the original ``name``, so ``with_replaced_rule``
    swaps it in.
    """
    suffix = mutant_id.split(":", 1)[1].replace(":", "_").replace(
        "-", "_"
    ).replace("+", "_")
    return type(f"{type(rule).__name__}__{suffix}", (type(rule),), namespace)


class MutationOperator:
    """Base class: derive mutants from one rule."""

    name: str = ""
    description: str = ""

    def mutants_for(self, rule: Rule) -> List[Mutant]:
        raise NotImplementedError

    def _make(
        self,
        rule: Rule,
        description: str,
        namespace: dict,
        qualifier: str = "",
    ) -> Mutant:
        mutant_id = f"{rule.name}:{self.name}"
        if qualifier:
            mutant_id += f":{qualifier}"
        cls = _mutant_class(rule, mutant_id, namespace)
        expected, note = _expectation(mutant_id, self.name)
        return Mutant(
            mutant_id=mutant_id,
            rule_name=rule.name,
            operator=self.name,
            description=description,
            expected_detectable=expected,
            expectation_note=note,
            _factory=cls,
        )


class DropPrecondition(MutationOperator):
    name = "drop-precondition"
    description = "replace the rule's precondition with `return True`"

    def mutants_for(self, rule: Rule) -> List[Mutant]:
        if type(rule).precondition is Rule.precondition:
            return []  # nothing to drop

        def precondition(self, binding, ctx):
            return True

        return [
            self._make(
                rule,
                f"{rule.name} fires without its semantic precondition",
                {"precondition": precondition},
            )
        ]


#: Kinds a pattern slot gets widened with (one mutant per addition), by
#: operator kind.  Apply only admits SEMI/ANTI, so an Apply slot is widened
#: with the opposite correlation kind (e.g. the semi-only unnesting rule
#: also firing on anti Applies -- the classic NOT EXISTS mix-up).
_WIDEN_ADDITIONS_BY_KIND = {
    OpKind.JOIN: (JoinKind.INNER, JoinKind.LEFT_OUTER),
    OpKind.APPLY: (JoinKind.SEMI, JoinKind.ANTI),
}


def _join_pattern_slots(pattern: PatternNode) -> List[PatternNode]:
    """Pre-order list of JOIN/APPLY pattern nodes with an explicit kind
    list."""
    slots = []

    def visit(node: PatternNode):
        if node.kind in _WIDEN_ADDITIONS_BY_KIND and node.join_kinds is not None:
            slots.append(node)
        for child in node.children:
            visit(child)

    visit(pattern)
    return slots


def _widen_pattern(
    pattern: PatternNode, slot_index: int, added: JoinKind
) -> PatternNode:
    counter = {"seen": 0}

    def rebuild(node: PatternNode) -> PatternNode:
        join_kinds = node.join_kinds
        if node.kind in _WIDEN_ADDITIONS_BY_KIND and join_kinds is not None:
            if counter["seen"] == slot_index:
                join_kinds = join_kinds + (added,)
            counter["seen"] += 1
        return PatternNode(
            node.kind,
            tuple(rebuild(child) for child in node.children),
            join_kinds,
        )

    return rebuild(pattern)


class WidenJoinKind(MutationOperator):
    name = "widen-join-kind"
    description = "let a join/apply pattern node match one extra JoinKind"

    def mutants_for(self, rule: Rule) -> List[Mutant]:
        mutants = []
        for index, slot in enumerate(_join_pattern_slots(rule.pattern)):
            for added in _WIDEN_ADDITIONS_BY_KIND[slot.kind]:
                if added in slot.join_kinds:
                    continue
                widened = _widen_pattern(rule.pattern, index, added)
                slug = added.value.lower().replace(" ", "-")
                mutants.append(
                    self._make(
                        rule,
                        f"{rule.name}'s join pattern #{index} also matches "
                        f"{added.value} joins",
                        {"pattern": widened},
                        qualifier=f"j{index}+{slug}",
                    )
                )
        return mutants


class _SubstituteTransformOperator(MutationOperator):
    """Shared shape: applicability by substitute-source marker, fault as a
    post-transform of every yielded tree."""

    #: Textual markers; the operator applies when any appears in the
    #: substitute's source (mutation tools are source-level by nature).
    markers: Tuple[str, ...] = ()
    transform = None
    fault_text = ""

    def mutants_for(self, rule: Rule) -> List[Mutant]:
        source = _substitute_source(rule)
        if not any(marker in source for marker in self.markers):
            return []
        transform = type(self).transform
        return [
            self._make(
                rule,
                f"{rule.name}: {self.fault_text}",
                {
                    "substitute": _transformed_substitute(
                        type(rule), transform
                    )
                },
            )
        ]


class DropConjunct(_SubstituteTransformOperator):
    name = "drop-conjunct"
    description = "drop the last conjunct of the first predicate built"
    markers = (
        "conjunction(",
        "predicate_or_true(",
        "maybe_select(",
    )
    transform = staticmethod(_drop_last_conjunct)
    fault_text = "substitute loses the last conjunct of its first predicate"


class DropDistinct(_SubstituteTransformOperator):
    name = "drop-distinct"
    description = "remove the first Distinct a substitute introduces"
    markers = ("Distinct(",)
    transform = staticmethod(_drop_distinct)
    fault_text = "substitute forgets the Distinct it must introduce"


class HoistDistinct(_SubstituteTransformOperator):
    name = "hoist-distinct"
    description = "move Distinct(Project(X)) to Project(Distinct(X))"
    markers = ("Distinct(",)
    transform = staticmethod(_hoist_distinct)
    fault_text = "substitute misplaces Distinct below the projection"


class PerturbCombiner(MutationOperator):
    name = "perturb-combiner"
    description = (
        "global aggregation phase re-applies the original function "
        "instead of the combining function"
    )

    def mutants_for(self, rule: Rule) -> List[Mutant]:
        if 'phase="global"' not in _substitute_source(rule):
            return []

        def substitute(self, binding, ctx):
            for tree in type(rule).substitute(self, binding, ctx):
                if isinstance(tree, LogicalOp):
                    tree = _perturb_combiner(tree)
                yield tree

        return [
            self._make(
                rule,
                f"{rule.name}: global phase re-applies the original "
                "aggregate instead of its combiner",
                {"substitute": substitute},
            )
        ]


class SkipSubstitute(MutationOperator):
    name = "skip-substitute"
    description = "silently drop the first alternative the rule emits"

    def mutants_for(self, rule: Rule) -> List[Mutant]:
        rule_cls = type(rule)

        def substitute(self, binding, ctx):
            produced = rule_cls.substitute(self, binding, ctx)
            iterator = iter(produced)
            next(iterator, None)
            yield from iterator

        return [
            self._make(
                rule,
                f"{rule.name} silently drops its first alternative",
                {"substitute": substitute},
            )
        ]


class Handwritten(MutationOperator):
    """The four curated faults of :data:`repro.rules.faults.ALL_FAULTS`."""

    name = "handwritten"
    description = "curated faults from repro.rules.faults"

    def mutants_for(self, rule: Rule) -> List[Mutant]:
        fault_cls = ALL_FAULTS.get(rule.name)
        if fault_cls is None:
            return []
        expected, note = _expectation(
            f"{rule.name}:{self.name}", self.name
        )
        return [
            Mutant(
                mutant_id=f"{rule.name}:{self.name}",
                rule_name=rule.name,
                operator=self.name,
                description=(fault_cls.__doc__ or fault_cls.__name__)
                .strip()
                .split("\n")[0],
                expected_detectable=expected,
                expectation_note=note,
                _factory=fault_cls,
            )
        ]


DEFAULT_OPERATORS: Tuple[MutationOperator, ...] = (
    DropPrecondition(),
    WidenJoinKind(),
    DropConjunct(),
    DropDistinct(),
    HoistDistinct(),
    PerturbCombiner(),
    SkipSubstitute(),
    Handwritten(),
)

OPERATOR_NAMES: Tuple[str, ...] = tuple(op.name for op in DEFAULT_OPERATORS)


# ------------------------------------------------------ expectation curation

#: Operators whose mutants are *not* soundness bugs by construction.
_OPERATOR_DEFAULT_EXPECTATION: Dict[str, Tuple[bool, str]] = {
    "skip-substitute": (
        False,
        "a dropped alternative can never produce a wrong plan; it usually "
        "leaves the rule unexercisable (flagged NO_FIRE by generation)",
    ),
    "hoist-distinct": (
        False,
        "most rewrites wrap Distinct around a pass-through projection, "
        "where hoisting it is an identity; the narrowing-projection cases "
        "(the set-op rewrites) are curated per mutant",
    ),
}

#: Mutants that ARE expected detectable despite their operator's default
#: above, keyed by mutant id; the note explains the exception.
EXPECTED_DESPITE_OPERATOR: Dict[str, str] = {
    "ExceptToAntiJoin:hoist-distinct": (
        "here the hoisted Distinct dedups full left rows before the "
        "narrowing projection, re-introducing duplicates EXCEPT must "
        "eliminate (the hazard the rule's own docstring warns about)"
    ),
}

#: Per-mutant curation, keyed by mutant id.  Each entry documents *why* the
#: differential oracle is not expected to flag the mutant; everything not
#: listed (and not covered by the operator default above) is expected
#: detectable.  These notes were validated empirically by running the
#: campaign -- see docs/TESTING.md.
EXPECTATION_OVERRIDES: Dict[str, str] = {
    # -- guard-only preconditions: firing vacuously yields an equivalent
    #    (just unprofitable) expression.
    "SelectPushBelowJoinLeft:drop-precondition": (
        "the precondition only checks that pushable conjuncts exist; "
        "without it the rule emits a no-op reshuffle of the same predicate"
    ),
    "SelectPushBelowJoinRight:drop-precondition": (
        "guard-only precondition (pushable right-side conjuncts exist); "
        "vacuous firings are semantics-preserving"
    ),
    "CrossToInnerJoin:drop-precondition": (
        "the precondition only checks a joining conjunct exists; without "
        "one the rule emits an equivalent inner join on TRUE"
    ),
    "SelectSplit:drop-precondition": (
        "guard-only precondition (at least two conjuncts); a vacuous "
        "split is impossible, the rule simply re-emits nothing new"
    ),
    "JoinPredicateToSelect:drop-precondition": (
        "guard-only precondition; hoisting an inner-join predicate into "
        "a Select above a cross join is always semantics-preserving"
    ),
    # -- widenings that land on a rewrite which happens to stay correct
    #    for the added kind.
    "LojToJoinOnNullReject:widen-join-kind:j0+inner": (
        "on an INNER binding the rewrite re-emits the same inner join "
        "(identity); only the LOJ case carries the null-rejection risk"
    ),
    "SelectPushBelowJoinLeft:widen-join-kind:j0+left-outer": (
        "pushing left-side conjuncts below the preserved side of a LOJ "
        "is valid (it is exactly what LojPushSelectLeft does)"
    ),
    "LojPushSelectLeft:widen-join-kind:j0+inner": (
        "pushing left-only conjuncts below either input of an inner "
        "join is valid (SelectPushBelowJoinLeft does the same)"
    ),
    # -- mutants whose wrong alternative the cost model never selects.
    "GbAggSplitGlobalLocal:perturb-combiner": (
        "the split plan adds a second aggregation over the same input "
        "and is never the cheapest alternative, so the corrupted global "
        "phase is never executed"
    ),
    "JoinLeftAssociativity:drop-precondition": (
        "profitability-only guard (a conjunct can move down); the "
        "substitute re-partitions the pooled conjuncts itself, so a "
        "vacuous firing emits an equivalent join over TRUE"
    ),
    "JoinRightAssociativity:drop-precondition": (
        "profitability-only guard, mirror of JoinLeftAssociativity: the "
        "substitute's own partition stays correct without it"
    ),
    "SemiJoinToJoinOnKey:drop-precondition": (
        "pattern generation instantiates the semi-join on an FK->PK "
        "pair (hint 'fk_pk'), so the right side is unique on its join "
        "column and the dropped key guard is vacuously satisfied on "
        "every generated query"
    ),
    "AntiJoinToLojFilter:drop-precondition": (
        "every generated right input exposes a NOT NULL key column, so "
        "the IS NULL witness the guard checks for always exists and the "
        "unguarded rule behaves identically"
    ),
    "AvgToSumDivCount:drop-precondition": (
        "without an AVG aggregate the rewrite reconstructs the identical "
        "aggregate list behind a pass-through projection, and split-phase "
        "aggregates never contain AVG (it is not decomposable)"
    ),
    "RemoveTrivialProject:drop-precondition": (
        "pattern generation (hint 'passthrough_all') and the rule "
        "library's passthrough_project helper only put pass-through "
        "projections in the search space, where the unguarded removal "
        "is still the correct identity"
    ),
    # -- adverse cost selection: the buggy alternative keeps strictly more
    #    rows (a dropped filter / discarded join predicate), inflating its
    #    estimated intermediate, so the cost-based search never picks it
    #    into Plan(q).  Mechanism, not proof: a future run that does kill
    #    one of these fails loudly via `unexpected detections`.
    "JoinLeftAssociativity:drop-conjunct": (
        "the conjunct is dropped from the rebuilt top join, inflating "
        "the estimated intermediate; the mutated alternative is costlier "
        "than the clean plans in the memo and never cost-selected"
    ),
    "JoinRightAssociativity:drop-conjunct": (
        "same adverse cost selection as JoinLeftAssociativity: the "
        "filter-dropping associated join is never the cheapest alternative"
    ),
    "SelectPushBelowJoinRight:drop-conjunct": (
        "the residual select above the join loses a conjunct, keeping "
        "strictly more rows than the clean push-down; the costlier "
        "alternative is never selected under the calibrated pool"
    ),
    "SelectSplit:drop-conjunct": (
        "the split with a dropped conjunct filters less and costs more "
        "than both the clean split and the unsplit select already in "
        "the memo (observed EQUIVALENT: chosen plans never change)"
    ),
    "CrossToInnerJoin:widen-join-kind:j0+inner": (
        "firing on a predicate-bearing inner join discards that join's "
        "own predicate, yielding a strict superset of rows; the "
        "higher-cardinality alternative is never cost-selected"
    ),
    # -- widenings whose substitute is strictly dominated: it wraps the
    #    binding's own join in an extra projection, so it can never be
    #    cheaper than the unwrapped join already in the group.  (The
    #    left-outer widening used to sit here too, until the seed-1 pool
    #    of the calibrated campaign CRASHED it -- the substitute reads
    #    columns an outer join no longer guarantees -- proving the
    #    "never selected" half of its note wrong.  Stale notes die.)
    "SemiJoinToJoinOnKey:widen-join-kind:j0+inner": (
        "on an inner-join binding the substitute is the same join plus "
        "a projection -- strictly dominated by the join itself, never "
        "selected"
    ),
    # -- duplicate-sensitive mutations that generated inputs cannot expose:
    #    the set-op rewrites only mis-handle duplicates, and the pattern
    #    generator's intersect inputs are key-preserving (duplicate-free).
    "IntersectToSemiJoin:drop-distinct": (
        "wrong only when the left input carries duplicates on the "
        "projected columns; generated intersect operands are "
        "key-preserving scans, so the dropped Distinct never changes "
        "the result bag"
    ),
    "IntersectToSemiJoin:hoist-distinct": (
        "the misplaced Distinct dedups full left rows before the "
        "narrowing projection; harmless on the duplicate-free "
        "key-preserving inputs the generator produces (same mechanism "
        "as the drop-distinct survivor)"
    ),
    # -- subquery-unnesting mutants the oracle cannot flag (validated by
    #    running the campaign over the Apply rule family, seeds 0-1).
    "ApplyToAntiJoin:widen-join-kind:j0+semi": (
        "the wrong ANTI join lands in the semi Apply's group, whose "
        "row estimate (and hence cost) matches the correct SEMI "
        "alternative inserted first by ApplyToSemiJoin; the tie is "
        "never broken in the mutant's favor, so the anti plan is "
        "never extracted"
    ),
    "SelectPushIntoApplyLeft:drop-precondition": (
        "guard-only in well-formed trees: an Apply outputs exactly its "
        "left columns, so a Select above it can only reference those "
        "and the dropped references_only check is vacuously satisfied"
    ),
    "SemiJoinToDistinctInnerJoin:drop-precondition": (
        "pattern generation instantiates the semi join on an FK->PK "
        "pair (hint 'fk_pk'), a pure equijoin, so the dropped "
        "equijoin guard is vacuously satisfied on every generated "
        "query (same mechanism as SemiJoinToJoinOnKey)"
    ),
    "SemiJoinToDistinctInnerJoin:drop-distinct": (
        "the fk_pk-hinted right side is a key-preserving scan already "
        "unique on its join column, so the dropped Distinct never "
        "changes the bag (mirror of IntersectToSemiJoin:drop-distinct)"
    ),
}


def _expectation(mutant_id: str, operator: str) -> Tuple[bool, str]:
    note = EXPECTATION_OVERRIDES.get(mutant_id)
    if note is not None:
        return False, note
    note = EXPECTED_DESPITE_OPERATOR.get(mutant_id)
    if note is not None:
        return True, note
    default = _OPERATOR_DEFAULT_EXPECTATION.get(operator)
    if default is not None:
        return default
    return True, ""


# -------------------------------------------------------------- generation


def generate_mutants(
    registry: RuleRegistry,
    rule_names: Optional[Sequence[str]] = None,
    operators: Optional[Iterable[str]] = None,
) -> List[Mutant]:
    """All mutants for ``rule_names`` (default: every exploration rule),
    in deterministic (registry order x operator order) order."""
    if rule_names is None:
        rule_names = registry.exploration_rule_names
    wanted = None if operators is None else set(operators)
    if wanted is not None:
        unknown = wanted - set(OPERATOR_NAMES)
        if unknown:
            raise ValueError(
                f"unknown mutation operators: {sorted(unknown)} "
                f"(available: {list(OPERATOR_NAMES)})"
            )
    mutants: List[Mutant] = []
    for name in rule_names:
        rule = registry.rule(name)
        for operator in DEFAULT_OPERATORS:
            if wanted is not None and operator.name not in wanted:
                continue
            mutants.extend(operator.mutants_for(rule))
    return mutants
