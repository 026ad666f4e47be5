"""The Cascades-style optimizer engine.

Optimization proceeds in the classic two phases:

1. **Exploration**: every (group expression, exploration rule) pair whose
   pattern root can match the expression's operator kind is tried exactly
   once; successful substitutions add equivalent expressions to the memo,
   which are themselves explored, until a fixpoint (or a budget cap) is
   reached.  The engine records which rules were exercised -- the paper's
   ``RuleSet(q)`` tracking extension.  A generation trial
   (:meth:`Optimizer.optimize_exercising`) ends here when exploration
   already shows one of its target rules is not in ``RuleSet(q)``.
2. **Implementation**: top-down dynamic programming over (group, required
   ordering).  Implementation rules produce physical alternatives; a Sort
   enforcer satisfies ordering requirements nothing provides natively; the
   cheapest alternative per (group, ordering) wins.  The rules the winning
   plan was built from -- its physical alternatives' implementation rules
   and the memo support of its logical expressions -- and the memo's
   ``landed_support`` are the result's ``plan_support``.

Rules listed in ``config.disabled_rules`` are skipped entirely, yielding
``Plan(q, ¬R)`` / ``Cost(q, ¬R)`` exactly as the paper's optimizer
extensions do.

Both phases find the rules to try through a :class:`_RuleIndex` built once
per :class:`Optimizer`: the active rules bucketed by the kind of their
pattern root, registry order kept inside a bucket, so the pairs that can
bind are visited in the order a scan over all rules would visit them and
the pairs that cannot are never formed.  The index also holds each rule's
pattern compiled into a matcher (see :mod:`repro.optimizer.binding`), which
both phases call for an attempt's bindings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.catalog.schema import Catalog
from repro.catalog.stats import StatsRepository
from repro.logical.cardinality import CardinalityEstimator, RelEstimate
from repro.logical.operators import GroupRef, LogicalOp, OpKind, SortKey
from repro.logical.properties import LogicalProps, PropertyDeriver
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.optimizer.binding import Matcher, compile_pattern
from repro.optimizer.config import DEFAULT_CONFIG, OptimizerConfig
from repro.optimizer.memo import Group, GroupExpr, Memo, MemoBudgetExceeded
from repro.optimizer.result import (
    MemoStats,
    OptimizationError,
    OptimizeResult,
    RuleCounters,
)
from repro.physical.cost import INFINITE_COST, local_cost, sort_cost
from repro.physical.operators import (
    Ordering,
    PhysicalOp,
    Sort as PhysicalSort,
    ordering_satisfies,
)
from repro.rules.framework import Rule, RuleContext
from repro.rules.registry import RuleRegistry, default_registry


class OptimizerContext(RuleContext):
    """Rule-facing view of the memo: properties/estimates of binding nodes."""

    def __init__(self, memo: Memo, deriver, estimator, catalog) -> None:
        self._memo = memo
        self._deriver = deriver
        self._estimator = estimator
        self._catalog = catalog

    @property
    def catalog(self):
        return self._catalog

    def props(self, node) -> LogicalProps:
        if isinstance(node, GroupRef):
            return self._memo.group(node.group_id).props
        child_props = tuple(self.props(child) for child in node.children)
        return self._deriver.derive(node, child_props)

    def estimate(self, node) -> RelEstimate:
        if isinstance(node, GroupRef):
            return self._memo.group(node.group_id).estimate
        child_estimates = tuple(
            self.estimate(child) for child in node.children
        )
        return self._estimator.estimate(node, child_estimates)


@dataclass
class Winner:
    """Best plan for one (group, required ordering)."""

    cost: float
    op: Optional[PhysicalOp]  # memo form; None marks a Sort enforcer
    child_orderings: Tuple[Ordering, ...]
    provided: Ordering
    #: ``(implementation rule, logical expression, binding)`` that
    #: produced :attr:`op`; None for a Sort enforcer.
    source: Optional[Tuple[str, GroupExpr, LogicalOp]] = None


#: One rule's attempt outcomes for one optimization run, as an indexed list
#: so hot-loop updates stay cheap:
#: ``[considered, fired, rejected, precondition_failures]``.
_TallyRow = List[int]

#: The ``(rule, tally slot, matcher)`` entries to try on operators of one
#: kind.
_Bucket = Tuple[Tuple[Rule, int, Matcher], ...]


class _RuleIndex:
    """The active rules of both phases, bucketed by pattern-root kind.

    ``exploration[kind]`` / ``implementation[kind]`` hold, in registry
    order, the rules whose pattern root can match an operator of ``kind``:
    a rule with a concrete root is in that kind's bucket only, a rule with
    a generic root in every bucket, a disabled rule in none.  (Join-kind
    restrictions stay with the rule's compiled matcher.)  Each rule is
    paired with its slot in :attr:`names`, which is also its row in the
    per-run tally :meth:`new_tally` returns, and with its matcher.

    Matchers are closures, so they are held here (and in
    ``compile_pattern``'s per-process cache), never on a pattern: a
    registry holds patterns only, and pickles.
    """

    def __init__(self, registry: RuleRegistry, config: OptimizerConfig) -> None:
        self.names: List[str] = []
        self.exploration = self._bucket(registry.exploration_rules, config)
        explored = len(self.names)
        self.implementation = self._bucket(
            registry.implementation_rules, config
        )
        #: The only rules that can still join ``RuleSet(q)`` once
        #: exploration is over.
        self.implementation_names = frozenset(self.names[explored:])
        #: ``(name, slot, all-zero row)`` sorted by name, the order of
        #: :attr:`OptimizeResult.rule_counters`; the zero row is shared by
        #: every run in which the rule was never considered.
        self._by_name = tuple(
            (name, slot, RuleCounters(name, 0, 0, 0))
            for name, slot in sorted(
                (name, slot) for slot, name in enumerate(self.names)
            )
        )

    def _bucket(
        self, rules: Iterable[Rule], config: OptimizerConfig
    ) -> Dict[OpKind, _Bucket]:
        buckets: Dict[OpKind, List[Tuple[Rule, int, Matcher]]] = {
            kind: [] for kind in OpKind
        }
        for rule in rules:
            if config.is_disabled(rule.name):
                continue
            entry = (rule, len(self.names), compile_pattern(rule.pattern))
            self.names.append(rule.name)
            root = rule.pattern.kind
            for kind in OpKind if root is None else (root,):
                buckets[kind].append(entry)
        return {kind: tuple(bucket) for kind, bucket in buckets.items()}

    def new_tally(self) -> List[_TallyRow]:
        """One all-zero row per active rule, so every result reports the
        same rules whether or not an expression of their kind turned up."""
        return [[0, 0, 0, 0] for _ in self.names]

    def counters(self, tally: List[_TallyRow]) -> Tuple[RuleCounters, ...]:
        """``tally`` as :attr:`OptimizeResult.rule_counters`."""
        rows = []
        for name, slot, zero in self._by_name:
            counts = tally[slot]
            rows.append(
                RuleCounters(name, counts[0], counts[1], counts[2])
                if counts[0]
                else zero
            )
        return tuple(rows)


class Optimizer:
    """Rule-based query optimizer over a catalog and statistics."""

    def __init__(
        self,
        catalog: Catalog,
        stats: StatsRepository,
        registry: Optional[RuleRegistry] = None,
        config: OptimizerConfig = DEFAULT_CONFIG,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.catalog = catalog
        self.stats = stats
        self.registry = registry or default_registry()
        self.config = config
        #: Observability hooks.  Plain mutable attributes: a pool worker
        #: reuses one Optimizer per config and swaps in a fresh registry
        #: per task so each result ships its own metric delta.
        self.tracer = tracer
        self.metrics = metrics
        self._deriver = PropertyDeriver(catalog)
        self._estimator = CardinalityEstimator(catalog, stats)
        #: Registry and config are fixed for this optimizer's lifetime.
        self._index = _RuleIndex(self.registry, config)
        if config.sanitize_plans:
            from repro.analysis.sanitize import PlanSanitizer

            self._sanitizer = PlanSanitizer(catalog)
        else:
            self._sanitizer = None

    # ------------------------------------------------------------------ public

    def optimize(self, tree: LogicalOp) -> OptimizeResult:
        """Optimize a logical query tree into a physical plan."""
        return self.optimize_exercising(tree, ())

    def optimize_exercising(
        self, tree: LogicalOp, targets: Sequence[str]
    ) -> Optional[OptimizeResult]:
        """One generation trial: the result of :meth:`optimize` when every
        rule in ``targets`` is in ``RuleSet(tree)``, else ``None``.

        The search is the one :meth:`optimize` runs.  When exploration
        ends without a target that only exploration could have exercised,
        the answer is already *no* and the run stops there: no
        implementation, no plan.
        """
        try:
            return self._optimize(tree, targets)
        except OptimizationError:
            if self.metrics is not None:
                self.metrics.counter("optimizer.optimization_errors").inc()
            raise

    def _optimize(
        self, tree: LogicalOp, targets: Sequence[str]
    ) -> Optional[OptimizeResult]:
        tracer = self.tracer
        memo = Memo(
            self._deriver,
            self._estimator,
            self.config.max_groups,
            self.config.max_exprs_per_group,
            tracer=tracer,
        )
        ctx = OptimizerContext(memo, self._deriver, self._estimator, self.catalog)
        exercised: Set[str] = set()
        interactions: Set[tuple] = set()
        index = self._index
        tally = index.new_tally()
        cut = None

        try:
            root_id = memo.intern_tree(tree)
        except MemoBudgetExceeded as exc:
            raise OptimizationError(
                "query too large for memo budget"
            ) from exc

        # ---------------------------------------------------------- explore
        queue = deque(memo.drain_fresh())
        if self._sanitizer is not None:
            for expr in queue:
                self._sanitizer.check_group_expr(expr, memo)
        with tracer.span("optimize.explore", cat="optimizer"):
            try:
                self._explore(
                    queue, index.exploration, memo, ctx, exercised,
                    interactions, tally, tracer,
                )
            except MemoBudgetExceeded as exc:
                cut = (exc.cap, exc.group)
        # A truncated absorb dropped alternatives without stopping the
        # search: the search ran on, but it is cut all the same.
        cap, cut_group = cut or memo.truncated or (None, None)
        if cap is not None and tracer.enabled:
            tracer.event(
                "optimize.budget_exhausted", cat="optimizer",
                cap=cap, group=cut_group,
            )
        # Implementation rows are still zero here: exploration firings only.
        applications = sum(counts[1] for counts in tally)
        stats = MemoStats(
            group_count=len(memo.groups),
            expr_count=memo.total_exprs,
            rule_applications=applications,
            cut=cap,
            cut_group=cut_group,
        )
        unexercised = [
            name
            for name in targets
            if name not in exercised
            and name not in index.implementation_names
        ]
        if unexercised:
            if tracer.enabled:
                tracer.event(
                    "optimize.unexercised",
                    cat="optimizer",
                    missing=",".join(unexercised),
                    groups=stats.group_count,
                    exprs=stats.expr_count,
                    applications=applications,
                )
            self._record_metrics(tally, stats, None)
            return None

        # -------------------------------------------------------- implement
        output_columns = self._deriver.derive_tree(tree).columns
        implementer = _Implementer(
            memo,
            ctx,
            index.implementation,
            tally,
            exercised,
            sanitizer=self._sanitizer,
            tracer=tracer,
        )
        with tracer.span("optimize.implement", cat="optimizer"):
            winner = implementer.best_plan(root_id, ())
            if winner is None or winner.cost == INFINITE_COST:
                raise OptimizationError(
                    "no physical plan found "
                    "(are implementation rules disabled?)"
                )
            plan = implementer.extract(root_id, ())
        if self._sanitizer is not None:
            self._sanitizer.check_plan(plan, output_columns)
        plan_support = frozenset(implementer.plan_support) | memo.landed_support

        if tracer.enabled:
            tracer.event(
                "optimize.done",
                cat="optimizer",
                groups=stats.group_count,
                exprs=stats.expr_count,
                applications=applications,
                costings=implementer.costings,
                fired=",".join(sorted(exercised)),
                support=",".join(sorted(plan_support)),
            )
        rule_counters = index.counters(tally)
        self._record_metrics(tally, stats, implementer)
        if not exercised.issuperset(targets):
            return None  # an implementation-rule target did not fire
        return OptimizeResult(
            plan=plan,
            cost=winner.cost,
            rules_exercised=frozenset(exercised),
            output_columns=output_columns,
            logical_tree=tree,
            stats=stats,
            rule_interactions=frozenset(interactions),
            rule_counters=rule_counters,
            plan_support=plan_support,
        )

    def _record_metrics(
        self,
        tally: List[_TallyRow],
        stats: MemoStats,
        implementer: Optional["_Implementer"],
    ) -> None:
        """Fold one run into the registry; ``implementer`` is ``None`` for
        a run that stopped after exploration."""
        metrics = self.metrics
        if metrics is None:
            return
        handles = metrics.optimizer_handles()
        handles["optimizations"].inc()
        for name, counts in zip(self._index.names, tally):
            considered, fired, rejected, precondition = metrics.rule_counters(
                name
            )
            considered.inc(counts[0])
            fired.inc(counts[1])
            rejected.inc(counts[2])
            if counts[3]:
                precondition.inc(counts[3])
        handles["applications"].inc(stats.rule_applications)
        if implementer is None:
            handles["unexercised"].inc()
        else:
            handles["costings"].inc(implementer.costings)
            handles["enforcers"].inc(implementer.enforcers)
        if stats.budget_exhausted:
            handles["budget"].inc()
        handles["groups"].observe(stats.group_count)
        handles["exprs"].observe(stats.expr_count)

    # ---------------------------------------------------------------- private

    def _explore(
        self,
        queue,
        buckets: Dict[OpKind, _Bucket],
        memo: Memo,
        ctx: OptimizerContext,
        exercised: Set[str],
        interactions: Set[tuple],
        tally: List[_TallyRow],
        tracer: Tracer,
    ) -> None:
        """Drive exploration to fixpoint, recording per-rule outcomes.

        Every expression enters ``queue`` once (see :class:`Memo`), so each
        root-matching (expression, rule) pair is tried exactly once.
        """
        cap = self.config.max_rule_applications
        detailed = tracer.detailed
        applications = 0
        while queue:
            expr = queue.popleft()
            op = expr.op
            for rule, slot, match in buckets[op.kind]:
                if applications >= cap:
                    raise MemoBudgetExceeded(
                        "rule application cap", "applications", expr.group_id
                    )
                counts = tally[slot]
                counts[0] += 1
                if detailed:
                    tracer.event(
                        "rule.considered",
                        rule=rule.name,
                        group=expr.group_id,
                        op=type(expr.op).__name__,
                        phase="explore",
                    )
                found = match(op, memo)
                new_exprs = None
                if found:
                    new_exprs = self._apply_rule(
                        rule, expr, found, memo, ctx, exercised, interactions,
                        counts,
                    )
                if new_exprs is None:
                    counts[2] += 1
                    if detailed:
                        tracer.event(
                            "rule.rejected",
                            rule=rule.name,
                            group=expr.group_id,
                            phase="explore",
                        )
                    continue
                counts[1] += 1
                applications += 1
                if detailed:
                    tracer.event(
                        "rule.fired",
                        rule=rule.name,
                        group=expr.group_id,
                        produced=len(new_exprs),
                        phase="explore",
                    )
                queue.extend(new_exprs)

    def _apply_rule(
        self,
        rule: Rule,
        expr: GroupExpr,
        found: Sequence[LogicalOp],
        memo: Memo,
        ctx: OptimizerContext,
        exercised: Set[str],
        interactions: Set[tuple],
        counts: _TallyRow,
    ) -> Optional[List[GroupExpr]]:
        """Apply ``rule`` to the bindings ``found`` for ``expr``; returns
        the new exprs, or None if no substitution produced anything."""
        produced_any = False
        for binding in found:
            if not rule.precondition(binding, ctx):
                counts[3] += 1
                if self.tracer.detailed:
                    self.tracer.event(
                        "rule.precondition_failed",
                        rule=rule.name,
                        group=expr.group_id,
                        phase="explore",
                    )
                continue
            # What the memo reads the new expressions' support off.
            derivation = (expr, rule.name, binding)
            for substitute in rule.substitute(binding, ctx):
                produced_any = True
                if isinstance(substitute, GroupRef):
                    memo.absorb_group(
                        expr.group_id, substitute.group_id, derivation
                    )
                else:
                    memo.add_to_group(expr.group_id, substitute, derivation)
        if not produced_any:
            return None  # nothing was added to the memo: nothing is fresh
        # Everything the substitutions created -- including expressions of
        # newly interned child groups -- must itself be explored.
        new_exprs = memo.drain_fresh()
        for new_expr in new_exprs:
            if new_expr.created_by is None:
                new_expr.created_by = rule.name
            if self._sanitizer is not None:
                self._sanitizer.check_group_expr(new_expr, memo, rule.name)
        exercised.add(rule.name)
        if expr.created_by is not None and expr.created_by != rule.name:
            # Section 7's derived interaction: this rule fired on an
            # expression another rule's substitution created.
            interactions.add((expr.created_by, rule.name))
        return new_exprs


class _Implementer:
    """Top-down cost-based implementation over the explored memo."""

    def __init__(
        self,
        memo: Memo,
        ctx: OptimizerContext,
        buckets: Dict[OpKind, _Bucket],
        tally: List[_TallyRow],
        exercised: Set[str],
        sanitizer=None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self._memo = memo
        self._ctx = ctx
        self._buckets = buckets
        self._tally = tally
        self._exercised = exercised
        self._sanitizer = sanitizer
        self._tracer = tracer
        self._detailed = tracer.detailed
        #: Physical alternatives costed / Sort enforcers considered.
        self.costings = 0
        self.enforcers = 0
        self._winners: Dict[Tuple[int, Ordering], Optional[Winner]] = {}
        self._in_progress: Set[Tuple[int, Ordering]] = set()
        #: Filled by :meth:`extract`: the rules the extracted plan relies on.
        self.plan_support: Set[str] = set()

    # ------------------------------------------------------------- best plan

    def best_plan(self, group_id: int, required: Ordering) -> Optional[Winner]:
        key = (group_id, required)
        if key in self._winners:
            return self._winners[key]
        if key in self._in_progress:
            return None  # cycle guard (can only arise via group absorption)
        self._in_progress.add(key)
        try:
            winner = self._compute_best(group_id, required)
        finally:
            self._in_progress.discard(key)
        self._winners[key] = winner
        return winner

    def _compute_best(
        self, group_id: int, required: Ordering
    ) -> Optional[Winner]:
        memo = self._memo
        ctx = self._ctx
        tally = self._tally
        group = memo.group(group_id)
        best: Optional[Winner] = None

        for expr in group.logical_exprs:
            op = expr.op
            for rule, slot, match in self._buckets[op.kind]:
                counts = tally[slot]
                counts[0] += 1
                produced_any = False
                for binding in match(op, memo):
                    if not rule.precondition(binding, ctx):
                        counts[3] += 1
                        continue
                    for phys in rule.substitute(binding, ctx):
                        produced_any = True
                        self._exercised.add(rule.name)
                        candidate = self._cost_physical(
                            phys, group, required
                        )
                        if candidate and (
                            best is None or candidate.cost < best.cost
                        ):
                            best = candidate
                            best.source = (rule.name, expr, binding)
                if produced_any:
                    counts[1] += 1
                    if self._detailed:
                        self._tracer.event(
                            "rule.fired",
                            rule=rule.name,
                            group=group_id,
                            phase="implement",
                        )
                else:
                    counts[2] += 1

        # Sort enforcer: take the unordered winner and sort it.
        if required:
            self.enforcers += 1
            base = self.best_plan(group_id, ())
            if base is not None:
                total = base.cost + sort_cost(group.estimate.rows)
                if best is None or total < best.cost:
                    best = Winner(
                        cost=total,
                        op=None,
                        child_orderings=(),
                        provided=required,
                    )
        return best

    def _cost_physical(
        self, phys: PhysicalOp, group: Group, required: Ordering
    ) -> Optional[Winner]:
        child_requirements = phys.required_child_orderings()
        child_winners = []
        child_rows = []
        for child, child_required in zip(phys.children, child_requirements):
            assert isinstance(child, GroupRef)
            child_winner = self.best_plan(child.group_id, child_required)
            if child_winner is None or child_winner.cost == INFINITE_COST:
                return None
            child_winners.append(child_winner)
            child_rows.append(self._memo.group(child.group_id).estimate.rows)

        provided = phys.provided_ordering(
            tuple(winner.provided for winner in child_winners)
        )
        if not ordering_satisfies(provided, required):
            return None
        self.costings += 1
        cost = local_cost(phys, tuple(child_rows), group.estimate.rows)
        if self._detailed:
            self._tracer.event(
                "costing",
                cat="cost",
                op=type(phys).__name__,
                group=group.group_id,
                cost=round(cost, 6),
            )
        if self._sanitizer is not None:
            self._sanitizer.check_cost(phys, cost)
        cost += sum(winner.cost for winner in child_winners)
        return Winner(
            cost=cost,
            op=phys,
            child_orderings=child_requirements,
            provided=provided,
        )

    # ------------------------------------------------------------ extraction

    def extract(self, group_id: int, required: Ordering) -> PhysicalOp:
        """Materialize the winning plan as a concrete physical tree, and
        add what it relies on to :attr:`plan_support`: each physical
        operator's implementation rule and the support of the logical
        expression (and bound children) it implements, which covers the
        group's first expression too (see :mod:`repro.optimizer.memo`)."""
        winner = self._winners.get((group_id, required))
        if winner is None:
            raise OptimizationError(
                f"no winner recorded for group {group_id} ordering {required}"
            )
        memo = self._memo
        group = memo.group(group_id)
        if winner.source is not None:
            rule_name, expr, binding = winner.source
            support = self.plan_support
            support.add(rule_name)
            support |= expr.support
            support |= memo.binding_support(expr.op, binding)
        if winner.op is None:  # Sort enforcer
            child = self.extract(group_id, ())
            keys = _sort_keys_for(required, group.props)
            return PhysicalSort(child, keys)
        children = tuple(
            self.extract(child.group_id, child_required)
            for child, child_required in zip(
                winner.op.children, winner.child_orderings
            )
        )
        return winner.op.with_children(children)


def _sort_keys_for(ordering: Ordering, props: LogicalProps):
    by_id = {column.cid: column for column in props.columns}
    keys = []
    for cid, ascending in ordering:
        if cid not in by_id:
            raise OptimizationError(
                f"enforcer ordering references unknown column id {cid}"
            )
        keys.append(SortKey(by_id[cid], ascending))
    return tuple(keys)
