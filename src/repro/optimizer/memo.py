"""The memo: groups of equivalent expressions.

The memo is the core Cascades data structure: a *group* collects logically
equivalent expressions; a *group expression* is an operator whose children
are :class:`GroupRef` placeholders pointing at other groups.  Structural
deduplication (one interning table across the whole memo) keeps exploration
finite for rules that do not manufacture fresh columns; explicit budget caps
(see :class:`~repro.optimizer.config.OptimizerConfig`) bound the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.logical.cardinality import CardinalityEstimator, RelEstimate
from repro.logical.operators import GroupRef, LogicalOp
from repro.logical.properties import LogicalProps, PropertyDeriver
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass
class GroupExpr:
    """One logical expression inside a group (children are GroupRefs)."""

    op: LogicalOp
    group_id: int
    #: Name of the rule whose substitution created this expression, or None
    #: for expressions of the initial query tree.  Drives the derived-
    #: interaction tracking of Section 7 ("rule r2 is exercised on an
    #: expression which was obtained as a result of exercising rule r1").
    created_by: Optional[str] = None


class Group:
    """A set of logically equivalent expressions plus derived properties."""

    def __init__(
        self, group_id: int, props: LogicalProps, estimate: RelEstimate
    ) -> None:
        self.group_id = group_id
        self.props = props
        self.estimate = estimate
        self.logical_exprs: List[GroupExpr] = []
        self._logical_set: Set[LogicalOp] = set()

    def contains(self, op: LogicalOp) -> bool:
        return op in self._logical_set

    def add(self, op: LogicalOp) -> Optional[GroupExpr]:
        """Add ``op`` to this group; returns the new expr or None if dup."""
        seen = self._logical_set
        size = len(seen)
        seen.add(op)  # the one probe: a duplicate leaves the size alone
        if len(seen) == size:
            return None
        expr = GroupExpr(op=op, group_id=self.group_id)
        self.logical_exprs.append(expr)
        return expr

    def __repr__(self) -> str:
        return f"<Group {self.group_id}: {len(self.logical_exprs)} exprs>"


class MemoBudgetExceeded(Exception):
    """Raised internally when a memo cap is hit; exploration stops cleanly."""


class Memo:
    """All groups of one optimization run.

    Invariant: every :class:`GroupExpr` leaves :meth:`drain_fresh` exactly
    once -- each creation path appends the new expression to the fresh list
    once, and draining clears it.  The engine explores what it drains, so
    each (expression, rule) pair is tried once without a per-expression
    mask of rules already applied.
    """

    def __init__(
        self,
        deriver: PropertyDeriver,
        estimator: CardinalityEstimator,
        max_groups: int,
        max_exprs_per_group: int,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self._deriver = deriver
        self._estimator = estimator
        self._max_groups = max_groups
        self._max_exprs_per_group = max_exprs_per_group
        self._tracer = tracer
        self.groups: List[Group] = []
        #: Global interning table: memo-form operator -> owning group id.
        self._interned: Dict[LogicalOp, int] = {}
        #: Expressions created since the last :meth:`drain_fresh` call.
        #: Substitutions can intern whole subtrees, creating expressions in
        #: *new child groups*; the engine must explore those too, so every
        #: creation path records the expression here.
        self._fresh: List[GroupExpr] = []

    def group(self, group_id: int) -> Group:
        return self.groups[group_id]

    @property
    def total_exprs(self) -> int:
        return sum(len(group.logical_exprs) for group in self.groups)

    # ------------------------------------------------------------- interning

    def intern_tree(self, op: LogicalOp) -> int:
        """Recursively intern a logical tree; returns the root group id."""
        memo_form = self._to_memo_form(op)
        existing = self._interned.get(memo_form)
        if existing is not None:
            return existing
        return self._new_group_for(memo_form)

    def _to_memo_form(self, op: LogicalOp) -> LogicalOp:
        """Rewrite ``op``'s operator children into group references;
        ``op`` itself when it has none left to rewrite."""
        children = []
        rewritten = False
        for child in op.children:
            if not isinstance(child, GroupRef):
                child = GroupRef(self.intern_tree(child))
                rewritten = True
            children.append(child)
        return op.with_children(tuple(children)) if rewritten else op

    def _new_group_for(self, memo_form: LogicalOp) -> int:
        if len(self.groups) >= self._max_groups:
            raise MemoBudgetExceeded(
                f"group cap {self._max_groups} exceeded"
            )
        group_id = len(self.groups)
        props, estimate = self._derive(memo_form)
        group = Group(group_id, props, estimate)
        self.groups.append(group)
        expr = group.add(memo_form)
        if expr is not None:
            self._fresh.append(expr)
        self._interned[memo_form] = group_id
        if self._tracer.detailed:
            self._tracer.event(
                "memo.group",
                cat="memo",
                group=group_id,
                op=type(memo_form).__name__,
                groups=len(self.groups),
            )
        return group_id

    def _derive(self, memo_form: LogicalOp):
        child_props = []
        child_estimates = []
        for child in memo_form.children:
            assert isinstance(child, GroupRef)
            child_group = self.group(child.group_id)
            child_props.append(child_group.props)
            child_estimates.append(child_group.estimate)
        props = self._deriver.derive(memo_form, tuple(child_props))
        estimate = self._estimator.estimate(memo_form, tuple(child_estimates))
        return props, estimate

    # ----------------------------------------------------- adding substitutes

    def add_to_group(self, group_id: int, op: LogicalOp) -> Optional[GroupExpr]:
        """Intern a substitute tree and add its root to group ``group_id``.

        Returns the new :class:`GroupExpr`, or None if it was a duplicate
        within that group.
        """
        group = self.group(group_id)
        if len(group.logical_exprs) >= self._max_exprs_per_group:
            raise MemoBudgetExceeded(
                f"expression cap {self._max_exprs_per_group} exceeded in "
                f"group {group_id}"
            )
        memo_form = self._to_memo_form(op)
        expr = group.add(memo_form)
        if expr is not None:
            self._fresh.append(expr)
            self._interned.setdefault(memo_form, group_id)
            if self._tracer.detailed:
                self._tracer.event(
                    "memo.expr",
                    cat="memo",
                    group=group_id,
                    op=type(memo_form).__name__,
                    exprs=len(group.logical_exprs),
                )
        return expr

    def absorb_group(self, target_id: int, source_id: int) -> List[GroupExpr]:
        """Copy ``source``'s logical expressions into ``target``.

        Used when a substitution yields a bare group reference ("this group
        is equivalent to that one"), e.g. RemoveTrivialProject.  A one-shot
        copy rather than a full Cascades group merge; sufficient because the
        framework needs alternatives, not exhaustive equivalence closure.
        """
        if target_id == source_id:
            return []
        target = self.group(target_id)
        source = self.group(source_id)
        added = []
        for expr in list(source.logical_exprs):
            if len(target.logical_exprs) >= self._max_exprs_per_group:
                break
            new_expr = target.add(expr.op)
            if new_expr is not None:
                new_expr.created_by = expr.created_by
                self._fresh.append(new_expr)
                added.append(new_expr)
        return added

    def drain_fresh(self) -> List[GroupExpr]:
        """Return (and clear) the expressions created since the last call."""
        fresh = self._fresh
        self._fresh = []
        return fresh
