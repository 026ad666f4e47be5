"""The memo: groups of equivalent expressions.

The memo is the core Cascades data structure: a *group* collects logically
equivalent expressions; a *group expression* is an operator whose children
are :class:`GroupRef` placeholders pointing at other groups.  Structural
deduplication (one interning table across the whole memo) keeps exploration
finite for rules that do not manufacture fresh columns; explicit budget caps
(see :class:`~repro.optimizer.config.OptimizerConfig`) bound the rest.

Every expression also records its *support*: the rules its first
derivation relied on.  An expression of the initial tree has none; one a
substitution creates has the rule that fired, the support of the
expression it fired on and of each expression bound at a structured
pattern position.  Each derivation inherits its source's support, so
every expression of a group carries the support of the group's first
expression, which the group's properties and estimate were derived from.

A substitute's subtrees also rely on the existing expressions they land
on when interned: when one is missing, the subtree founds a group of its
own, whose estimate is derived from the subtree instead of from the group
it would have joined, and plans over that group can cost less.  The memo
collects those rules once, in :attr:`Memo.landed_support`: the support of
each landed-on expression beyond the landing derivation's own (a
derivation that itself needs a rule of ``R`` does not happen with ``R``
disabled, so what it landed on cannot matter).  A plan built from
expressions whose support avoids ``R``, in a memo whose
``landed_support`` avoids ``R`` too, is what the search with ``R``
disabled finds as well -- as far as every sample measured shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

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
    #: The rules this expression's first derivation relied on (see the
    #: module docstring); empty for the initial tree.
    support: FrozenSet[str] = frozenset()


class Group:
    """A set of logically equivalent expressions plus derived properties."""

    def __init__(
        self, group_id: int, props: LogicalProps, estimate: RelEstimate
    ) -> None:
        self.group_id = group_id
        self.props = props
        self.estimate = estimate
        self.logical_exprs: List[GroupExpr] = []
        self._by_op: Dict[LogicalOp, GroupExpr] = {}

    def contains(self, op: LogicalOp) -> bool:
        return op in self._by_op

    def expr_for(self, op: LogicalOp) -> Optional[GroupExpr]:
        """This group's expression for memo-form ``op``, if it has one."""
        return self._by_op.get(op)

    def add(self, op: LogicalOp) -> Optional[GroupExpr]:
        """Add ``op`` to this group; returns the new expr or None if dup."""
        expr = GroupExpr(op, self.group_id)
        # The one probe: a duplicate hands back the expression it found.
        if self._by_op.setdefault(op, expr) is not expr:
            return None
        self.logical_exprs.append(expr)
        return expr

    def __repr__(self) -> str:
        return f"<Group {self.group_id}: {len(self.logical_exprs)} exprs>"


#: What a substitution was derived from: the expression the rule fired
#: on, the rule's name and the binding it fired with.
Derivation = Tuple[GroupExpr, str, LogicalOp]


class MemoBudgetExceeded(Exception):
    """Raised internally when a memo cap is hit; exploration stops cleanly.

    ``cap`` names the cap (``groups``, ``exprs`` or ``applications``) and
    ``group`` the group whose exploration hit it (None while the initial
    tree is interned).
    """

    def __init__(
        self, message: str, cap: str, group: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.cap = cap
        self.group = group


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
        #: Global interning table: memo-form operator -> the first
        #: expression made of it (whose ``group_id`` owns it).
        self._interned: Dict[LogicalOp, GroupExpr] = {}
        #: Expressions created since the last :meth:`drain_fresh` call.
        #: Substitutions can intern whole subtrees, creating expressions in
        #: *new child groups*; the engine must explore those too, so every
        #: creation path records the expression here.
        self._fresh: List[GroupExpr] = []
        #: ``id(memo-form operator)`` -> its first expression.  A binding
        #: holds the very operator objects of the expressions it bound, so
        #: :meth:`binding_support` finds them without hashing an operator.
        self._by_identity: Dict[int, GroupExpr] = {}
        #: ``("absorb", group id)`` once an :meth:`absorb_group` stopped at
        #: the expression cap with alternatives left uncopied: exploration
        #: goes on, but the search is cut.
        self.truncated: Optional[Tuple[str, int]] = None
        #: Rules an existing expression relied on when a substitute's
        #: subtree landed on it, beyond the substituting derivation's own
        #: support (see the module docstring).
        self.landed_support: FrozenSet[str] = frozenset()

    def group(self, group_id: int) -> Group:
        return self.groups[group_id]

    @property
    def total_exprs(self) -> int:
        return sum(len(group.logical_exprs) for group in self.groups)

    # ------------------------------------------------------------- interning

    def intern_tree(self, op: LogicalOp) -> int:
        """Recursively intern a logical tree; returns the root group id."""
        return self._intern(op, [], []).group_id

    def _intern(
        self, op: LogicalOp, created: List[GroupExpr], landed: List[GroupExpr]
    ) -> GroupExpr:
        """The expression ``op`` interns to: an existing one (appended to
        ``landed``) or the root of a new group (appended to ``created``,
        after whatever its subtrees created)."""
        memo_form = self._to_memo_form(op, created, landed)
        existing = self._interned.get(memo_form)
        if existing is not None:
            landed.append(existing)
            return existing
        expr = self._new_group_for(memo_form)
        created.append(expr)
        return expr

    def _to_memo_form(
        self, op: LogicalOp, created: List[GroupExpr], landed: List[GroupExpr]
    ) -> LogicalOp:
        """Rewrite ``op``'s operator children into group references;
        ``op`` itself when it has none left to rewrite."""
        children = []
        rewritten = False
        for child in op.children:
            if not isinstance(child, GroupRef):
                child = GroupRef(self._intern(child, created, landed).group_id)
                rewritten = True
            children.append(child)
        return op.with_children(tuple(children)) if rewritten else op

    def _new_group_for(self, memo_form: LogicalOp) -> GroupExpr:
        if len(self.groups) >= self._max_groups:
            raise MemoBudgetExceeded(
                f"group cap {self._max_groups} exceeded", "groups"
            )
        group_id = len(self.groups)
        props, estimate = self._derive(memo_form)
        group = Group(group_id, props, estimate)
        self.groups.append(group)
        expr = group.add(memo_form)
        self._track(expr)
        self._interned[memo_form] = expr
        if self._tracer.detailed:
            self._tracer.event(
                "memo.group",
                cat="memo",
                group=group_id,
                op=type(memo_form).__name__,
                groups=len(self.groups),
            )
        return expr

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

    def _track(self, expr: GroupExpr) -> None:
        """Record a new expression: fresh for the engine, and findable by
        the identity of its operator."""
        self._fresh.append(expr)
        self._by_identity.setdefault(id(expr.op), expr)

    # ----------------------------------------------------- adding substitutes

    def add_to_group(
        self,
        group_id: int,
        op: LogicalOp,
        derivation: Optional[Derivation] = None,
    ) -> Optional[GroupExpr]:
        """Intern a substitute tree and add its root to group ``group_id``.

        Every expression this creates gets the support of ``derivation``
        (none without one).  Returns the new :class:`GroupExpr`, or None
        if it was a duplicate within that group.
        """
        group = self.group(group_id)
        if len(group.logical_exprs) >= self._max_exprs_per_group:
            raise MemoBudgetExceeded(
                f"expression cap {self._max_exprs_per_group} exceeded in "
                f"group {group_id}",
                "exprs",
                group_id,
            )
        created: List[GroupExpr] = []
        landed: List[GroupExpr] = []
        try:
            memo_form = self._to_memo_form(op, created, landed)
            expr = group.add(memo_form)
            if expr is not None:
                self._track(expr)
                self._interned.setdefault(memo_form, expr)
                created.append(expr)
                if self._tracer.detailed:
                    self._tracer.event(
                        "memo.expr",
                        cat="memo",
                        group=group_id,
                        op=type(memo_form).__name__,
                        exprs=len(group.logical_exprs),
                    )
        except MemoBudgetExceeded as exc:
            exc.group = group_id  # the group cap, met by this substitute
            raise
        finally:
            # Also when the group cap stopped the interning half-way: what
            # it created stays in the memo.
            self._record_support(derivation, created, landed)
        return expr

    def _record_support(
        self,
        derivation: Optional[Derivation],
        created: List[GroupExpr],
        landed: List[GroupExpr],
    ) -> None:
        """Give what a substitute ``created`` the derivation's support, and
        add to :attr:`landed_support` what an expression it ``landed`` on
        relied on beyond that support.  Without a derivation there is
        nothing to record."""
        if derivation is None:
            return
        own = None
        for landed_on in landed:
            if landed_on.support <= self.landed_support:
                continue
            if own is None:
                own = self._support_of(derivation)
            if not landed_on.support <= own:
                self.landed_support = self.landed_support | (
                    landed_on.support - own
                )
        if created:
            if own is None:
                own = self._support_of(derivation)
            for new_expr in created:
                new_expr.support = own

    def absorb_group(
        self,
        target_id: int,
        source_id: int,
        derivation: Optional[Derivation] = None,
    ) -> List[GroupExpr]:
        """Copy ``source``'s logical expressions into ``target``.

        Used when a substitution yields a bare group reference ("this group
        is equivalent to that one"), e.g. RemoveTrivialProject.  A one-shot
        copy rather than a full Cascades group merge; sufficient because the
        framework needs alternatives, not exhaustive equivalence closure.
        A copy's support is its original's plus ``derivation``'s.  A copy
        that stops at the expression cap with alternatives left over marks
        the memo :attr:`truncated`.
        """
        if target_id == source_id:
            return []
        target = self.group(target_id)
        source = self.group(source_id)
        added = []
        derived = None
        for position, expr in enumerate(list(source.logical_exprs)):
            if len(target.logical_exprs) >= self._max_exprs_per_group:
                if self.truncated is None and any(
                    not target.contains(left.op)
                    for left in source.logical_exprs[position:]
                ):
                    self.truncated = ("absorb", target_id)
                break
            new_expr = target.add(expr.op)
            if new_expr is not None:
                if derived is None:
                    derived = (
                        frozenset() if derivation is None
                        else self._support_of(derivation)
                    )
                new_expr.support = expr.support | derived
                new_expr.created_by = expr.created_by
                self._track(new_expr)
                added.append(new_expr)
        return added

    # --------------------------------------------------------------- support

    def _support_of(self, derivation: Derivation) -> FrozenSet[str]:
        """The rule that fired, the support of what it fired on, and the
        support of what a structured pattern position bound."""
        source, rule_name, binding = derivation
        support = source.support | {rule_name}
        bound = self.binding_support(source.op, binding)
        return support if bound <= support else support | bound

    def binding_support(
        self, op: LogicalOp, binding: LogicalOp
    ) -> FrozenSet[str]:
        """The support of the expressions a binding of memo expression
        ``op`` bound at its structured positions (empty when it bound
        none).  A bound child that is not itself a memo expression (a
        pattern deeper than two levels) counts its whole group."""
        support: FrozenSet[str] = frozenset()
        if binding is op:
            return support
        for mine, bound in zip(op.children, binding.children):
            if isinstance(bound, GroupRef):
                continue
            group_id = mine.group_id
            expr = self._by_identity.get(id(bound))
            if expr is None or expr.group_id != group_id:
                # The operator is in another group first, or is no memo
                # operator at all.
                expr = self.groups[group_id].expr_for(bound)
            found = (expr,) if expr is not None else (
                self.groups[group_id].logical_exprs
            )
            for bound_expr in found:
                if not bound_expr.support <= support:
                    support = support | bound_expr.support
        return support

    def drain_fresh(self) -> List[GroupExpr]:
        """Return (and clear) the expressions created since the last call."""
        fresh = self._fresh
        self._fresh = []
        return fresh
