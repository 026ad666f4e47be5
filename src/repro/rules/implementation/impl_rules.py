"""Implementation (physical transformation) rules.

These transform logical operators into physical ones (paper, Section 2.1:
"Implementation rules ... transform logical operator trees into hybrid
logical/physical trees", e.g. logical join -> physical hash join).  Every
logical operator kind has at least one unconditionally applicable
implementation rule, so disabling any *logical* rule still leaves the
optimizer able to produce a plan -- matching the paper's experimental setup,
which turns logical rules on and off.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterable, List, Tuple

from repro.expr.expressions import (
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    conjunction,
    conjuncts,
)
from repro.logical.operators import (
    Apply,
    Distinct,
    Except,
    GbAgg,
    Get,
    Intersect,
    Join,
    JoinKind,
    Limit,
    OpKind,
    Project,
    Select,
    Sort,
    Union,
    UnionAll,
)
from repro.physical.operators import (
    ComputeScalar,
    Concat,
    Filter,
    HashAggregate,
    HashDistinct,
    HashExcept,
    HashIntersect,
    HashJoin,
    HashUnion,
    MergeJoin,
    NestedApply,
    NestedLoopsJoin,
    PhysicalOp,
    Sort as PhysicalSort,
    StreamAggregate,
    TableScan,
    Top,
)
from repro.rules.framework import ANY, P, Rule, RuleContext, RuleType


class ImplementationRule(Rule):
    rule_type = RuleType.IMPLEMENTATION


class GetToTableScan(ImplementationRule):
    """Implement base-table access as a heap scan."""

    name = "GetToTableScan"
    pattern = P(OpKind.GET)

    def substitute(self, binding: Get, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield TableScan(binding.table, binding.columns, binding.alias)


class SelectToFilter(ImplementationRule):
    name = "SelectToFilter"
    pattern = P(OpKind.SELECT, ANY)

    def substitute(self, binding: Select, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield Filter(binding.child, binding.predicate)


class ProjectToComputeScalar(ImplementationRule):
    name = "ProjectToComputeScalar"
    pattern = P(OpKind.PROJECT, ANY)

    def substitute(self, binding: Project, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield ComputeScalar(binding.child, binding.outputs)


class JoinToNestedLoops(ImplementationRule):
    """Nested loops handles every join kind and arbitrary predicates."""

    name = "JoinToNestedLoops"
    pattern = P(OpKind.JOIN, ANY, ANY)

    def substitute(self, binding: Join, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield NestedLoopsJoin(
            binding.join_kind, binding.left, binding.right, binding.predicate
        )


class ApplyToNestedApply(ImplementationRule):
    """Naive (non-unnested) subquery execution; always available, so an
    Apply the exploration rules cannot unnest still has a plan -- it is
    just priced above the unnested alternatives."""

    name = "ApplyToNestedApply"
    pattern = P(OpKind.APPLY, ANY, ANY)

    def substitute(
        self, binding: Apply, ctx: RuleContext
    ) -> Iterable[PhysicalOp]:
        yield NestedApply(
            binding.apply_kind, binding.left, binding.right, binding.predicate
        )


def _split_equi_predicate(
    binding: Join, ctx: RuleContext
) -> Tuple[Tuple[Column, ...], Tuple[Column, ...], Expr]:
    """Orient equi-join pairs as (left keys, right keys) and collect the
    residual (non-equi) conjuncts."""
    return _split_equi(binding.predicate, ctx.column_ids(binding.left))


@lru_cache(maxsize=1024)
def _split_equi(
    predicate: Expr, left_ids: FrozenSet[int]
) -> Tuple[Tuple[Column, ...], Tuple[Column, ...], Expr]:
    """Pure in its (hashable, immutable) arguments, and asked the same
    question by two rules' precondition and substitution for every required
    ordering of a group and every ``Plan(q, ¬R)`` of one query."""
    left_keys: List[Column] = []
    right_keys: List[Column] = []
    residual = []
    for part in conjuncts(predicate):
        is_equi = (
            isinstance(part, Comparison)
            and part.op is ComparisonOp.EQ
            and isinstance(part.left, ColumnRef)
            and isinstance(part.right, ColumnRef)
        )
        if is_equi:
            a, b = part.left.column, part.right.column
            if a.cid in left_ids and b.cid not in left_ids:
                left_keys.append(a)
                right_keys.append(b)
                continue
            if b.cid in left_ids and a.cid not in left_ids:
                left_keys.append(b)
                right_keys.append(a)
                continue
        residual.append(part)
    return tuple(left_keys), tuple(right_keys), conjunction(residual)


class JoinToHashJoin(ImplementationRule):
    """Hash join for equi-joins (inner, left outer, semi, anti)."""

    name = "JoinToHashJoin"
    pattern = P(
        OpKind.JOIN,
        ANY,
        ANY,
        join_kinds=(
            JoinKind.INNER,
            JoinKind.LEFT_OUTER,
            JoinKind.SEMI,
            JoinKind.ANTI,
        ),
    )
    condition_note = "at least one cross-side equality conjunct"

    def precondition(self, binding: Join, ctx: RuleContext) -> bool:
        left_keys, _, _ = _split_equi_predicate(binding, ctx)
        return bool(left_keys)

    def substitute(self, binding: Join, ctx: RuleContext) -> Iterable[PhysicalOp]:
        left_keys, right_keys, residual = _split_equi_predicate(binding, ctx)
        yield HashJoin(
            binding.join_kind,
            binding.left,
            binding.right,
            left_keys,
            right_keys,
            residual,
        )


class JoinToMergeJoin(ImplementationRule):
    """Merge join for inner equi-joins (requires both inputs sorted)."""

    name = "JoinToMergeJoin"
    pattern = P(OpKind.JOIN, ANY, ANY, join_kinds=(JoinKind.INNER,))
    condition_note = "at least one cross-side equality conjunct"

    def precondition(self, binding: Join, ctx: RuleContext) -> bool:
        left_keys, _, _ = _split_equi_predicate(binding, ctx)
        return bool(left_keys)

    def substitute(self, binding: Join, ctx: RuleContext) -> Iterable[PhysicalOp]:
        left_keys, right_keys, residual = _split_equi_predicate(binding, ctx)
        yield MergeJoin(
            binding.left, binding.right, left_keys, right_keys, residual
        )


class GbAggToHashAggregate(ImplementationRule):
    name = "GbAggToHashAggregate"
    pattern = P(OpKind.GB_AGG, ANY)

    def substitute(self, binding: GbAgg, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield HashAggregate(binding.child, binding.group_by, binding.aggregates)


class GbAggToStreamAggregate(ImplementationRule):
    """Stream aggregate; requires input sorted on the grouping columns
    (the optimizer inserts a Sort enforcer when nothing provides it)."""

    name = "GbAggToStreamAggregate"
    pattern = P(OpKind.GB_AGG, ANY)

    def substitute(self, binding: GbAgg, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield StreamAggregate(
            binding.child, binding.group_by, binding.aggregates
        )


class UnionAllToConcat(ImplementationRule):
    name = "UnionAllToConcat"
    pattern = P(OpKind.UNION_ALL, ANY, ANY)

    def substitute(self, binding: UnionAll, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield Concat(
            binding.left,
            binding.right,
            binding.output_columns,
            binding.left_columns,
            binding.right_columns,
        )


class UnionToHashUnion(ImplementationRule):
    name = "UnionToHashUnion"
    pattern = P(OpKind.UNION, ANY, ANY)

    def substitute(self, binding: Union, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield HashUnion(
            binding.left,
            binding.right,
            binding.output_columns,
            binding.left_columns,
            binding.right_columns,
        )


class IntersectToHashIntersect(ImplementationRule):
    name = "IntersectToHashIntersect"
    pattern = P(OpKind.INTERSECT, ANY, ANY)

    def substitute(self, binding: Intersect, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield HashIntersect(
            binding.left,
            binding.right,
            binding.output_columns,
            binding.left_columns,
            binding.right_columns,
        )


class ExceptToHashExcept(ImplementationRule):
    name = "ExceptToHashExcept"
    pattern = P(OpKind.EXCEPT, ANY, ANY)

    def substitute(self, binding: Except, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield HashExcept(
            binding.left,
            binding.right,
            binding.output_columns,
            binding.left_columns,
            binding.right_columns,
        )


class DistinctToHashDistinct(ImplementationRule):
    name = "DistinctToHashDistinct"
    pattern = P(OpKind.DISTINCT, ANY)

    def substitute(self, binding: Distinct, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield HashDistinct(binding.child)


class SortToPhysicalSort(ImplementationRule):
    name = "SortToPhysicalSort"
    pattern = P(OpKind.SORT, ANY)

    def substitute(self, binding: Sort, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield PhysicalSort(binding.child, binding.keys)


class LimitToTop(ImplementationRule):
    name = "LimitToTop"
    pattern = P(OpKind.LIMIT, ANY)

    def substitute(self, binding: Limit, ctx: RuleContext) -> Iterable[PhysicalOp]:
        yield Top(binding.child, binding.count)
