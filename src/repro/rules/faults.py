"""Deliberately buggy rule variants for fault injection.

Testing frameworks must themselves be tested: each class here is a
plausible *incorrect* implementation of one of the library's transformation
rules (a missing precondition or a wrong combining function -- the kinds of
bugs the paper's correctness methodology is designed to catch).  Swap one
into a registry with ``registry.with_replaced_rule(BuggyX())`` and the
correctness harness should flag result mismatches.
"""

from __future__ import annotations

from typing import Iterable

from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import ColumnRef
from repro.logical.operators import (
    GbAgg, Join, JoinKind, LogicalOp, OpKind, Select,
)
from repro.rules.exploration.distinct_rules import DistinctRemoveOnKey
from repro.rules.exploration.groupby_rules import (
    GbAggEagerBelowJoin,
    _fresh_agg_column,
)
from repro.rules.exploration.outerjoin_rules import LojToJoinOnNullReject
from repro.rules.exploration.select_rules import SelectPushBelowJoinRight
from repro.rules.framework import ANY, P, RuleContext


class BuggyLojToJoin(LojToJoinOnNullReject):
    """LOJ -> inner join **without** checking that the filter above is
    null-rejecting.  Incorrect: non-rejecting filters (e.g. ``IS NULL`` on a
    right-side column) keep NULL-extended rows that the inner join drops.
    """

    def precondition(self, binding: Select, ctx: RuleContext) -> bool:
        return True  # the missing null-rejection check is the bug


class BuggySelectPushBelowJoinRight(SelectPushBelowJoinRight):
    """Pushes right-side conjuncts below the right input of a **left outer**
    join as well.  Incorrect: filtering the right side before an outer join
    turns filtered matches into NULL-extended rows instead of removing them.
    """

    pattern = P(
        OpKind.SELECT,
        P(
            OpKind.JOIN,
            ANY,
            ANY,
            join_kinds=(JoinKind.INNER, JoinKind.LEFT_OUTER),
        ),
    )


class BuggyDistinctRemove(DistinctRemoveOnKey):
    """Removes Distinct **without** the unique-key precondition.
    Incorrect whenever the input actually contains duplicates."""

    def precondition(self, binding, ctx: RuleContext) -> bool:
        return True  # the missing key check is the bug


class BuggyEagerAggregation(GbAggEagerBelowJoin):
    """Eager aggregation whose global phase re-applies the **original**
    aggregate function instead of the combining function.  Incorrect for
    COUNT (counts partials instead of summing them)."""

    def substitute(self, binding: GbAgg, ctx: RuleContext) -> Iterable[LogicalOp]:
        join: Join = binding.child
        left_columns = ctx.columns(join.left)
        left_ids = frozenset(column.cid for column in left_columns)
        left_by_id = {column.cid: column for column in left_columns}

        local_group_ids = {
            column.cid
            for column in binding.group_by
            if column.cid in left_ids
        }
        from repro.expr.expressions import referenced_columns

        for column in referenced_columns(join.predicate):
            if column.cid in left_ids:
                local_group_ids.add(column.cid)
        local_group = tuple(
            left_by_id[cid] for cid in sorted(local_group_ids)
        )

        local_aggs = []
        global_aggs = []
        for index, (out_column, call) in enumerate(binding.aggregates):
            partial_col = _fresh_agg_column(call, f"partial_{index}")
            local_aggs.append((partial_col, call))
            # BUG: should be call.function.combiner (SUM for COUNT/COUNT(*));
            # re-applying COUNT counts partial rows instead of summing them.
            function = call.function
            if function is AggregateFunction.COUNT_STAR:
                function = AggregateFunction.COUNT
            wrong = AggregateCall(function, ColumnRef(partial_col))
            global_aggs.append((out_column, wrong))

        local = GbAgg(
            join.left, local_group, tuple(local_aggs), phase="local"
        )
        new_join = Join(JoinKind.INNER, local, join.right, join.predicate)
        yield GbAgg(
            new_join, binding.group_by, tuple(global_aggs), phase="global"
        )


#: All injectable faults, keyed by the rule they silently corrupt.
ALL_FAULTS = {
    "LojToJoinOnNullReject": BuggyLojToJoin,
    "SelectPushBelowJoinRight": BuggySelectPushBelowJoinRight,
    "DistinctRemoveOnKey": BuggyDistinctRemove,
    "GbAggEagerBelowJoin": BuggyEagerAggregation,
}
