"""Unit tests for memo binding enumeration (the Cascades binding iterator)."""

import pytest

from repro.expr.expressions import TRUE
from repro.logical.cardinality import CardinalityEstimator
from repro.logical.operators import (
    GroupRef,
    Join,
    JoinKind,
    OpKind,
    Select,
    make_get,
)
from repro.logical.properties import PropertyDeriver
from repro.optimizer.binding import bindings
from repro.optimizer.memo import Memo
from repro.rules.framework import ANY, P, PatternNode


@pytest.fixture()
def memo(tiny_db):
    deriver = PropertyDeriver(tiny_db.catalog)
    estimator = CardinalityEstimator(
        tiny_db.catalog, tiny_db.stats_repository()
    )
    return Memo(deriver, estimator, max_groups=200, max_exprs_per_group=20)


def _root_expr(memo, tree):
    gid = memo.intern_tree(tree)
    return memo.groups[gid].logical_exprs[0]


class TestBindingEnumeration:
    def test_single_node_pattern_binds_self(self, memo, tiny_db):
        emp = make_get(tiny_db.catalog.table("emp"))
        expr = _root_expr(memo, Select(emp, TRUE))
        found = list(bindings(expr.op, P(OpKind.SELECT, ANY), memo))
        assert len(found) == 1
        assert isinstance(found[0].child, GroupRef)

    def test_non_matching_kind_yields_nothing(self, memo, tiny_db):
        emp = make_get(tiny_db.catalog.table("emp"))
        expr = _root_expr(memo, Select(emp, TRUE))
        assert list(bindings(expr.op, P(OpKind.JOIN, ANY, ANY), memo)) == []

    def test_structured_pattern_expands_child_group(self, memo, tiny_db):
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        join = Join(JoinKind.INNER, emp, dept, TRUE)
        expr = _root_expr(memo, Select(join, TRUE))
        pattern = P(OpKind.SELECT, P(OpKind.JOIN, ANY, ANY))
        found = list(bindings(expr.op, pattern, memo))
        assert len(found) == 1
        bound_join = found[0].child
        assert isinstance(bound_join, Join)
        assert isinstance(bound_join.left, GroupRef)

    def test_multiple_equivalents_multiply_bindings(self, memo, tiny_db):
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        join = Join(JoinKind.INNER, emp, dept, TRUE)
        select = Select(join, TRUE)
        expr = _root_expr(memo, select)
        # Add the commuted join to the join's group.
        join_group = expr.op.child.group_id
        memo.add_to_group(
            join_group, Join(JoinKind.INNER, GroupRef(1), GroupRef(0), TRUE)
        )
        pattern = P(OpKind.SELECT, P(OpKind.JOIN, ANY, ANY))
        found = list(bindings(expr.op, pattern, memo))
        assert len(found) == 2

    def test_join_kind_filter_in_binding(self, memo, tiny_db):
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        loj = Join(JoinKind.LEFT_OUTER, emp, dept, TRUE)
        expr = _root_expr(memo, Select(loj, TRUE))
        inner_only = P(
            OpKind.SELECT, P(OpKind.JOIN, ANY, ANY, join_kinds=(JoinKind.INNER,))
        )
        loj_only = P(
            OpKind.SELECT,
            P(OpKind.JOIN, ANY, ANY, join_kinds=(JoinKind.LEFT_OUTER,)),
        )
        assert list(bindings(expr.op, inner_only, memo)) == []
        assert len(list(bindings(expr.op, loj_only, memo))) == 1

    def test_deep_pattern_binds_two_levels(self, memo, tiny_db):
        emp = make_get(tiny_db.catalog.table("emp"))
        tree = Select(Select(emp, TRUE), TRUE)
        expr = _root_expr(memo, tree)
        pattern = P(OpKind.SELECT, P(OpKind.SELECT, ANY))
        found = list(bindings(expr.op, pattern, memo))
        assert len(found) == 1
        inner = found[0].child
        assert isinstance(inner, Select)
        assert isinstance(inner.child, GroupRef)

    def test_arity_mismatch_rejected(self, memo, tiny_db):
        emp = make_get(tiny_db.catalog.table("emp"))
        expr = _root_expr(memo, emp)
        # GET is a leaf; a unary pattern over GET cannot match.
        assert list(bindings(expr.op, P(OpKind.GET, ANY), memo)) == []


class _CountingPattern(PatternNode):
    """A pattern node that counts how often it is asked to match."""

    calls = 0

    def matches_op(self, op):
        type(self).calls += 1
        return super().matches_op(op)


class TestBindingShortcuts:
    def test_all_generic_pattern_yields_the_memo_expression_itself(
        self, memo, tiny_db
    ):
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        expr = _root_expr(memo, Join(JoinKind.INNER, emp, dept, TRUE))
        (found,) = bindings(expr.op, P(OpKind.JOIN, ANY, ANY), memo)
        assert found is expr.op
        leaf = memo.groups[expr.op.left.group_id].logical_exprs[0]
        (found,) = bindings(leaf.op, P(OpKind.GET), memo)
        assert found is leaf.op

    def test_structured_pattern_still_builds_a_bound_copy(self, memo, tiny_db):
        emp = make_get(tiny_db.catalog.table("emp"))
        expr = _root_expr(memo, Select(Select(emp, TRUE), TRUE))
        (found,) = bindings(
            expr.op, P(OpKind.SELECT, P(OpKind.SELECT, ANY)), memo
        )
        assert found is not expr.op
        assert found.child is memo.groups[expr.op.child.group_id].logical_exprs[0].op

    def test_structured_position_skips_other_kinds_without_recursing(
        self, memo, tiny_db
    ):
        emp = make_get(tiny_db.catalog.table("emp"))
        dept = make_get(tiny_db.catalog.table("dept"))
        join = Join(JoinKind.INNER, emp, dept, TRUE)
        expr = _root_expr(memo, Select(join, TRUE))
        # The child group holds two joins and one select.
        child_group = expr.op.child.group_id
        memo.add_to_group(
            child_group, Join(JoinKind.INNER, GroupRef(1), GroupRef(0), TRUE)
        )
        memo.add_to_group(child_group, Select(GroupRef(child_group), TRUE))
        assert len(memo.groups[child_group].logical_exprs) == 3

        _CountingPattern.calls = 0
        sub_pattern = _CountingPattern(OpKind.JOIN, (ANY, ANY))
        found = list(
            bindings(expr.op, P(OpKind.SELECT, sub_pattern), memo)
        )
        assert len(found) == 2
        # Asked about the two joins only; the select was never offered.
        assert _CountingPattern.calls == 2
