"""Unit tests for memo binding enumeration (the Cascades binding iterator)
and for the compiled per-pattern matchers that implement it."""

import itertools
from collections import deque
from typing import Iterator, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.expr.expressions import TRUE
from repro.logical.cardinality import CardinalityEstimator
from repro.logical.operators import (
    GroupRef,
    Join,
    JoinKind,
    LogicalOp,
    OpKind,
    Select,
    make_get,
)
from repro.logical.properties import PropertyDeriver
from repro.obs.trace import NULL_TRACER
from repro.optimizer import binding
from repro.optimizer.binding import bindings, compile_pattern
from repro.optimizer.engine import Optimizer, OptimizerContext
from repro.optimizer.memo import Memo, MemoBudgetExceeded
from repro.rules.framework import ANY, P, PatternNode
from repro.sql.binder import sql_to_tree
from repro.testing.mutation.operators import generate_mutants
from repro.testing.random_gen import RandomQueryGenerator


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
        (found,) = bindings(expr.op, ANY, memo)
        assert found is expr.op

    def test_structured_pattern_still_builds_a_bound_copy(self, memo, tiny_db):
        emp = make_get(tiny_db.catalog.table("emp"))
        expr = _root_expr(memo, Select(Select(emp, TRUE), TRUE))
        (found,) = bindings(
            expr.op, P(OpKind.SELECT, P(OpKind.SELECT, ANY)), memo
        )
        assert found is not expr.op
        assert found.child is memo.groups[expr.op.child.group_id].logical_exprs[0].op

    def test_structured_position_skips_other_kinds_without_recursing(
        self, memo, tiny_db, monkeypatch
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

        # Sub-patterns are compiled through the module-level name: wrap the
        # join sub-pattern's matcher so it records what it is asked about
        # (compiling past the per-process cache, which may hold it already).
        sub_pattern = P(OpKind.JOIN, ANY, ANY)
        asked: List[LogicalOp] = []
        compile_real = binding.compile_pattern.__wrapped__

        def compile_counting(pattern):
            match = compile_real(pattern)
            if pattern is not sub_pattern:
                return match

            def counting(op, memo):
                asked.append(op)
                return match(op, memo)

            return counting

        monkeypatch.setattr(binding, "compile_pattern", compile_counting)
        found = bindings(expr.op, P(OpKind.SELECT, sub_pattern), memo)
        assert len(found) == 2
        # Asked about the two joins only; the select was never offered.
        assert [op.kind for op in asked] == [OpKind.JOIN, OpKind.JOIN]


# --------------------------------------------------- compiled vs. reference


def reference_bindings(
    op: LogicalOp, pattern: PatternNode, memo
) -> Iterator[LogicalOp]:
    """The recursive binding generator the compiled matchers replaced,
    kept as their reference: same bindings, same order."""
    if not pattern.matches_op(op):
        return
    if pattern.kind is None:
        yield op
        return
    children = op.children
    if len(pattern.children) != len(children):
        return

    options: List[object] = []
    structured = False
    for child, sub_pattern in zip(children, pattern.children):
        kind = sub_pattern.kind
        if kind is None:
            options.append((child,))
            continue
        structured = True
        assert isinstance(child, GroupRef), "memo expressions have GroupRef children"
        child_bindings = [
            found
            for child_expr in memo.group(child.group_id).logical_exprs
            if child_expr.op.kind is kind
            for found in reference_bindings(child_expr.op, sub_pattern, memo)
        ]
        if not child_bindings:
            return
        options.append(child_bindings)

    if not structured:
        yield op
        return
    for combination in itertools.product(*options):
        yield op.with_children(combination)


@pytest.fixture(scope="module")
def explorer(tpch_db, tpch_stats, registry):
    """``tree -> memo`` explored by the default optimizer (to fixpoint or
    cap), so groups hold many alternatives of several kinds."""
    optimizer = Optimizer(tpch_db.catalog, tpch_stats, registry)
    index = optimizer._index
    config = optimizer.config

    def explore(tree) -> Memo:
        memo = Memo(
            optimizer._deriver,
            optimizer._estimator,
            config.max_groups,
            config.max_exprs_per_group,
        )
        memo.intern_tree(tree)
        ctx = OptimizerContext(
            memo, optimizer._deriver, optimizer._estimator, tpch_db.catalog
        )
        try:
            optimizer._explore(
                deque(memo.drain_fresh()), index.exploration, memo, ctx,
                set(), set(), index.new_tally(), NULL_TRACER,
            )
        except MemoBudgetExceeded:
            pass
        return memo

    return explore


@pytest.fixture(scope="module")
def every_pattern(registry):
    """Every registry pattern plus every ``widen-join-kind`` mutant's."""
    patterns = [rule.pattern for rule in registry.all_rules]
    widened = generate_mutants(registry, operators=["widen-join-kind"])
    assert widened
    patterns.extend(mutant.build().pattern for mutant in widened)
    return patterns


def _assert_matchers_agree(memo, patterns) -> int:
    """Compare every compiled matcher with the reference on every memo
    expression; returns the number of bindings compared."""
    compared = 0
    matchers = [(pattern, compile_pattern(pattern)) for pattern in patterns]
    for group in memo.groups:
        for expr in group.logical_exprs:
            op = expr.op
            for pattern, match in matchers:
                want = list(reference_bindings(op, pattern, memo))
                got = list(match(op, memo))
                assert got == want, (str(pattern), op)
                assert [b is op for b in got] == [b is op for b in want]
                compared += len(want)
    return compared


class TestCompiledMatchers:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_compiled_matcher_equals_the_reference(
        self, tpch_db, tpch_stats, explorer, every_pattern, seed
    ):
        tree = RandomQueryGenerator(
            tpch_db.catalog, seed=seed, stats=tpch_stats,
            min_operators=2, max_operators=6,
        ).random_tree()
        _assert_matchers_agree(explorer(tree), every_pattern)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT c_custkey FROM customer WHERE c_acctbal > 100 AND EXISTS "
            "(SELECT 1 FROM orders WHERE o_custkey = c_custkey AND "
            "o_totalprice > 1000)",
            "SELECT o_orderkey FROM orders WHERE o_custkey NOT IN "
            "(SELECT c_custkey FROM customer WHERE c_acctbal > 500)",
        ],
    )
    def test_subquery_shapes_bind_as_the_reference(
        self, tpch_db, explorer, every_pattern, sql
    ):
        memo = explorer(sql_to_tree(sql, tpch_db.catalog))
        assert any(
            group.logical_exprs[0].op.kind is OpKind.APPLY
            for group in memo.groups
        )
        assert _assert_matchers_agree(memo, every_pattern) > 0
