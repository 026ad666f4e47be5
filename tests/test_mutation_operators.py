"""Unit tests for the mutation operators (fast: no campaign runs)."""

from __future__ import annotations

import pytest

from repro.catalog.schema import DataType
from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import (
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    TRUE,
    conjunction,
    conjuncts,
)
from repro.logical.operators import (
    Distinct,
    GbAgg,
    Join,
    JoinKind,
    Project,
    Select,
    make_get,
)
from repro.rules.framework import Rule
from repro.testing.mutation import (
    EXPECTATION_OVERRIDES,
    EXPECTED_DESPITE_OPERATOR,
    OPERATOR_NAMES,
    generate_mutants,
)
from repro.testing.mutation.operators import (
    _drop_distinct,
    _drop_last_conjunct,
    _hoist_distinct,
    _perturb_combiner,
    _rewrite_first,
)


@pytest.fixture(scope="module")
def mutants(registry):
    return generate_mutants(registry)


def _lookup(mutants, mutant_id):
    return next(m for m in mutants if m.mutant_id == mutant_id)


# ------------------------------------------------------------- mutant corpus


def test_corpus_is_substantial_and_unique(mutants):
    assert len(mutants) > 80
    ids = [m.mutant_id for m in mutants]
    assert len(set(ids)) == len(ids)


def test_ids_are_stable_across_generations(registry, mutants):
    again = generate_mutants(registry)
    assert [m.mutant_id for m in again] == [m.mutant_id for m in mutants]


def test_every_operator_produced_mutants(mutants):
    produced = {m.operator for m in mutants}
    assert produced == set(OPERATOR_NAMES)


def test_every_mutant_builds_and_swaps_into_registry(registry, mutants):
    for mutant in mutants:
        rule = mutant.build()
        assert rule.name == mutant.rule_name
        mutated = registry.with_replaced_rule(rule)
        assert type(mutated.rule(mutant.rule_name)) is type(rule)
        # the clean registry keeps the original implementation
        assert type(registry.rule(mutant.rule_name)) is not type(rule)


def test_expectation_overrides_reference_real_mutants(mutants):
    ids = {m.mutant_id for m in mutants}
    stale = [key for key in EXPECTATION_OVERRIDES if key not in ids]
    assert not stale, f"stale expectation overrides: {stale}"
    stale = [key for key in EXPECTED_DESPITE_OPERATOR if key not in ids]
    assert not stale, f"stale positive overrides: {stale}"
    both = set(EXPECTATION_OVERRIDES) & set(EXPECTED_DESPITE_OPERATOR)
    assert not both, f"mutants curated in both directions: {both}"


def test_positive_overrides_win_over_operator_default(mutants):
    for mutant_id, note in EXPECTED_DESPITE_OPERATOR.items():
        mutant = _lookup(mutants, mutant_id)
        assert mutant.expected_detectable, mutant_id
        assert mutant.expectation_note == note


def test_unexpected_mutants_carry_a_reason(mutants):
    for mutant in mutants:
        if not mutant.expected_detectable:
            assert mutant.expectation_note, mutant.mutant_id


def test_unknown_operator_rejected(registry):
    with pytest.raises(ValueError, match="unknown mutation operators"):
        generate_mutants(registry, operators=["no-such-operator"])


def test_operator_filter(registry):
    only = generate_mutants(registry, operators=["handwritten"])
    assert {m.operator for m in only} == {"handwritten"}
    assert len(only) == 4


# -------------------------------------------------------- specific operators


def test_drop_precondition_returns_true(registry, mutants):
    mutant = _lookup(mutants, "LojToJoinOnNullReject:drop-precondition")
    rule = mutant.build()
    assert rule.precondition(None, None) is True
    assert type(rule).precondition is not type(
        registry.rule("LojToJoinOnNullReject")
    ).precondition


def test_widen_join_kind_extends_pattern(registry, mutants):
    mutant = _lookup(
        mutants, "JoinCommutativity:widen-join-kind:j0+left-outer"
    )
    widened = mutant.build().pattern
    assert JoinKind.LEFT_OUTER in widened.join_kinds
    original = registry.rule("JoinCommutativity").pattern
    assert JoinKind.LEFT_OUTER not in original.join_kinds


def test_skip_substitute_drops_first_alternative(registry):
    class TwoAlternatives(Rule):
        name = "JoinCommutativity"  # any registered name

        def substitute(self, binding, ctx):
            yield "first"
            yield "second"

    mutants = generate_mutants(registry, ["JoinCommutativity"],
                               operators=["skip-substitute"])
    # apply the same wrapper shape to a controlled rule
    from repro.testing.mutation.operators import SkipSubstitute

    mutant = SkipSubstitute().mutants_for(TwoAlternatives())[0]
    rule = mutant.build()
    assert list(rule.substitute(None, None)) == ["second"]
    assert mutants  # the registry rule gets one too


# ---------------------------------------------------------- tree transforms


def _emp(tiny_catalog):
    return make_get(tiny_catalog.table("emp"))


def _pred(column, value):
    return Comparison(
        ComparisonOp.GT, ColumnRef(column), Literal(value, DataType.INT)
    )


def test_drop_last_conjunct_on_select(tiny_catalog):
    emp = _emp(tiny_catalog)
    a, b = emp.columns[0], emp.columns[1]
    two = Select(emp, conjunction([_pred(a, 1), _pred(b, 2)]))
    rewritten, changed = _rewrite_first(two, _drop_last_conjunct)
    assert changed
    assert conjuncts(rewritten.predicate) == (_pred(a, 1),)

    one = Select(emp, _pred(a, 1))
    rewritten, changed = _rewrite_first(one, _drop_last_conjunct)
    assert changed
    assert rewritten == emp  # the whole filter disappears


def test_drop_last_conjunct_on_join_predicate(tiny_catalog):
    emp = _emp(tiny_catalog)
    dept = make_get(tiny_catalog.table("dept"))
    join = Join(
        JoinKind.INNER, emp, dept,
        Comparison(
            ComparisonOp.EQ,
            ColumnRef(emp.columns[1]),
            ColumnRef(dept.columns[0]),
        ),
    )
    rewritten, changed = _rewrite_first(join, _drop_last_conjunct)
    assert changed
    assert rewritten.predicate == TRUE


def test_drop_and_hoist_distinct(tiny_catalog):
    emp = _emp(tiny_catalog)
    outputs = tuple(
        (column, ColumnRef(column)) for column in emp.columns[:2]
    )
    tree = Distinct(Project(emp, outputs))

    dropped, changed = _rewrite_first(tree, _drop_distinct)
    assert changed and dropped == Project(emp, outputs)

    hoisted, changed = _rewrite_first(tree, _hoist_distinct)
    assert changed
    assert isinstance(hoisted, Project)
    assert isinstance(hoisted.child, Distinct)


def test_perturb_combiner_reapplies_original_function(tiny_catalog):
    emp = _emp(tiny_catalog)
    group = emp.columns[1]
    partial = Column("partial_0", DataType.INT, table="agg")
    out = Column("n", DataType.INT, table="agg")
    local = GbAgg(
        emp, (group,),
        ((partial, AggregateCall(AggregateFunction.COUNT_STAR)),),
        phase="local",
    )
    tree = GbAgg(
        local, (group,),
        ((out, AggregateCall(AggregateFunction.SUM, ColumnRef(partial))),),
        phase="global",
    )
    perturbed = _perturb_combiner(tree)
    ((_, call),) = perturbed.aggregates
    # the global phase now COUNTs the partials instead of SUMming them
    assert call.function is AggregateFunction.COUNT
    # the local phase is untouched
    assert perturbed.child.aggregates == local.aggregates


def test_perturb_combiner_no_op_without_global_phase(tiny_catalog):
    emp = _emp(tiny_catalog)
    out = Column("n", DataType.INT, table="agg")
    single = GbAgg(
        emp, (), ((out, AggregateCall(AggregateFunction.COUNT_STAR)),)
    )
    assert _perturb_combiner(single) == single
