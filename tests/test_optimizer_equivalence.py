"""Golden equivalence: the rule index changes which pairs are *tried*, not
what the optimizer finds.

``GOLDEN`` was recorded by running :func:`_digest` -- this same test body --
at the parent commit ``fb80cc4``, whose engine offered every memo expression
to every active rule.  An engine that visits only the pairs whose pattern
root can match, in the same order among those pairs, must reproduce every
digest: same plan shape and cost, same ``RuleSet(q)``, same interactions,
same per-rule firings, same memo size -- with no rule disabled and with each
rule of ``RuleSet(q)`` disabled in turn.

The second half pins the index's edge cases: generic roots, widened join
kinds on a replaced rule, disabled rules, and registry order inside a kind.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.expr.expressions import ColumnRef, Comparison, ComparisonOp
from repro.logical.fingerprint import fingerprint
from repro.logical.operators import Join, JoinKind, OpKind, make_get
from repro.optimizer.config import DEFAULT_CONFIG
from repro.optimizer.engine import Optimizer
from repro.optimizer.result import OptimizationError
from repro.rules.exploration.join_rules import JoinCommutativity
from repro.rules.framework import ANY, Rule
from repro.rules.registry import RuleRegistry
from repro.sql.binder import sql_to_tree
from repro.testing.mutation import generate_mutants
from repro.testing.random_gen import RandomQueryGenerator

#: The EXISTS / IN shapes of tests/test_subquery_differential.py.
SUBQUERY_SQL = (
    "SELECT c_custkey FROM customer WHERE EXISTS "
    "(SELECT 1 FROM orders WHERE o_custkey = c_custkey)",
    "SELECT c_custkey FROM customer WHERE NOT EXISTS "
    "(SELECT 1 FROM orders WHERE o_custkey = c_custkey)",
    "SELECT o_orderkey FROM orders WHERE o_custkey IN "
    "(SELECT c_custkey FROM customer WHERE c_acctbal > 500)",
    "SELECT o_orderkey FROM orders WHERE o_custkey NOT IN "
    "(SELECT c_custkey FROM customer WHERE c_acctbal > 500)",
    "SELECT n_name FROM nation WHERE n_regionkey IN "
    "(SELECT r_regionkey FROM region)",
    "SELECT c_custkey FROM customer WHERE c_acctbal > 100 AND EXISTS "
    "(SELECT 1 FROM orders WHERE o_custkey = c_custkey AND "
    "o_totalprice > 1000)",
)

RANDOM_QUERIES = 30


def _outcome(optimizer_for, tree, config) -> str:
    """One line describing everything an optimization is allowed to decide."""
    try:
        result = optimizer_for(config).optimize(tree)
    except OptimizationError as exc:
        return f"{config.cache_token()}|error|{exc}"
    fired = sorted(
        (row.name, row.fired) for row in result.rule_counters if row.fired
    )
    return "|".join(
        (
            fingerprint(tree),
            config.cache_token(),
            f"{result.cost:.6f}",
            ",".join(type(op).__name__ for op in result.plan.walk()),
            ",".join(sorted(result.rules_exercised)),
            ",".join(f"{a}>{b}" for a, b in sorted(result.rule_interactions)),
            ",".join(f"{name}={count}" for name, count in fired),
            str(result.stats.group_count),
            str(result.stats.expr_count),
            str(result.stats.rule_applications),
            str(result.stats.budget_exhausted),
        )
    )


def _digest(optimizer_for, tree) -> str:
    """SHA-256 over ``Plan(q)`` and ``Plan(q, ¬r)`` for each r in RuleSet(q)."""
    base = optimizer_for(DEFAULT_CONFIG).optimize(tree)
    lines = [_outcome(optimizer_for, tree, DEFAULT_CONFIG)]
    for name in sorted(base.rules_exercised):
        lines.append(
            _outcome(optimizer_for, tree, DEFAULT_CONFIG.with_disabled([name]))
        )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def optimizer_for(tpch_db, tpch_stats, registry):
    optimizers = {}

    def build(config):
        if config not in optimizers:
            optimizers[config] = Optimizer(
                tpch_db.catalog, tpch_stats, registry, config
            )
        return optimizers[config]

    return build


def _queries(tpch_db, tpch_stats):
    trees = [
        RandomQueryGenerator(
            tpch_db.catalog, seed=seed, stats=tpch_stats
        ).random_tree()
        for seed in range(RANDOM_QUERIES)
    ]
    trees.extend(sql_to_tree(sql, tpch_db.catalog) for sql in SUBQUERY_SQL)
    return trees


#: One digest per query of ``_queries``, recorded at ``fb80cc4``.
GOLDEN = (
    "91e1eb6de0ca93b0a10febd8ddae68e47e82144b131542068de1efd93fd3f77c",
    "07d5eb666acaa90b0efc06cadd20db83c4d3e1eea6fcd9d22e19713af57f2127",
    "afd24b268612606e1abcb0887751f4246ae2e024068e30eda57c8652f2fdecb6",
    "971543123b5feb9539139c3c1d7038108005fecc44f3e08d484925a5e063f7d1",
    "f2ed2ed9591c240d024fd38b1036a7cb984836d415e995b4fdbafe5b311eb7a7",
    "ae6992a8d6ce98f4f52fcafa2bfcb2e9d159e238e81dbedc7d6677c848be75c0",
    "a2f71817e515f22b7e2db2b360ec375d058b2f678bf9f425ec6bb4dfecec00b1",
    "071ebe5f323870398f4ec5f768dc9e72a15120ee199a44181dfa4c256f9e8975",
    "a2aa487fe430b4370cdeb04bd9901c0480760f3804100bbb8db2ada1c6b6347f",
    "0773792ea072f93f0af40d633e628b60b60620eaa9ddd32e2da59daf9b55dcd3",
    "bd44e064d4edbd98c5afae0cd4119d14f6e2f3fbb4b38783b38b8afb6341b4e9",
    "109a80868402abdccf405b789fed303c9df06b4465c807eeff71d02b39e2e920",
    "3c0b0a38b3197baf2debf247489f8d3089acd2d94f73063c4227c3cdc6dd2c05",
    "0898e3f355708af853748839d4904df954b5c3e0982b46c706fe10506ff2a4e2",
    "9591ea102c171667cf8feb3043a8faad15f1701788ff75ceef32125105dd8985",
    "1e847a76cc3b838df512eab869a9cb92b30413ffdf1851580c57d51cd24539d2",
    "7c1dcd079c23b1439d2cda18d0abdf75d3a5aa6c7300087770127f92d3e57fb7",
    "2445c6e04f5c5d19ef6a74e8885e9b3827ffbc074fd88bf5aa74e748208852d8",
    "d084ad18235c3fb9784a09b72bd615857b015022b379d8ca6d0041e2bec67e7b",
    "5ebeb9b6e64440a823a0027e8bf625e3faf5febbaa8b1b869f5708bba614df5f",
    "94ec038994cc78d49d934370ddfbcf8f1b86a367bff49c3167e9122033d79a8e",
    "b5471014d5cdb493f4334432d2aad36b058001dd9ead3642033d0f60347032dd",
    "8586f1a9edff493fb6b7c77e6c8efe54ebab7f5719f1c346b91ccbf4ca500da4",
    "5b6a405671edbc6d617b4fe56964cfaee314a6741ae5373b4032cc19877c386f",
    "198974f509f8d7cda425ee8c377ad725a002f5214ef5f09840c150836b1a2e6a",
    "33a313174581e6a27949431a2eb6351ed4a4786b3c4879a2cf2f5ca9007859fc",
    "38734cfd48d418e632843acfc1cbb1a9967c2881b1eb6b4726fb912f9d8ee35a",
    "1d5ca7a52bf864d8984ead1f19be7b7bf5d994a1d14ff618eaa77ee593a2ac9a",
    "6be9bc83fbe5f8f1a190c36a6f90f40275fd4112a976341142aef175bfd5d739",
    "d04cb0d35bdf8acc52b070abc108b46ef540caeccb773ffe3134957c5016effc",
    "4804b77264e237e207ca1a0de41f34edf448045a45e3e8fea17f8f54e01fbf6a",
    "6f74eb4281d226457d397335e9425c25fa1f5c0a2d8e97b74ef4b0d9fbb823c6",
    "95287d5d4cdbb0188d1db13cce3aad8f363e16d3c683050f66776b27b88fff5e",
    "7f669062cfd1aaba6f2b456a2009ca2f9405ca1cf8f3cb7658852b38ae67eaac",
    "49db9b4a4bf0c112bcc1339d769de2a782b1966c1353d9e251eae1184b5b0555",
    "e4a94b6a022d380eba7f728512999d1d205640e072bd3e34fafffb6b11cb1938",
)


def test_digests_equal_the_parent_commit(tpch_db, tpch_stats, optimizer_for):
    digests = tuple(
        _digest(optimizer_for, tree) for tree in _queries(tpch_db, tpch_stats)
    )
    assert len(digests) == RANDOM_QUERIES + len(SUBQUERY_SQL)
    mismatched = [
        index
        for index, (got, want) in enumerate(zip(digests, GOLDEN))
        if got != want
    ]
    assert len(GOLDEN) == len(digests) and not mismatched, (
        f"queries {mismatched} optimise differently from fb80cc4:\n"
        + "\n".join(f'    "{digest}",' for digest in digests)
    )


# ------------------------------------------------------- index edge cases


def _eq(left, right):
    return Comparison(ComparisonOp.EQ, ColumnRef(left), ColumnRef(right))


def _orders_customer(tpch_db, kind):
    """``orders <kind> JOIN customer ON o_custkey = c_custkey``."""
    orders = make_get(tpch_db.catalog.table("orders"))
    customer = make_get(tpch_db.catalog.table("customer"))
    return Join(
        kind, orders, customer, _eq(orders.columns[1], customer.columns[0])
    )


def _three_way_join(tpch_db):
    tree = _orders_customer(tpch_db, JoinKind.INNER)
    lineitem = make_get(tpch_db.catalog.table("lineitem"))
    return Join(
        JoinKind.INNER,
        tree,
        lineitem,
        _eq(tree.left.columns[0], lineitem.columns[0]),
    )


def _row(result, name):
    (row,) = [c for c in result.rule_counters if c.name == name]
    return row


class _SeesEverything(Rule):
    """Generic root: no operator kind to bucket it under."""

    name = "SeesEverything"
    pattern = ANY

    def __init__(self):
        self.seen = []

    def precondition(self, binding, ctx):
        self.seen.append(binding)
        return False

    def substitute(self, binding, ctx):
        return ()


def test_generic_root_rule_is_offered_every_expression(tpch_db, tpch_stats):
    spy = _SeesEverything()
    registry = RuleRegistry([JoinCommutativity(), spy])
    result = Optimizer(tpch_db.catalog, tpch_stats, registry).optimize(
        _three_way_join(tpch_db)
    )
    assert len(spy.seen) == result.stats.expr_count
    assert {op.kind for op in spy.seen} == {OpKind.GET, OpKind.JOIN}
    row = _row(result, spy.name)
    assert (row.considered, row.fired, row.rejected) == (
        len(spy.seen), 0, len(spy.seen)
    )


def test_widened_join_kind_mutant_fires_where_the_original_did_not(
    tpch_db, tpch_stats, registry
):
    """Join kinds are the compiled matcher's business, not the bucket's:
    the original is *offered* the outer join (same bucket) and turns it
    down."""
    tree = _orders_customer(tpch_db, JoinKind.LEFT_OUTER)
    original = Optimizer(tpch_db.catalog, tpch_stats, registry).optimize(tree)
    row = _row(original, "JoinCommutativity")
    assert (row.considered, row.fired, row.rejected) == (1, 0, 1)
    (mutant,) = [
        mutant.build()
        for mutant in generate_mutants(
            registry, ["JoinCommutativity"], ["widen-join-kind"]
        )
        if mutant.mutant_id == "JoinCommutativity:widen-join-kind:j0+left-outer"
    ]
    mutated = Optimizer(
        tpch_db.catalog, tpch_stats, registry.with_replaced_rule(mutant)
    ).optimize(tree)
    assert _row(mutated, "JoinCommutativity").fired >= 1
    assert "JoinCommutativity" in mutated.rules_exercised


def test_disabled_rule_is_in_no_bucket(tpch_db, tpch_stats, registry):
    config = DEFAULT_CONFIG.with_disabled(
        ["JoinCommutativity", "JoinToMergeJoin"]
    )
    optimizer = Optimizer(tpch_db.catalog, tpch_stats, registry, config)
    for buckets in (
        optimizer._index.exploration, optimizer._index.implementation
    ):
        names = {
            rule.name for bucket in buckets.values() for rule, *_ in bucket
        }
        assert names.isdisjoint(config.disabled_rules)
    result = optimizer.optimize(_three_way_join(tpch_db))
    assert {c.name for c in result.rule_counters}.isdisjoint(
        config.disabled_rules
    )
    # One row per active rule, whether or not its kind turned up.
    assert len(result.rule_counters) == len(registry.all_rules) - 2


#: ``_digest`` of the three-way join under the default registry and under
#: one whose JOIN-rooted exploration rules are reversed, both at ``fb80cc4``.
THREE_WAY_DIGEST = (
    "a89b6a4db317aa69e077d0b82cc0a148df9a4bf5f49e628ef73fffeb510b8a01"
)
THREE_WAY_DIGEST_JOIN_RULES_REVERSED = (
    "11b210497ffd95c1871c62ce67a26d6cec5208bf3258d82c25a79a3a47a1a2c0"
)


def test_order_inside_a_bucket_is_registry_order(
    tpch_db, tpch_stats, registry, optimizer_for
):
    """The fixpoint depends on rule order (ROADMAP item 2): reversing the
    JOIN-rooted rules leaves this query a 23-expression memo instead of
    47.  The index must reproduce that dependence, not hide it."""
    reversed_join_rules = reversed(
        [
            rule for rule in registry.exploration_rules
            if rule.pattern.kind is OpKind.JOIN
        ]
    )
    permuted = RuleRegistry(
        [
            next(reversed_join_rules)
            if rule.pattern.kind is OpKind.JOIN else rule
            for rule in registry.exploration_rules
        ],
        registry.implementation_rules,
    )
    tree = _three_way_join(tpch_db)

    def permuted_optimizer_for(config):
        return Optimizer(tpch_db.catalog, tpch_stats, permuted, config)

    assert _digest(optimizer_for, tree) == THREE_WAY_DIGEST
    assert (
        _digest(permuted_optimizer_for, tree)
        == THREE_WAY_DIGEST_JOIN_RULES_REVERSED
    )
    assert THREE_WAY_DIGEST != THREE_WAY_DIGEST_JOIN_RULES_REVERSED
