"""Property-based tests (hypothesis) for the core invariants.

The headline invariant is the paper's correctness criterion itself: for any
generated query, disabling any subset of transformation rules must not
change the executed results.  Further properties cover expression
evaluation (compiled == interpreted), SQL round-trips, and the factor-2
guarantee of TopKIndependent against a brute-force optimum on small graphs.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.base import BackendRun, normalized_bag
from repro.catalog.schema import DataType
from collections import Counter

from repro.engine import digest as digest_module
from repro.engine import (
    BagDigest,
    QueryResult,
    canonical_row,
    digest_rows,
    execute_plan,
    results_identical,
)
from repro.expr.expressions import (
    Arithmetic,
    ArithmeticOp,
    BoolConnective,
    BoolExpr,
    Column,
    ColumnRef,
    Comparison,
    ComparisonOp,
    IsNull,
    Literal,
    Not,
)
from repro.expr.vector import (
    compile_expr_vector,
    compile_selection_vector,
    layout_of,
)
from repro.logical.validate import validate_tree
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.engine import Optimizer
from repro.rules.registry import default_registry
from repro.sql.binder import sql_to_tree
from repro.sql.generate import to_sql
from repro.testing.compression import (
    set_multicover_plan,
    top_k_independent_plan,
)
from repro.testing.random_gen import RandomQueryGenerator
from repro.testing.reference_executor import evaluate
from repro.testing.suite import SuiteQuery, TestSuite
from repro.workloads import tpch_database

REGISTRY = default_registry()
DB = tpch_database(seed=1)
STATS = DB.stats_repository()
EXPLORATION_NAMES = [r.name for r in REGISTRY.exploration_rules]

_COLUMNS = (
    Column("a", DataType.INT),
    Column("b", DataType.INT),
    Column("c", DataType.FLOAT),
)


# ------------------------------------------------------ expression strategies

_int_values = st.one_of(st.none(), st.integers(-50, 50))
_float_values = st.one_of(
    st.none(), st.floats(-100, 100, allow_nan=False, allow_infinity=False)
)
_rows = st.tuples(_int_values, _int_values, _float_values)
_row_batches = st.lists(_rows, min_size=0, max_size=6)


def _as_columns(rows):
    """Row tuples as the struct-of-arrays the vector compiler consumes."""
    return [[row[i] for row in rows] for i in range(len(_COLUMNS))]


def _typed(values):
    """Values paired with their types, so True never passes for 1."""
    return [(type(value), value) for value in values]


def _scalar_exprs(depth):
    leaves = st.one_of(
        st.sampled_from([ColumnRef(c) for c in _COLUMNS[:2]]),
        st.builds(Literal, st.integers(-20, 20), st.just(DataType.INT)),
        st.just(Literal(None, DataType.INT)),
    )
    if depth == 0:
        return leaves
    sub = _scalar_exprs(depth - 1)
    return st.one_of(
        leaves,
        st.builds(
            Arithmetic,
            st.sampled_from(list(ArithmeticOp)),
            sub,
            sub,
        ),
    )


def _literal_comparisons():
    """The two shapes ``repro.expr.vector`` has literal kernels for, a
    literal on the right and one on the left, over every column type; a
    NULL literal takes the general path and must read the same."""
    operands = st.one_of(
        st.sampled_from([ColumnRef(c) for c in _COLUMNS]), _scalar_exprs(1)
    )
    literals = st.one_of(
        st.builds(Literal, st.integers(-20, 20), st.just(DataType.INT)),
        st.builds(
            Literal,
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            st.just(DataType.FLOAT),
        ),
        st.just(Literal(None, DataType.INT)),
    )
    ops = st.sampled_from(list(ComparisonOp))
    return st.one_of(
        st.builds(Comparison, ops, operands, literals),
        st.builds(Comparison, ops, literals, operands),
    )


def _bool_exprs(depth):
    comparisons = st.one_of(
        st.builds(
            Comparison,
            st.sampled_from(list(ComparisonOp)),
            _scalar_exprs(1),
            _scalar_exprs(1),
        ),
        _literal_comparisons(),
    )
    leaves = st.one_of(
        comparisons,
        st.builds(IsNull, _scalar_exprs(1)),
        st.builds(Literal, st.sampled_from([True, False, None]),
                  st.just(DataType.BOOL)),
    )
    if depth == 0:
        return leaves
    sub = _bool_exprs(depth - 1)
    return st.one_of(
        leaves,
        st.builds(Not, sub),
        st.builds(
            lambda op, a, b: BoolExpr(op, (a, b)),
            st.sampled_from(list(BoolConnective)),
            sub,
            sub,
        ),
    )


class TestExpressionProperties:
    @given(expr=_bool_exprs(2), rows=_row_batches)
    @settings(max_examples=300, deadline=None)
    def test_vector_compiled_equals_interpreted(self, expr, rows):
        """3VL: the columnar compiler matches ``evaluate`` row by row,
        and a selection keeps exactly the rows that evaluate to TRUE."""
        layout = layout_of(_COLUMNS)
        columns = _as_columns(rows)
        expected = [evaluate(expr, row, layout) for row in rows]
        column = compile_expr_vector(expr, layout)(columns, len(rows))
        assert _typed(column) == _typed(expected)
        selected = compile_selection_vector(expr, layout)(columns, len(rows))
        assert selected == [
            i for i, value in enumerate(expected) if value is True
        ]

    @given(expr=_scalar_exprs(2), rows=_row_batches)
    @settings(max_examples=300, deadline=None)
    def test_scalar_vector_compile_agreement(self, expr, rows):
        """NULL arithmetic and divide-by-zero -> NULL, column-wise."""
        layout = layout_of(_COLUMNS)
        columns = _as_columns(rows)
        column = compile_expr_vector(expr, layout)(columns, len(rows))
        assert _typed(column) == _typed(
            evaluate(expr, row, layout) for row in rows
        )


# --------------------------------------------------- grand rule correctness


def _optimize(tree, disabled=()):
    config = OptimizerConfig(disabled_rules=frozenset(disabled))
    return Optimizer(DB.catalog, STATS, REGISTRY, config).optimize(tree)


class TestRuleCorrectnessProperty:
    # Derandomized: the three seeds that break monotonicity are pinned as
    # strict xfails in test_regression_monotonicity.py; drawing one here
    # would fail tier-1 on a known defect by chance.
    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(
        max_examples=30,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_disabling_rules_never_changes_results(self, seed, data):
        """The paper's correctness criterion, as a universal property."""
        generator = RandomQueryGenerator(
            DB.catalog, seed=seed, stats=STATS, min_operators=3,
            max_operators=7,
        )
        tree = generator.random_tree()
        validate_tree(tree, DB.catalog)
        baseline = _optimize(tree)
        expected = execute_plan(baseline.plan, DB, baseline.output_columns)

        # Disable a random sample of the rules that actually fired.
        fired = sorted(
            set(baseline.rules_exercised) & set(EXPLORATION_NAMES)
        )
        if not fired:
            return
        subset = data.draw(
            st.lists(st.sampled_from(fired), min_size=1, max_size=3,
                     unique=True)
        )
        alternative = _optimize(tree, disabled=subset)
        actual = execute_plan(
            alternative.plan, DB, alternative.output_columns
        )
        assert results_identical(expected, actual), (
            f"disabling {subset} changed results for:\n{tree.pretty()}"
        )
        assert alternative.cost >= baseline.cost - 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sql_roundtrip_preserves_results(self, seed):
        generator = RandomQueryGenerator(
            DB.catalog, seed=seed, stats=STATS, min_operators=2,
            max_operators=6,
        )
        tree = generator.random_tree()
        validate_tree(tree, DB.catalog)
        sql = to_sql(tree)
        rebound = sql_to_tree(sql, DB.catalog)
        validate_tree(rebound, DB.catalog)

        original = _optimize(tree)
        rebuilt = _optimize(rebound)
        left = execute_plan(original.plan, DB, original.output_columns)
        right = execute_plan(rebuilt.plan, DB, rebuilt.output_columns)
        assert results_identical(left, right), sql


class TestBagDigestProperty:
    """The incremental bag digest (docs/EXECUTION.md) must agree with
    ``Counter``-based canonical bag equality: equal bags always digest
    equally, and sampled unequal bags digest differently."""

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_digest_agrees_with_counter_equality(self, seed, data):
        generator = RandomQueryGenerator(
            DB.catalog, seed=seed, stats=STATS, min_operators=3,
            max_operators=7,
        )
        tree = generator.random_tree()
        validate_tree(tree, DB.catalog)
        result = _optimize(tree)
        rows = execute_plan(result.plan, DB, result.output_columns).rows

        def bag(candidate):
            return Counter(canonical_row(row) for row in candidate)

        def agree(candidate):
            return (digest_rows(candidate) == digest_rows(rows)) == (
                bag(candidate) == bag(rows)
            )

        # Equal bags => equal digests: order must not matter.
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        assert digest_rows(shuffled) == digest_rows(rows)

        if not rows:
            return
        index = data.draw(st.integers(0, len(rows) - 1))
        victim = rows[index]
        perturbations = [
            rows[:index] + rows[index + 1:],  # drop one row
            rows + [victim],  # duplicate one row
            # same row count, one widened row (token change only)
            rows[:index] + [victim + ("sentinel",)] + rows[index + 1:],
        ]
        if any(isinstance(value, float) for value in victim):
            # Nudge a float below the comparison precision: whichever
            # way it rounds, digest and Counter must agree on it.
            nudged = tuple(
                value + 1e-9 if isinstance(value, float) else value
                for value in victim
            )
            perturbations.append(
                rows[:index] + [nudged] + rows[index + 1:]
            )
        for perturbed in perturbations:
            assert agree(perturbed)


#: Cells of a numeric result column: the types the two canonical forms
#: treat differently, and the floats that sit on their seams.
_NUMBERS = st.one_of(
    st.integers(-2, 2),
    st.booleans(),
    st.none(),
    st.sampled_from([-0.0, 0.0, 0.1 + 0.2, 0.3, -1.0, -2.0, 1.0, 2.5]),
    # Within 1e-6 of a boundary of the 5-digit comparison rounding.
    st.builds(
        lambda step, offset: step * 1e-5 + 5e-6 + offset,
        st.integers(-300_000, 300_000),
        st.floats(-1e-6, 1e-6),
    ),
)
#: Cells of a text column.
_TEXTS = st.one_of(st.text("ab", max_size=2), st.none())
#: Cells whose hashes meet across types: ``hash("") == hash(0) ==
#: hash(False) == hash(0.0)``, ``hash(-1) == hash(-2)``, ``hash(1) ==
#: hash(1.0)``.  A column of these has no one type.
_MIXED = st.one_of(
    st.sampled_from(["", 0, 0.0, -0.0, False, 1, 1.0, -1, None]),
    st.text("ab", max_size=2),
)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _one_less(value):
    """The off-by-one a wrong rule makes; ``-1 -> -2`` keeps the hash."""
    return value - 1 if _is_number(value) else value


def _same_number_other_type(value):
    """``3 -> 3.0`` / ``3.0 -> 3``: equal cells of a different type."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else value
    return float(value) if _is_number(value) else value


#: Columns whose cells *repeat*, which is what the column kernel keys on:
#: few distinct floats, numerically equal cells of three types, the three
#: zeros, and floats that round onto -1 (the ``hash(-1)`` rule) and onto 0.
_REPEATING = [
    st.sampled_from([0.1 + 0.2, 0.3, 2.5, 1.000004, 1.000006]),
    st.sampled_from([1, 1.0, True]),
    st.sampled_from([0, -0.0, 0.0, False]),
    st.sampled_from([-1, -1.0, -0.9999999, -1.0000001, -2, -2.0, None]),
    st.sampled_from([4e-6, -4e-6, 0.0, 6e-6, None]),
]


def _reference_digest(rows):
    """``digest_rows`` one row at a time, as it was written before it
    worked by column: the oracle the kernel must equal field by field."""
    mask, salt = (1 << 64) - 1, 0x9E3779B97F4A7C15
    count = acc1 = acc2 = 0
    for row in rows:
        row = canonical_row(row)
        marked = tuple(
            i for i, cell in enumerate(row) if cell == -1 or cell == ""
        )
        token = hash((row, marked) if marked else row) & mask
        count, acc1 = count + 1, acc1 + token
        acc2 += token * token + salt
    return BagDigest(count, acc1 & mask, acc2 & mask)


class TestDigestEqualsTheRowAtATimeReference:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_by_column_over_chunk_seams(self, data):
        columns = data.draw(st.lists(
            st.sampled_from([_NUMBERS, _TEXTS] + _REPEATING), max_size=5,
        ))
        rows = data.draw(st.lists(st.tuples(*columns), max_size=13))
        if rows and data.draw(st.booleans()):
            # One widened row: a chunk is folded one width at a time.
            index = data.draw(st.integers(0, len(rows) - 1))
            rows[index] += ("sentinel",)
        expected = _reference_digest(rows)
        with pytest.MonkeyPatch.context() as patch:
            # 13 rows straddle up to three seams of a 4-row chunk.
            chunk = data.draw(st.sampled_from([4, 4096]))
            patch.setattr(digest_module, "_CHUNK", chunk)
            assert digest_rows(rows) == expected
            assert digest_rows(tuple(rows)) == expected
            assert digest_rows(row for row in rows) == expected


def _transposed(rows, width):
    return [[row[p] for row in rows] for p in range(width)]


#: Cells of a generated result column: NULLs, the three zeros, floats on
#: and off the rounding grid, -1 in both types, the empty string.
_RESULT_CELLS = st.one_of(
    st.none(),
    st.sampled_from([0, -0.0, 0.0, -1, -1.0, -0.9999999, -2, 1, 2.5, 0.1 + 0.2]),
    st.floats(-3, 3, allow_nan=False),
    st.integers(-3, 3),
    st.text("ab", max_size=2),
)


class TestColumnDigestIsTheRowDigest:
    """``digest_columns`` over a result's column lists is ``digest_rows``
    over its rows, and a result built either way is the same result."""

    @given(
        data=st.data(),
        width=st.integers(0, 4),
        repeat=st.sampled_from([1, 2, 700]),
    )
    @settings(max_examples=100, deadline=None)
    def test_columns_digest_as_their_rows(self, data, width, repeat):
        base = data.draw(st.lists(
            st.tuples(*[_RESULT_CELLS] * width), max_size=7
        ))
        # Up to 4,900 rows: a repeat of 700 crosses a 4,096-row chunk.
        rows = base * repeat
        columns = _transposed(rows, width)
        assert digest_module.digest_columns(columns, len(rows)) == digest_rows(
            rows
        )
        names = tuple(Column(f"c{p}", DataType.INT) for p in range(width))
        by_rows = QueryResult.from_rows(names, rows)
        by_columns = QueryResult(names, columns, len(rows))
        assert by_rows == by_columns
        assert by_rows.rows == by_columns.rows == rows
        assert by_rows.row_count == by_columns.row_count == len(rows)
        assert by_rows.bag_digest() == by_columns.bag_digest()
        assert by_rows.projected(names[::-1]) == by_columns.projected(
            names[::-1]
        )


class TestDigestIsTheExactBagTest:
    """The differential fleet's verdict is a digest comparison; the exact
    ``normalized_bag`` only explains it.  The two must never disagree."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_digest_equality_is_normalized_bag_equality(self, data):
        columns = data.draw(
            st.lists(st.sampled_from([_NUMBERS, _TEXTS]), min_size=1, max_size=4)
        )
        first = data.draw(st.lists(st.tuples(*columns), max_size=6))
        second = list(data.draw(st.permutations(first)))
        edit = data.draw(
            st.sampled_from(
                ["none", "cell", "one-less", "number-type", "duplicate"]
            )
        )
        if second and edit != "none":
            index = data.draw(st.integers(0, len(second) - 1))
            row = second[index]
            if edit == "duplicate":
                second.append(row)
            else:
                column = data.draw(st.integers(0, len(columns) - 1))
                cell = (
                    data.draw(columns[column]) if edit == "cell"
                    else _one_less(row[column]) if edit == "one-less"
                    else _same_number_other_type(row[column])
                )
                second[index] = row[:column] + (cell,) + row[column + 1:]
        assert (digest_rows(first) == digest_rows(second)) == (
            normalized_bag(first) == normalized_bag(second)
        ), (first, second)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_empty_string_is_not_zero(self, data):
        """Over cells whose hashes meet across types, digest equality is
        exact-bag equality, for row-built and column-built results alike."""
        width = data.draw(st.integers(1, 3))
        row = st.tuples(*[_MIXED] * width)
        first = data.draw(st.lists(row, max_size=5))
        second = list(data.draw(st.permutations(first)))
        if second and data.draw(st.booleans()):
            index = data.draw(st.integers(0, len(second) - 1))
            column = data.draw(st.integers(0, width - 1))
            cell = data.draw(_MIXED)
            second[index] = (
                second[index][:column] + (cell,) + second[index][column + 1:]
            )
        exact = normalized_bag(first) == normalized_bag(second)
        assert (digest_rows(first) == digest_rows(second)) == exact
        columns = tuple(Column(f"c{p}", DataType.INT) for p in range(width))
        built = [
            (
                QueryResult.from_rows(columns, rows),
                QueryResult(columns, _transposed(rows, width), len(rows)),
            )
            for rows in (first, second)
        ]
        for left, right in itertools.product(*built):
            assert left.same_rows(right) == exact, (first, second)

    def test_backend_run_bag_is_lazy_and_cached(self):
        errored = BackendRun(backend="b", query_id=0, sql="", error="boom")
        assert errored.bag is None and errored.digest is None
        run = BackendRun(backend="b", query_id=0, sql="")
        run.record([(True, 0.1 + 0.2), (1, 0.3)])
        assert run.digest == digest_rows([(1, 0.3), (1, 0.3)])
        assert "bag" not in vars(run)
        assert run.bag == Counter({(1, 0.3): 2})
        assert run.bag is run.bag


# -------------------------------------------------- compression properties


def _random_graph(rng):
    """A random small rule-query bipartite graph with monotone edge costs."""
    rule_names = ["r1", "r2", "r3"][: rng.randint(2, 3)]
    nodes = [(name,) for name in rule_names]
    queries = []
    edges = {}
    for qid in range(rng.randint(3, 6)):
        ruleset = {
            name for name in rule_names if rng.random() < 0.6
        }
        if not ruleset:
            ruleset = {rng.choice(rule_names)}
        cost = rng.uniform(1, 100)
        owner = (sorted(ruleset)[0],)
        queries.append(
            SuiteQuery(
                query_id=qid,
                tree=None,
                sql=f"q{qid}",
                cost=cost,
                ruleset=frozenset(ruleset),
                generated_for=owner,
            )
        )
        for name in ruleset:
            edges[(qid, (name,))] = cost * rng.uniform(1.0, 5.0)
    # Guarantee coverage: every rule gets one dedicated cheap query.
    for name in rule_names:
        qid = len(queries)
        queries.append(
            SuiteQuery(
                query_id=qid,
                tree=None,
                sql=f"q{qid}",
                cost=5.0,
                ruleset=frozenset({name}),
                generated_for=(name,),
            )
        )
        edges[(qid, (name,))] = 5.0 * rng.uniform(1.0, 5.0)
    suite = TestSuite(rule_nodes=nodes, queries=queries, k=1)
    return suite, edges


class _TableOracle:
    def __init__(self, edges):
        self._edges = edges
        self.invocations = 0

    def cost_without(self, query, rules_off):
        self.invocations += 1
        return self._edges[(query.query_id, tuple(sorted(rules_off)))]

    def cost_without_many(self, pairs):
        return [self.cost_without(query, node) for query, node in pairs]


def _brute_force_optimum(suite, edges):
    """Exhaustive minimum over all valid k=1 assignments."""
    options = []
    for node in suite.rule_nodes:
        options.append(
            [q.query_id for q in suite.queries if q.exercises(node)]
        )
    best = float("inf")
    for combo in itertools.product(*options):
        node_cost = sum(
            suite.query(qid).cost for qid in set(combo)
        )
        edge_cost = sum(
            edges[(qid, node)]
            for node, qid in zip(suite.rule_nodes, combo)
        )
        best = min(best, node_cost + edge_cost)
    return best


class TestCompressionProperties:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_topk_is_within_factor_two_of_optimum(self, seed):
        rng = random.Random(seed)
        suite, edges = _random_graph(rng)
        oracle = _TableOracle(edges)
        plan = top_k_independent_plan(suite, oracle)
        optimum = _brute_force_optimum(suite, edges)
        assert plan.total_cost <= 2.0 * optimum + 1e-9
        assert plan.validates_each_rule_k_times(1)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_smc_produces_valid_plans(self, seed):
        rng = random.Random(seed)
        suite, edges = _random_graph(rng)
        plan = set_multicover_plan(suite, _TableOracle(edges))
        assert plan.validates_each_rule_k_times(1)
        # Every assigned query must actually exercise its rule node.
        for node, qids in plan.assignments.items():
            for qid in qids:
                assert suite.query(qid).exercises(node)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_monotonicity_never_changes_topk_solution(self, seed):
        rng = random.Random(seed)
        suite, edges = _random_graph(rng)
        plain = top_k_independent_plan(suite, _TableOracle(edges))
        mono_oracle = _TableOracle(edges)
        mono = top_k_independent_plan(
            suite, mono_oracle, use_monotonicity=True
        )
        assert mono.total_cost == pytest.approx(plain.total_cost)
