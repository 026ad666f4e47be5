"""Unit tests for scalar expressions and three-valued evaluation.

The truth tables run against both evaluators: the engine's column-wise
compiler (:mod:`repro.expr.vector`) and the row interpreter it is tested
against (:func:`repro.testing.reference_executor.evaluate`).
"""

import copy
import dataclasses
import pickle
import subprocess
import sys

import pytest

from repro.catalog.schema import DataType
from repro.expr.expressions import (
    FALSE,
    TRUE,
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
    conjunction,
    conjuncts,
    expression_type,
    is_null_rejecting,
    is_nullable,
    referenced_columns,
    substitute_columns,
)
from repro.expr.vector import (
    compile_expr_vector,
    compile_selection_vector,
    layout_of,
)
from repro.testing.reference_executor import evaluate


@pytest.fixture()
def cols():
    a = Column("a", DataType.INT, nullable=True)
    b = Column("b", DataType.INT, nullable=True)
    s = Column("s", DataType.STRING, nullable=False)
    return a, b, s


def _reference_row(expr, row, columns):
    return evaluate(expr, row, layout_of(columns))


def _vector_row(expr, row, columns):
    compiled = compile_expr_vector(expr, layout_of(columns))
    return compiled([[value] for value in row], 1)[0]


@pytest.fixture(
    params=[_reference_row, _vector_row], ids=["reference", "vector"]
)
def _eval(request):
    """One row through one evaluator: ``(expr, row, columns) -> value``."""
    return request.param


class TestColumnIdentity:
    def test_columns_equal_by_id_only(self):
        a = Column("x", DataType.INT)
        b = Column("x", DataType.INT)
        assert a != b
        assert a == a
        assert hash(a) != hash(b) or a.cid != b.cid

    def test_qualified_name(self):
        col = Column("x", DataType.INT, table="t")
        assert col.qualified_name == "t.x"


class TestEvaluation:
    def test_column_and_literal(self, cols, _eval):
        a, b, s = cols
        assert _eval(ColumnRef(a), (7, 8, "x"), cols) == 7
        assert _eval(Literal(5, DataType.INT), (7, 8, "x"), cols) == 5

    @pytest.mark.parametrize(
        "op,expected",
        [
            (ComparisonOp.EQ, False),
            (ComparisonOp.NE, True),
            (ComparisonOp.LT, True),
            (ComparisonOp.LE, True),
            (ComparisonOp.GT, False),
            (ComparisonOp.GE, False),
        ],
    )
    def test_comparisons(self, cols, op, expected, _eval):
        a, b, _ = cols
        expr = Comparison(op, ColumnRef(a), ColumnRef(b))
        assert _eval(expr, (1, 2, "x"), cols) is expected

    def test_comparison_with_null_is_unknown(self, cols, _eval):
        a, b, _ = cols
        expr = Comparison(ComparisonOp.EQ, ColumnRef(a), ColumnRef(b))
        assert _eval(expr, (None, 2, "x"), cols) is None
        assert _eval(expr, (1, None, "x"), cols) is None
        assert _eval(expr, (None, None, "x"), cols) is None

    @pytest.mark.parametrize(
        "left,right,expected",
        [
            (True, True, True),
            (True, False, False),
            (True, None, None),
            (False, None, False),
            (None, None, None),
        ],
    )
    def test_kleene_and(self, left, right, expected, _eval):
        expr = BoolExpr(
            BoolConnective.AND,
            (Literal(left, DataType.BOOL), Literal(right, DataType.BOOL)),
        )
        assert _eval(expr, (), ()) is expected

    @pytest.mark.parametrize(
        "left,right,expected",
        [
            (False, False, False),
            (True, False, True),
            (True, None, True),
            (False, None, None),
            (None, None, None),
        ],
    )
    def test_kleene_or(self, left, right, expected, _eval):
        expr = BoolExpr(
            BoolConnective.OR,
            (Literal(left, DataType.BOOL), Literal(right, DataType.BOOL)),
        )
        assert _eval(expr, (), ()) is expected

    @pytest.mark.parametrize(
        "value,expected", [(True, False), (False, True), (None, None)]
    )
    def test_not(self, value, expected, _eval):
        expr = Not(Literal(value, DataType.BOOL))
        assert _eval(expr, (), ()) is expected

    def test_is_null_is_two_valued(self, cols, _eval):
        a, _, _ = cols
        expr = IsNull(ColumnRef(a))
        assert _eval(expr, (None, 0, "x"), cols) is True
        assert _eval(expr, (1, 0, "x"), cols) is False

    def test_arithmetic(self, cols, _eval):
        a, b, _ = cols
        add = Arithmetic(ArithmeticOp.ADD, ColumnRef(a), ColumnRef(b))
        mul = Arithmetic(ArithmeticOp.MUL, ColumnRef(a), ColumnRef(b))
        assert _eval(add, (2, 3, "x"), cols) == 5
        assert _eval(mul, (2, 3, "x"), cols) == 6

    def test_arithmetic_null_propagates(self, cols, _eval):
        a, b, _ = cols
        add = Arithmetic(ArithmeticOp.ADD, ColumnRef(a), ColumnRef(b))
        assert _eval(add, (None, 3, "x"), cols) is None

    def test_division_by_zero_yields_null(self, cols, _eval):
        a, b, _ = cols
        div = Arithmetic(ArithmeticOp.DIV, ColumnRef(a), ColumnRef(b))
        assert _eval(div, (1, 0, "x"), cols) is None
        assert _eval(div, (6, 3, "x"), cols) == 2.0


def _columns(rows):
    """Transpose row tuples into the struct-of-arrays the vector
    compiler consumes."""
    return [list(column) for column in zip(*rows)]


class TestVectorEvaluation:
    """The columnar hot path's compiler must match ``evaluate`` value
    for value (``is``: True/False/None are never conflated)."""

    def _assert_matches(self, expr, rows, cols):
        layout = layout_of(cols)
        column = compile_expr_vector(expr, layout)(_columns(rows), len(rows))
        assert len(column) == len(rows)
        for value, row in zip(column, rows):
            expected = evaluate(expr, row, layout)
            assert (type(value), value) == (type(expected), expected)

    def test_three_valued_logic_matches_interpret(self, cols):
        a, b, s = cols
        expr = BoolExpr(
            BoolConnective.OR,
            (
                Comparison(ComparisonOp.GT, ColumnRef(a), ColumnRef(b)),
                IsNull(ColumnRef(a)),
                Not(Comparison(ComparisonOp.EQ, ColumnRef(s),
                               Literal("x", DataType.STRING))),
            ),
        )
        rows = [(1, 2, "x"), (3, 2, "x"), (None, 2, "y"), (1, None, "x")]
        self._assert_matches(expr, rows, cols)
        conj = BoolExpr(BoolConnective.AND, expr.args)
        self._assert_matches(conj, rows, cols)

    @pytest.mark.parametrize("op", list(ArithmeticOp))
    def test_null_arithmetic_and_division_by_zero(self, cols, op):
        a, b, _ = cols
        expr = Arithmetic(op, ColumnRef(a), ColumnRef(b))
        rows = [(6, 3, "x"), (1, 0, "x"), (None, 3, "x"), (2, None, "x")]
        self._assert_matches(expr, rows, cols)
        column = compile_expr_vector(expr, layout_of(cols))(
            _columns(rows), len(rows)
        )
        assert column[2] is None and column[3] is None
        if op is ArithmeticOp.DIV:
            assert column[:2] == [2.0, None]

    def test_selection_treats_unknown_as_false(self, cols):
        a, b, _ = cols
        select = compile_selection_vector(
            Comparison(ComparisonOp.EQ, ColumnRef(a), ColumnRef(b)),
            layout_of(cols),
        )
        rows = [(1, 1, "x"), (1, 2, "x"), (None, 2, "x"), (3, 3, "y")]
        assert select(_columns(rows), len(rows)) == [0, 3]


class TestHelpers:
    def test_conjunction_flattens_and_drops_true(self, cols):
        a, b, _ = cols
        c1 = Comparison(ComparisonOp.EQ, ColumnRef(a), Literal(1, DataType.INT))
        c2 = Comparison(ComparisonOp.EQ, ColumnRef(b), Literal(2, DataType.INT))
        nested = conjunction([c1, conjunction([c2, TRUE])])
        assert conjuncts(nested) == (c1, c2)

    def test_conjunction_empty_is_true(self):
        assert conjunction([]) == TRUE

    def test_conjunction_singleton_unwrapped(self, cols):
        a, _, _ = cols
        c1 = Comparison(ComparisonOp.EQ, ColumnRef(a), Literal(1, DataType.INT))
        assert conjunction([c1]) is c1

    def test_referenced_columns(self, cols):
        a, b, _ = cols
        expr = Comparison(ComparisonOp.LT, ColumnRef(a), ColumnRef(b))
        assert referenced_columns(expr) == frozenset({a, b})

    def test_substitute_columns_with_column(self, cols):
        a, b, _ = cols
        c = Column("c", DataType.INT)
        expr = Comparison(ComparisonOp.LT, ColumnRef(a), ColumnRef(b))
        swapped = substitute_columns(expr, {a: c})
        assert referenced_columns(swapped) == frozenset({c, b})

    def test_substitute_columns_with_expression(self, cols):
        a, b, _ = cols
        replacement = Arithmetic(
            ArithmeticOp.ADD, ColumnRef(b), Literal(1, DataType.INT)
        )
        expr = IsNull(ColumnRef(a))
        swapped = substitute_columns(expr, {a: replacement})
        assert swapped == IsNull(replacement)

    def test_expression_type_inference(self, cols):
        a, b, s = cols
        assert expression_type(ColumnRef(s)) is DataType.STRING
        assert expression_type(
            Comparison(ComparisonOp.EQ, ColumnRef(a), ColumnRef(b))
        ) is DataType.BOOL
        assert expression_type(
            Arithmetic(ArithmeticOp.DIV, ColumnRef(a), ColumnRef(b))
        ) is DataType.FLOAT
        assert expression_type(
            Arithmetic(ArithmeticOp.ADD, ColumnRef(a), ColumnRef(b))
        ) is DataType.INT

    def test_is_nullable(self, cols):
        a, _, s = cols
        assert is_nullable(ColumnRef(a))
        assert not is_nullable(ColumnRef(s))
        assert not is_nullable(IsNull(ColumnRef(a)))
        assert not is_nullable(ColumnRef(a), non_null_columns=frozenset({a}))

    def test_flipped_and_negated_operators(self):
        assert ComparisonOp.LT.flipped() is ComparisonOp.GT
        assert ComparisonOp.LE.negated() is ComparisonOp.GT
        assert ComparisonOp.EQ.flipped() is ComparisonOp.EQ


class TestNullRejection:
    def test_comparison_on_column_rejects(self, cols):
        a, _, _ = cols
        expr = Comparison(ComparisonOp.GT, ColumnRef(a), Literal(0, DataType.INT))
        assert is_null_rejecting(expr, frozenset({a}))

    def test_is_null_does_not_reject(self, cols):
        a, _, _ = cols
        assert not is_null_rejecting(IsNull(ColumnRef(a)), frozenset({a}))

    def test_not_is_null_rejects(self, cols):
        a, _, _ = cols
        assert is_null_rejecting(Not(IsNull(ColumnRef(a))), frozenset({a}))

    def test_or_requires_all_branches(self, cols):
        a, b, _ = cols
        on_a = Comparison(ComparisonOp.GT, ColumnRef(a), Literal(0, DataType.INT))
        on_b = Comparison(ComparisonOp.GT, ColumnRef(b), Literal(0, DataType.INT))
        both = BoolExpr(BoolConnective.OR, (on_a, on_b))
        assert not is_null_rejecting(both, frozenset({a}))
        assert is_null_rejecting(both, frozenset({a, b}))

    def test_and_requires_any_conjunct(self, cols):
        a, b, _ = cols
        on_a = Comparison(ComparisonOp.GT, ColumnRef(a), Literal(0, DataType.INT))
        on_b = IsNull(ColumnRef(b))
        both = BoolExpr(BoolConnective.AND, (on_a, on_b))
        assert is_null_rejecting(both, frozenset({a}))

    def test_unrelated_predicate_does_not_reject(self, cols):
        a, b, _ = cols
        on_b = Comparison(ComparisonOp.GT, ColumnRef(b), Literal(0, DataType.INT))
        assert not is_null_rejecting(on_b, frozenset({a}))


class TestValidationErrors:
    def test_bool_expr_needs_two_args(self):
        with pytest.raises(ValueError, match="at least 2"):
            BoolExpr(BoolConnective.AND, (TRUE,))

    def test_literal_rendering(self):
        assert str(Literal(None, DataType.INT)) == "NULL"
        assert str(Literal("o'brien", DataType.STRING)) == "'o''brien'"
        assert str(Literal(True, DataType.BOOL)) == "TRUE"
        assert str(FALSE) == "FALSE"


def _every_kind(cols):
    """One expression of every node class, nested in one predicate."""
    a, b, s = cols
    total = Arithmetic(ArithmeticOp.ADD, ColumnRef(a), Literal(1, DataType.INT))
    return BoolExpr(
        BoolConnective.OR,
        (
            Comparison(ComparisonOp.EQ, ColumnRef(s), Literal("x", DataType.STRING)),
            Not(IsNull(total)),
            Comparison(ComparisonOp.LT, total, ColumnRef(b)),
        ),
    )


class TestMemo:
    """Expressions keep their hash and their referenced columns on the
    instance.  Nothing that compares, shows, rebuilds or ships an
    expression may notice."""

    def test_invisible_to_eq_hash_repr_fields_and_replace(self, cols):
        expr = _every_kind(cols)
        nodes = list(expr.walk())
        twins = [dataclasses.replace(node) for node in nodes]
        shown = [repr(node) for node in nodes]
        names = [[f.name for f in dataclasses.fields(node)] for node in nodes]
        for node in nodes:
            hash(node)
            referenced_columns(node)
            assert {"_hash", "_columns"} <= set(vars(node))
        for node, twin, text, fields in zip(nodes, twins, shown, names):
            assert node == twin and twin == node
            assert hash(node) == hash(twin)
            assert repr(node) == text == repr(twin)
            assert [f.name for f in dataclasses.fields(node)] == fields
            assert not {"_hash", "_columns"} & set(fields)
            rebuilt = dataclasses.replace(node)
            assert not {"_hash", "_columns"} & set(vars(rebuilt))
            for clone in (copy.copy(node), copy.deepcopy(node)):
                assert clone == node
                assert not {"_hash", "_columns"} & set(vars(clone))

    def test_kept_hash_is_the_generated_hash(self, cols):
        for node in _every_kind(cols).walk():
            fields = tuple(
                getattr(node, f.name) for f in dataclasses.fields(node)
            )
            assert hash(node) == node._hash == hash(fields)

    def test_kept_columns_are_what_a_walk_finds(self, cols):
        for node in _every_kind(cols).walk():
            walked = frozenset(
                n.column for n in node.walk() if isinstance(n, ColumnRef)
            )
            kept = referenced_columns(node)
            assert kept == walked and referenced_columns(node) is kept

    def test_pickled_expression_rehashes_under_another_seed(self, cols):
        """A kept hash is right only in the process that took it: if it
        travelled with the pickle, the loaded expression would be looked
        up under this process's hash and missed in the other one's set."""
        column = Column("s", DataType.STRING, nullable=False, cid=424242)
        expr = BoolExpr(
            BoolConnective.AND,
            (
                Comparison(
                    ComparisonOp.EQ,
                    ColumnRef(column),
                    Literal("abc", DataType.STRING),
                ),
                Not(IsNull(ColumnRef(column))),
            ),
        )
        hash(expr)
        assert "_hash" in vars(expr)
        shipped = pickle.dumps(expr)
        assert "_hash" not in vars(pickle.loads(shipped))
        script = (
            "import pickle, sys\n"
            "from repro.catalog.schema import DataType\n"
            "from repro.expr.expressions import (\n"
            "    BoolConnective, BoolExpr, Column, ColumnRef, Comparison,\n"
            "    ComparisonOp, IsNull, Literal, Not,\n"
            ")\n"
            "column = Column('s', DataType.STRING, nullable=False, cid=424242)\n"
            "fresh = BoolExpr(BoolConnective.AND, (\n"
            "    Comparison(ComparisonOp.EQ, ColumnRef(column),\n"
            "               Literal('abc', DataType.STRING)),\n"
            "    Not(IsNull(ColumnRef(column))),\n"
            "))\n"
            "loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            "assert loaded == fresh\n"
            "print(loaded in {fresh}, hash(loaded) == hash(fresh))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=shipped.hex(),
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "4242"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]
