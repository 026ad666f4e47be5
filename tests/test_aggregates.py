"""Unit tests for aggregate functions and the reference accumulator."""

import pytest

from repro.catalog.schema import DataType
from repro.expr.aggregates import AggregateCall, AggregateFunction
from repro.expr.expressions import Column, ColumnRef
from repro.testing.reference_executor import Accumulator


def _run(function, values):
    acc = Accumulator(function)
    for value in values:
        acc.add(value)
    return acc.result()


class TestAccumulator:
    def test_count_star_counts_everything(self):
        assert _run(AggregateFunction.COUNT_STAR, [1, 1, 1]) == 3

    def test_count_skips_nulls(self):
        assert _run(AggregateFunction.COUNT, [1, None, 2, None]) == 2

    def test_sum_skips_nulls(self):
        assert _run(AggregateFunction.SUM, [1, None, 2]) == 3

    def test_sum_of_empty_is_null(self):
        assert _run(AggregateFunction.SUM, []) is None
        assert _run(AggregateFunction.SUM, [None, None]) is None

    def test_count_of_empty_is_zero(self):
        assert _run(AggregateFunction.COUNT, [None]) == 0
        assert _run(AggregateFunction.COUNT_STAR, []) == 0

    def test_min_max(self):
        assert _run(AggregateFunction.MIN, [3, 1, None, 2]) == 1
        assert _run(AggregateFunction.MAX, [3, 1, None, 2]) == 3

    def test_avg(self):
        assert _run(AggregateFunction.AVG, [2, 4, None]) == pytest.approx(3.0)

    def test_avg_of_empty_is_null(self):
        assert _run(AggregateFunction.AVG, []) is None

    def test_min_on_strings(self):
        assert _run(AggregateFunction.MIN, ["b", "a", "c"]) == "a"


class TestAggregateCall:
    def _int_col(self):
        return Column("x", DataType.INT)

    def test_count_star_takes_no_argument(self):
        call = AggregateCall(AggregateFunction.COUNT_STAR)
        assert call.argument is None
        with pytest.raises(ValueError, match="takes no argument"):
            AggregateCall(
                AggregateFunction.COUNT_STAR, ColumnRef(self._int_col())
            )

    def test_other_functions_require_argument(self):
        with pytest.raises(ValueError, match="requires an argument"):
            AggregateCall(AggregateFunction.SUM)

    def test_result_types(self):
        col = ColumnRef(self._int_col())
        fcol = ColumnRef(Column("y", DataType.FLOAT))
        assert AggregateCall(AggregateFunction.COUNT, col).result_type() is DataType.INT
        assert AggregateCall(AggregateFunction.SUM, col).result_type() is DataType.INT
        assert AggregateCall(AggregateFunction.SUM, fcol).result_type() is DataType.FLOAT
        assert AggregateCall(AggregateFunction.AVG, col).result_type() is DataType.FLOAT
        assert AggregateCall(AggregateFunction.MIN, fcol).result_type() is DataType.FLOAT

    def test_result_nullability(self):
        col = ColumnRef(self._int_col())
        assert not AggregateCall(AggregateFunction.COUNT_STAR).result_nullable()
        assert not AggregateCall(AggregateFunction.COUNT, col).result_nullable()
        assert AggregateCall(AggregateFunction.SUM, col).result_nullable()

    def test_rendering(self):
        col = ColumnRef(self._int_col())
        assert str(AggregateCall(AggregateFunction.COUNT_STAR)) == "COUNT(*)"
        assert str(AggregateCall(AggregateFunction.SUM, col)) == "SUM(x)"


class TestDecomposability:
    def test_decomposable_functions(self):
        for function in (
            AggregateFunction.SUM,
            AggregateFunction.MIN,
            AggregateFunction.MAX,
            AggregateFunction.COUNT,
            AggregateFunction.COUNT_STAR,
        ):
            assert function.is_decomposable

    def test_avg_is_not_directly_decomposable(self):
        assert not AggregateFunction.AVG.is_decomposable
        with pytest.raises(ValueError):
            AggregateFunction.AVG.combiner

    def test_combiners(self):
        assert AggregateFunction.COUNT.combiner is AggregateFunction.SUM
        assert AggregateFunction.COUNT_STAR.combiner is AggregateFunction.SUM
        assert AggregateFunction.SUM.combiner is AggregateFunction.SUM
        assert AggregateFunction.MIN.combiner is AggregateFunction.MIN
        assert AggregateFunction.MAX.combiner is AggregateFunction.MAX

    def test_partial_then_combine_equals_direct(self):
        """The algebraic property the eager-aggregation rule relies on."""
        values = [1, 5, None, 2, 9, 9, None, 4]
        chunks = [values[:3], values[3:6], values[6:]]
        for function in (
            AggregateFunction.SUM,
            AggregateFunction.MIN,
            AggregateFunction.MAX,
            AggregateFunction.COUNT,
        ):
            partials = [_run(function, chunk) for chunk in chunks]
            combined = _run(function.combiner, partials)
            assert combined == _run(function, values)
