"""Unit tests for query results and result comparison."""

import pytest

from repro.catalog.schema import DataType
from repro.engine.results import (
    QueryResult,
    canonical_row,
    canonical_value,
    diff_summary,
    results_identical,
)
from repro.expr.expressions import Column


def _cols(*names):
    return tuple(Column(name, DataType.INT) for name in names)


class TestCanonicalization:
    def test_floats_rounded(self):
        assert canonical_value(1.0000001) == canonical_value(1.0000002)

    def test_negative_zero_normalized(self):
        assert canonical_value(-0.0) == 0.0
        assert str(canonical_value(-0.0)) == "0.0"

    def test_non_floats_untouched(self):
        assert canonical_value("x") == "x"
        assert canonical_value(None) is None
        assert canonical_value(7) == 7

    def test_canonical_row(self):
        assert canonical_row((1.0000001, "a", None)) == (
            canonical_value(1.0000001),
            "a",
            None,
        )


class TestComparison:
    def test_identical_multisets(self):
        columns = _cols("a")
        left = QueryResult.from_rows(columns, [(1,), (2,), (2,)])
        right = QueryResult.from_rows(columns, [(2,), (1,), (2,)])
        assert results_identical(left, right)

    def test_duplicate_counts_matter(self):
        columns = _cols("a")
        left = QueryResult.from_rows(columns, [(1,), (2,)])
        right = QueryResult.from_rows(columns, [(1,), (2,), (2,)])
        assert not results_identical(left, right)

    def test_float_tolerance(self):
        columns = _cols("a")
        left = QueryResult.from_rows(columns, [(0.1 + 0.2,)])
        right = QueryResult.from_rows(columns, [(0.3,)])
        assert results_identical(left, right)

    def test_column_count_mismatch(self):
        left = QueryResult.from_rows(_cols("a"), [(1,)])
        right = QueryResult.from_rows(_cols("a", "b"), [(1, 2)])
        assert not results_identical(left, right)

    def test_nulls_compare_equal(self):
        columns = _cols("a")
        left = QueryResult.from_rows(columns, [(None,)])
        right = QueryResult.from_rows(columns, [(None,)])
        assert results_identical(left, right)


class TestProjection:
    def test_projected_reorders(self):
        a, b = _cols("a", "b")
        result = QueryResult.from_rows((a, b), [(1, 2), (3, 4)])
        flipped = result.projected((b, a))
        assert flipped.rows == [(2, 1), (4, 3)]
        assert flipped.columns == (b, a)

    def test_projected_missing_column(self):
        a, b = _cols("a", "b")
        result = QueryResult.from_rows((a,), [(1,)])
        with pytest.raises(ValueError, match="column not in result"):
            result.projected((b,))


class TestRendering:
    def test_to_text_with_nulls_and_limit(self):
        a = _cols("a")
        result = QueryResult.from_rows(a, [(None,), (1,), (2,)])
        text = result.to_text(limit=2)
        assert "NULL" in text
        assert "3 rows total" in text

    def test_diff_summary_mentions_unique_rows(self):
        columns = _cols("a")
        left = QueryResult.from_rows(columns, [(1,)])
        right = QueryResult.from_rows(columns, [(2,)])
        summary = diff_summary(left, right)
        assert "only in first" in summary and "only in second" in summary

    def test_diff_summary_column_mismatch(self):
        left = QueryResult.from_rows(_cols("a"), [(1,)])
        right = QueryResult.from_rows(_cols("a", "b"), [(1, 2)])
        assert "column count differs" in diff_summary(left, right)
