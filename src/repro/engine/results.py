"""Query results and result comparison.

Correctness testing hinges on comparing the results of two plans for the
same query (paper, Section 2.3: "check if the results of executing the two
plans are identical").  SQL results are *bags* with no inherent row order,
so comparison is multiset equality; floating-point aggregates are quantized
before comparison because two correct plans may sum floats in different
orders.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

from repro.expr.expressions import Column

#: Decimal places floats are rounded to before comparison.
FLOAT_COMPARE_DIGITS = 5


def canonical_value(value: object) -> object:
    """Canonical form of one cell value for comparison purposes."""
    if isinstance(value, float):
        rounded = round(value, FLOAT_COMPARE_DIGITS)
        # Avoid -0.0 vs 0.0 mismatches.
        if rounded == 0.0:
            return 0.0
        return rounded
    return value


def canonical_row(row: Tuple) -> Tuple:
    return tuple(canonical_value(value) for value in row)


class QueryResult:
    """A result as its columns: one list per column plus the row count.

    ``data[p]`` holds column ``p``'s values, row by row; the columnar
    executor hands over the lists it built, and they are immutable by
    convention (a scan's may be a table snapshot's lists).  ``rows`` is
    built from them on first read and kept.  :meth:`from_rows` transposes
    a row list once (the reference interpreter, tests).
    """

    def __init__(
        self, columns: Tuple[Column, ...], data: List[list], row_count: int
    ) -> None:
        self.columns = columns
        self.data = data
        self.row_count = row_count
        self._rows: Optional[List[Tuple]] = None
        #: Lazily computed bag digest (process-local; see repro.engine.digest).
        self._digest = None

    @classmethod
    def from_rows(
        cls, columns: Tuple[Column, ...], rows: List[Tuple]
    ) -> "QueryResult":
        data = (
            [list(column) for column in zip(*rows)] if rows
            else [[] for _ in columns]
        )
        result = cls(columns, data, len(rows))
        result._rows = rows
        return result

    @property
    def rows(self) -> List[Tuple]:
        if self._rows is None:
            self._rows = (
                list(zip(*self.data)) if self.data
                else [()] * self.row_count
            )
        return self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return (
            self.columns == other.columns
            and self.row_count == other.row_count
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"QueryResult(columns={self.columns!r}, rows={self.rows!r})"

    def multiset(self) -> Counter:
        return Counter(canonical_row(row) for row in self.rows)

    def bag_digest(self):
        """Order-insensitive digest of the canonical row bag, cached.

        One O(n) pass over the columns on first use; comparisons against
        other digests are then O(1).  Process-local — never persist it
        into artifacts.
        """
        if self._digest is None:
            from repro.engine.digest import digest_columns

            self._digest = digest_columns(self.data, self.row_count)
        return self._digest

    def same_rows(self, other: "QueryResult") -> bool:
        """Bag equality of the two results (column layouts must align)."""
        return self.bag_digest() == other.bag_digest()

    def projected(self, columns: Tuple[Column, ...]) -> "QueryResult":
        """Reorder/restrict to ``columns`` (all must be present here)."""
        positions = {column.cid: i for i, column in enumerate(self.columns)}
        try:
            indices = [positions[column.cid] for column in columns]
        except KeyError as exc:
            raise ValueError(f"column not in result: {exc}") from None
        return QueryResult(
            tuple(columns), [self.data[i] for i in indices], self.row_count
        )

    def to_text(self, limit: Optional[int] = 20) -> str:
        """Human-readable rendering (for examples and debugging)."""
        header = " | ".join(column.name for column in self.columns)
        sep = "-" * len(header)
        body_rows = self.rows if limit is None else self.rows[:limit]
        lines = [header, sep]
        for row in body_rows:
            lines.append(
                " | ".join("NULL" if v is None else str(v) for v in row)
            )
        if limit is not None and self.row_count > limit:
            lines.append(f"... ({self.row_count} rows total)")
        return "\n".join(lines)


def results_identical(a: QueryResult, b: QueryResult) -> bool:
    """Multiset comparison used by the correctness harness.

    Compares cached bag digests instead of building a
    ``Counter`` per side per call: equal bags always compare equal, and
    the digest's two independent 64-bit accumulators plus the exact row
    count make a false "identical" on unequal bags vanishingly unlikely.
    :func:`diff_summary` still materializes exact multisets when a
    mismatch needs explaining.
    """
    if len(a.columns) != len(b.columns):
        return False
    return a.same_rows(b)


def diff_summary(a: QueryResult, b: QueryResult) -> str:
    """Short description of how two results differ (for bug reports)."""
    if len(a.columns) != len(b.columns):
        return (
            f"column count differs: {len(a.columns)} vs {len(b.columns)}"
        )
    left, right = a.multiset(), b.multiset()
    only_a = left - right
    only_b = right - left
    parts = [f"rows: {a.row_count} vs {b.row_count}"]
    if only_a:
        sample = next(iter(only_a))
        parts.append(f"{sum(only_a.values())} rows only in first, e.g. {sample}")
    if only_b:
        sample = next(iter(only_b))
        parts.append(f"{sum(only_b.values())} rows only in second, e.g. {sample}")
    return "; ".join(parts)
