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
from dataclasses import dataclass, field
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


@dataclass
class QueryResult:
    """Rows plus the columns they are laid out on."""

    columns: Tuple[Column, ...]
    rows: List[Tuple]
    #: Lazily computed bag digest (process-local; see repro.engine.digest).
    _digest: object = field(default=None, repr=False, compare=False)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def multiset(self) -> Counter:
        return Counter(canonical_row(row) for row in self.rows)

    def bag_digest(self):
        """Order-insensitive digest of the canonical row bag, cached.

        One O(n) pass on first use; comparisons against other digests are
        then O(1).  Process-local — never persist it into artifacts.
        """
        if self._digest is None:
            from repro.engine.digest import digest_rows

            self._digest = digest_rows(self.rows)
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
        rows = [tuple(row[i] for i in indices) for row in self.rows]
        return QueryResult(columns=tuple(columns), rows=rows)

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
        if limit is not None and len(self.rows) > limit:
            lines.append(f"... ({len(self.rows)} rows total)")
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
