"""Plan execution and result comparison."""

from repro.engine.batch import BatchItem, execute_item
from repro.engine.columnar import ExecutionError, execute_plan
from repro.engine.digest import BagDigest, digest_rows
from repro.engine.explain import explain, explain_analyze
from repro.engine.results import (
    QueryResult,
    canonical_row,
    canonical_value,
    diff_summary,
    results_identical,
)

__all__ = [
    "BagDigest",
    "BatchItem",
    "ExecutionError",
    "QueryResult",
    "canonical_row",
    "canonical_value",
    "diff_summary",
    "digest_rows",
    "execute_item",
    "execute_plan",
    "explain",
    "explain_analyze",
    "results_identical",
]
