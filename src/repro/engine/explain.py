"""Plan explanation utilities.

``explain`` renders a physical plan as an indented operator tree;
``explain_analyze`` additionally executes the plan against a database and
annotates each operator with the *actual* number of rows it produced --
invaluable when diagnosing a correctness-test mismatch ("which operator's
output diverged?").

``explain_analyze`` executes each subtree on its own with
:func:`~repro.engine.columnar.execute_plan`, which is O(depth) redundant
work; plans here are small trees over small test databases, and a
diagnostics utility favours zero intrusion into the executor's hot path
over speed.  A subtree run on its own has no ``Top`` above it, so a
``Sort`` reports every row it orders.
"""

from __future__ import annotations

from typing import List

from repro.engine.columnar import execute_plan
from repro.physical.operators import PhysicalOp
from repro.storage.database import Database


def explain(plan: PhysicalOp) -> str:
    """Indented operator-tree rendering of ``plan``."""
    return plan.pretty()


def explain_analyze(plan: PhysicalOp, database: Database) -> str:
    """Execute ``plan`` and render each operator with its actual row count."""
    lines: List[str] = []
    _analyze(plan, database, 0, lines)
    return "\n".join(lines)


def _analyze(
    op: PhysicalOp, database: Database, depth: int, lines: List[str]
) -> None:
    rows = execute_plan(op, database).row_count
    pad = "  " * depth
    lines.append(f"{pad}{op.describe()}  (actual rows={rows})")
    for child in op.children:
        _analyze(child, database, depth + 1, lines)
