"""Production loads one evaluator.

The engine evaluates expressions only through :mod:`repro.expr.vector`
and aggregates only through the columnar executor.  The row interpreter
and its ``Accumulator`` are a test oracle in
:mod:`repro.testing.reference_executor`; importing the CLI must not pull
them (or any other row evaluator) in.
"""

import json
import subprocess
import sys
from pathlib import Path

import repro.expr

_REPO = Path(__file__).resolve().parents[1]

#: Modules a production import must leave unloaded.
_TEST_ONLY = (
    "repro.testing.reference_executor",
    "repro.expr.eval",
    "repro.expr.simplify",
)


def test_cli_import_loads_no_row_evaluator():
    script = (
        "import json, sys\n"
        "import repro.cli\n"
        f"print(json.dumps([m for m in {list(_TEST_ONLY)!r} "
        "if m in sys.modules]))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=_REPO,
        env={"PYTHONPATH": str(_REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == []


def test_expr_package_exports_no_row_evaluator():
    assert not hasattr(repro.expr, "evaluate")
    assert not hasattr(repro.expr, "Accumulator")
