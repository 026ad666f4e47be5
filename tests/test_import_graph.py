"""Production loads one evaluator and no numerical stack.

The engine evaluates expressions only through :mod:`repro.expr.vector`
and aggregates only through the columnar executor.  The row interpreter
and its ``Accumulator`` are a test oracle in
:mod:`repro.testing.reference_executor`; importing the CLI must not pull
them (or any other row evaluator) in.

NumPy and SciPy are imported inside the function that solves with them
(Section 7's Hungarian matching, ``matching_plan``), never at module
level: loading them costs every process about 56 MB of resident memory
and half a second of start-up.  The package, the CLI and the pool
worker's module -- what every command, benchmark pass and spawned worker
imports -- must each leave both out of ``sys.modules``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.expr

_REPO = Path(__file__).resolve().parents[1]

#: Modules a production import must leave unloaded.
_TEST_ONLY = (
    "repro.testing.reference_executor",
    "repro.expr.eval",
    "repro.expr.simplify",
)

#: Top-level packages only the function that calls them may import.
_NUMERICAL = ("numpy", "scipy")


def _loaded_after_import(module, candidates):
    """The ``candidates`` in ``sys.modules`` after a fresh interpreter
    imports ``module``."""
    script = (
        "import json, sys\n"
        f"import {module}\n"
        f"print(json.dumps([m for m in {list(candidates)!r} "
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
    return json.loads(completed.stdout)


def test_cli_import_loads_no_row_evaluator():
    assert _loaded_after_import("repro.cli", _TEST_ONLY) == []


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.service.worker"]
)
def test_production_import_loads_no_numerical_stack(module):
    assert _loaded_after_import(module, _NUMERICAL) == []


def test_expr_package_exports_no_row_evaluator():
    assert not hasattr(repro.expr, "evaluate")
    assert not hasattr(repro.expr, "Accumulator")
