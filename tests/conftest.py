"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.catalog.schema import Catalog, ColumnDef, DataType, ForeignKey, TableDef
from repro.logical.cardinality import CardinalityEstimator
from repro.logical.properties import PropertyDeriver
from repro.optimizer.engine import Optimizer
from repro.rules.registry import default_registry
from repro.storage.database import Database
from repro.workloads import tpch_database

# Under CI every property draws the same examples, and a failure prints the
# blob that replays it (``@reproduce_failure``); local runs keep exploring.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session", autouse=True)
def _isolated_plan_cache(tmp_path_factory):
    """Point ``REPRO_CACHE_DIR`` at a per-session temp directory.

    Every ``repro.cli.main([...])`` call that optimizes goes through the
    persistent plan cache; without this the suite would write the user's
    ``~/.cache/repro`` and read back costs an earlier run left there --
    possibly of an edited rule, since the cache keys a rule by its class,
    not its code.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("plan-cache"))
        )
        yield


@pytest.fixture(scope="session")
def tpch_db():
    """The miniature TPC-H database (session-scoped: it is read-only)."""
    return tpch_database(seed=1)


@pytest.fixture(scope="session")
def tpch_stats(tpch_db):
    return tpch_db.stats_repository()


@pytest.fixture(scope="session")
def estimated_cells(tpch_db, tpch_stats):
    """``tree -> estimated root rows x output columns`` over ``tpch_db``:
    what the generator's ``MAX_RESULT_CELLS`` bounds, computed apart."""
    estimator = CardinalityEstimator(tpch_db.catalog, tpch_stats)
    deriver = PropertyDeriver(tpch_db.catalog)

    def cells(tree) -> float:
        return estimator.estimate_tree(tree).rows * len(
            deriver.derive_tree(tree).columns
        )

    return cells


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture()
def optimizer(tpch_db, tpch_stats, registry):
    return Optimizer(tpch_db.catalog, tpch_stats, registry)


def _col(name, data_type, nullable=True):
    return ColumnDef(name, data_type, nullable)


@pytest.fixture(scope="session")
def tiny_catalog():
    """A two-table schema small enough to reason about by hand."""
    dept = TableDef(
        name="dept",
        columns=[
            _col("dept_id", DataType.INT, nullable=False),
            _col("dept_name", DataType.STRING, nullable=False),
            _col("budget", DataType.FLOAT),
        ],
        primary_key=("dept_id",),
    )
    emp = TableDef(
        name="emp",
        columns=[
            _col("emp_id", DataType.INT, nullable=False),
            _col("emp_dept", DataType.INT),
            _col("salary", DataType.FLOAT),
            _col("emp_name", DataType.STRING),
        ],
        primary_key=("emp_id",),
        foreign_keys=[ForeignKey(("emp_dept",), "dept", ("dept_id",))],
    )
    return Catalog([dept, emp])


@pytest.fixture()
def tiny_db(tiny_catalog):
    """Hand-populated two-table database with NULLs, duplicates in non-key
    columns, and an unmatched parent row (dept 40 has no employees)."""
    database = Database(tiny_catalog)
    database.insert(
        "dept",
        [
            (10, "eng", 100.0),
            (20, "sales", 50.0),
            (30, "hr", None),
            (40, "empty", 25.0),
        ],
    )
    database.insert(
        "emp",
        [
            (1, 10, 120.0, "ann"),
            (2, 10, 80.0, "bob"),
            (3, 20, 95.0, "cat"),
            (4, None, 60.0, "dan"),  # employee without a department
            (5, 30, None, "eve"),    # NULL salary
            (6, 20, 95.0, "fay"),    # duplicate salary within dept 20
        ],
    )
    return database
