"""Determinism: one seed, byte-identical artifacts (satellite of the
mutation PR).

Every JSON artifact the framework emits -- generated suites, compression
selections, mutation kill matrices -- must be a pure function of (database
seed, generation seed, configuration).  Two independent runs, each with its
own fresh services and caches, must serialize byte-identically; anything
else means hidden state (dict ordering, wall clock, object ids) leaked into
a report.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.testing.mutation import MutationCampaign

_REPO = Path(__file__).resolve().parents[1]

# Runs in a *fresh interpreter*: bound Column ids come from a process-global
# counter, so byte-identity of SQL-bearing artifacts only holds between
# clean processes, which is exactly what "same seed, same report" means.
_GENERATION_SCRIPT = """
import json
from repro.service import PlanService
from repro.rules.registry import default_registry
from repro.testing.compression import (
    set_multicover_plan, top_k_independent_plan,
)
from repro.testing.suite import CostOracle, TestSuiteBuilder, singleton_nodes
from repro.workloads import tpch_database

database = tpch_database(seed=1)
registry = default_registry()
service = PlanService(database, registry=registry)
suite = TestSuiteBuilder(
    database, registry, seed=7, extra_operators=2, service=service
).build(singleton_nodes(["JoinCommutativity", "DistinctToGbAgg"]), k=2)
oracle = CostOracle(database, registry, service=service)
artifact = {
    "queries": [
        {
            "id": query.query_id,
            "sql": query.sql,
            "cost": round(query.cost, 6),
            "ruleset": sorted(query.ruleset),
            "generated_for": list(query.generated_for),
        }
        for query in suite.queries
    ],
    "compression": {},
}
for name, maker in (
    ("SMC", set_multicover_plan),
    ("TOPK", top_k_independent_plan),
):
    plan = maker(suite, oracle)
    artifact["compression"][name] = {
        "selected": sorted(plan.selected_query_ids),
        "assignments": {
            "+".join(node): sorted(query_ids)
            for node, query_ids in sorted(plan.assignments.items())
        },
        "total_cost": round(plan.total_cost, 6),
    }
print(json.dumps(artifact, indent=2, sort_keys=True))
"""


def _generation_artifact() -> str:
    completed = subprocess.run(
        [sys.executable, "-c", _GENERATION_SCRIPT],
        capture_output=True,
        text=True,
        cwd=_REPO,
        env={"PYTHONPATH": str(_REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


# The differential collect artifact must also be a pure function of
# (database seed, generation seed, fleet).  Fresh interpreter for the same
# reason as above: Column cids are process-global.
_DIFF_SCRIPT = """
from repro.backends import create_backends
from repro.rules.registry import default_registry
from repro.service import PlanService
from repro.testing.differential import DifferentialRunner
from repro.testing.suite import TestSuiteBuilder, singleton_nodes
from repro.workloads import tpch_database

database = tpch_database(seed=1)
registry = default_registry()
suite = TestSuiteBuilder(
    database, registry, seed=7, extra_operators=2
).build(singleton_nodes(["JoinCommutativity", "DistinctToGbAgg"]), k=2)
backends, skipped = create_backends(
    ["engine", "sqlite"],
    PlanService(database, registry=registry, cache_dir=None),
)
report = DifferentialRunner(
    database, backends, skipped_backends=skipped
).run(suite, suite_info={"seed": 7})
print(report.to_json())
"""


def _diff_artifact() -> str:
    completed = subprocess.run(
        [sys.executable, "-c", _DIFF_SCRIPT],
        capture_output=True,
        text=True,
        cwd=_REPO,
        env={"PYTHONPATH": str(_REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def _mutation_artifact(database, registry, **overrides) -> str:
    params = {
        "pool": 3, "k": 1, "seeds": (3,), "extra_operators": 2,
        "max_trials": 10,
    }
    params.update(overrides)
    campaign = MutationCampaign(database, registry, **params)
    report = campaign.run(
        rule_names=["DistinctRemoveOnKey", "JoinCommutativity"],
        operators=["handwritten", "skip-substitute"],
    )
    return report.to_json()


def test_generation_and_compression_are_deterministic():
    first = _generation_artifact()
    second = _generation_artifact()
    assert first == second


def test_diff_collect_artifact_is_byte_identical():
    first = _diff_artifact()
    second = _diff_artifact()
    assert first == second
    assert '"passed": true' in first


def test_mutation_report_is_deterministic(tpch_db, registry):
    first = _mutation_artifact(tpch_db, registry)
    second = _mutation_artifact(tpch_db, registry)
    assert first == second


def test_mutation_report_depends_on_the_seed(tpch_db, registry):
    """Guard against a trivially-constant artifact: the report must record
    its configuration, so a different seed produces different bytes."""
    first = _mutation_artifact(tpch_db, registry, seeds=(3,))
    other = _mutation_artifact(tpch_db, registry, seeds=(5,))
    assert first != other


@pytest.mark.mutation
def test_multi_seed_mutation_report_is_deterministic(tpch_db, registry):
    """Fuller variant for the CI mutation job: multi-seed pools, more
    operators, stride sampling."""

    def run():
        campaign = MutationCampaign(
            tpch_db, registry, pool=4, k=2, seeds=(3, 11),
            extra_operators=2,
        )
        return campaign.run(sample=8).to_json()

    assert run() == run()
