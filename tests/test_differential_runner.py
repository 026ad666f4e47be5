"""The differential fleet runner (`repro.testing.differential`).

Three layers: outcome unification over stub backends (every verdict, and
the fleet running on the caller's thread), agreement of the real
engine/sqlite fleet on seed-registry suites, and the oracle's kill power
-- each of the four handwritten rule faults must surface as a backend
disagreement.
"""

from __future__ import annotations

import hashlib
import json
import threading

import pytest

import repro.backends.base as backends_base
import repro.engine.digest as engine_digest

from repro.backends import (
    BackendError,
    ConnectionBackend,
    create_backends,
)
from repro.rules.faults import ALL_FAULTS
from repro.rules.registry import default_registry
from repro.service import PlanService
from repro.sql.binder import sql_to_tree
from repro.sql.dialect import ENGINE_DIALECT
from repro.testing.differential import (
    AGREE,
    DISAGREE,
    ERROR,
    SKIP,
    DiffOutcome,
    DiffReport,
    DifferentialRunner,
)
from repro.testing.suite import SuiteQuery, TestSuite, singleton_nodes
from repro.testing.suite import TestSuiteBuilder, rule_suite, select_rules
from repro.workloads import tpch_database


class _StubBackend(ConnectionBackend):
    """Executes nothing: fetches canned rows (or raises)."""

    dialect = ENGINE_DIALECT

    def __init__(self, name, rows=None, fail=False):
        super().__init__()
        self.name = name
        self._rows = rows if rows is not None else [(1,), (2,)]
        self._fail = fail

    def mirror(self, database):
        return None  # fetch() answers without a connection

    def fetch(self, sql):
        if self._fail:
            raise BackendError(f"{self.name} exploded")
        return self._rows


def _tiny_suite(tpch_db):
    tree = sql_to_tree("SELECT r_regionkey FROM region", tpch_db.catalog)
    query = SuiteQuery(
        query_id=0, tree=tree, sql="SELECT r_regionkey FROM region",
        cost=1.0, ruleset=frozenset({"JoinCommutativity"}),
        generated_for=("JoinCommutativity",),
    )
    return TestSuite(
        rule_nodes=[("JoinCommutativity",)], queries=[query], k=1
    )


class TestUnification:
    def test_each_verdict(self, tpch_db):
        reference = _StubBackend("ref")
        runner = DifferentialRunner(
            tpch_db,
            [
                reference,
                _StubBackend("same"),
                _StubBackend("wrong", rows=[(1,), (3,)]),
                _StubBackend("broken", fail=True),
            ],
        )
        report = runner.run(_tiny_suite(tpch_db))
        verdicts = {o.backend: o.outcome for o in report.outcomes}
        assert verdicts == {
            "same": AGREE, "wrong": DISAGREE, "broken": ERROR,
        }
        assert not report.passed

    def test_a_backend_without_outcomes_tallies_zero(self):
        report = DiffReport(
            backends=["engine", "sqlite", "duckdb"],
            reference="engine",
            outcomes=[
                DiffOutcome(0, "sqlite", AGREE),
                DiffOutcome(1, "sqlite", DISAGREE, "rows differ"),
            ],
        )
        assert report.tallies == {
            "sqlite": {"agree": 1, "disagree": 1, "error": 0, "skip": 0},
            "duckdb": {"agree": 0, "disagree": 0, "error": 0, "skip": 0},
        }

    def test_reference_failure_skips_the_comparison(self, tpch_db):
        runner = DifferentialRunner(
            tpch_db,
            [_StubBackend("ref", fail=True), _StubBackend("other")],
        )
        report = runner.run(_tiny_suite(tpch_db))
        (outcome,) = report.outcomes
        assert outcome.outcome == SKIP
        assert "reference failed" in outcome.detail
        # A skipped comparison is not a pass: the reference errored.
        assert not report.passed

    def test_disagreement_attributes_the_generating_rule(self, tpch_db):
        runner = DifferentialRunner(
            tpch_db,
            [_StubBackend("ref"), _StubBackend("wrong", rows=[(9,)])],
        )
        report = runner.run(_tiny_suite(tpch_db))
        attribution = report.rule_attribution()
        assert attribution["JoinCommutativity"]["generated_for"] == 1
        assert attribution["JoinCommutativity"]["implicated"] == 1

    def test_needs_two_backends_with_unique_names(self, tpch_db):
        with pytest.raises(ValueError, match="at least two"):
            DifferentialRunner(tpch_db, [_StubBackend("only")])
        with pytest.raises(ValueError, match="unique"):
            DifferentialRunner(
                tpch_db, [_StubBackend("twin"), _StubBackend("twin")]
            )

    def test_fleet_runs_on_the_calling_thread(self, tpch_db):
        threads = []

        class Recording(_StubBackend):
            def run_many(self, requests):
                threads.append(threading.get_ident())
                return super().run_many(requests)

        report = DifferentialRunner(
            tpch_db, [Recording("ref"), Recording("other")]
        ).run(_tiny_suite(tpch_db))
        assert report.passed
        assert threads == [threading.get_ident()] * 2


@pytest.fixture(scope="module")
def small_suite(tpch_db, registry):
    names = ["JoinCommutativity", "SelectPushBelowJoinLeft"]
    builder = TestSuiteBuilder(
        tpch_db, registry, seed=3, extra_operators=2
    )
    return builder.build(singleton_nodes(names), k=2)


def _service(database, registry):
    """A memory-only service: the engine member's build under test."""
    return PlanService(database, registry=registry, cache_dir=None)


class TestSeedFleet:
    def test_engine_and_sqlite_agree_on_generated_suites(
        self, tpch_db, registry, small_suite
    ):
        backends, skipped = create_backends(
            ["engine", "sqlite"], _service(tpch_db, registry)
        )
        report = DifferentialRunner(
            tpch_db, backends, skipped_backends=skipped,
        ).run(small_suite)
        assert report.passed
        assert len(report.queries) == len(small_suite.queries)
        tally = report.tallies["sqlite"]
        assert tally == {
            "agree": len(small_suite.queries),
            "disagree": 0, "error": 0, "skip": 0,
        }

    def test_an_external_member_runs_one_statement_per_query(
        self, tpch_db, registry, small_suite, monkeypatch
    ):
        fetched = []
        fetch = ConnectionBackend.fetch

        def spy(backend, sql):
            fetched.append(sql)
            return fetch(backend, sql)

        monkeypatch.setattr(ConnectionBackend, "fetch", spy)
        backends, _ = create_backends(
            ["engine", "sqlite"], _service(tpch_db, registry)
        )
        report = DifferentialRunner(tpch_db, backends).run(small_suite)
        backends[1].close()
        assert report.passed
        assert len(fetched) == len(small_suite.queries)

    def test_collect_artifact_shape(self, tpch_db, registry, small_suite):
        backends, skipped = create_backends(
            ["engine", "sqlite"], _service(tpch_db, registry)
        )
        report = DifferentialRunner(
            tpch_db, backends, skipped_backends=skipped
        ).run(small_suite, suite_info={"seed": 3})
        payload = json.loads(report.to_json())
        assert payload["campaign"]["reference"] == "engine"
        assert payload["campaign"]["suite"] == {"seed": 3}
        assert payload["summary"]["passed"] is True
        assert len(payload["queries"]) == len(small_suite.queries)
        first = payload["queries"][0]
        assert set(first["runs"]) == {"engine", "sqlite"}
        engine_run = first["runs"]["engine"]
        assert engine_run["bag_fingerprint"]
        assert set(engine_run) == {
            "sql", "error", "rows", "columns", "bag_fingerprint",
        }
        assert report.to_text().endswith("PASSED")
        assert "| `sqlite` |" in report.to_markdown()


# What `repro --seed 2 diff ... --collect-out` wrote at d6887f1, when a
# verdict was an exact ``Counter`` comparison, less the plan shapes the
# fleet no longer records: per run (query, backend, bag_fingerprint, rows,
# columns), and the sha256 of the artifact without its ``sql`` strings
# (their column aliases carry ids drawn from a process-wide counter, so
# only a fresh process reproduces those bytes).
CLEAN_COLLECT_SHA256 = (
    "f2eaba642994993e1a3ab45f30cf03e621658f61e9a2eccd192f961bf4f35ef6"
)
CLEAN_COLLECT_RUNS = [
    (0, "engine", "4e138e4568e5aaee", 750, 10),
    (0, "sqlite", "4e138e4568e5aaee", 750, 10),
    (1, "engine", "b89b7643d835d4e7", 1800, 17),
    (1, "sqlite", "b89b7643d835d4e7", 1800, 17),
    (2, "engine", "4f53cda18c2baa0c", 0, 0),
    (2, "sqlite", "4f53cda18c2baa0c", 0, 0),
    (3, "engine", "675a8ff08903710b", 5, 6),
    (3, "sqlite", "675a8ff08903710b", 5, 6),
    (4, "engine", "4f53cda18c2baa0c", 0, 0),
    (4, "sqlite", "4f53cda18c2baa0c", 0, 0),
    (5, "engine", "54f49471bed9e212", 600, 9),
    (5, "sqlite", "54f49471bed9e212", 600, 9),
    (6, "engine", "4f53cda18c2baa0c", 0, 0),
    (6, "sqlite", "4f53cda18c2baa0c", 0, 0),
    (7, "engine", "4f53cda18c2baa0c", 0, 0),
    (7, "sqlite", "4f53cda18c2baa0c", 0, 0),
]
FAULT_COLLECT_SHA256 = (
    "a4d600828fd570671d5678929fd124316828b48e8e78601037420f9eb3adb690"
)
FAULT_COLLECT_RUNS = [
    (0, "engine", "2c4e6d63ad8ada4b", 8, 10),
    (0, "sqlite", "2c4e6d63ad8ada4b", 8, 10),
    (1, "engine", "2e907319957f9fef", 5, 12),
    (1, "sqlite", "3ed65a400455103b", 51, 12),
]
FAULT_DISAGREE_DETAIL = (
    "rows: 5 vs 51; 46 rows only here, e.g. "
    "(1, 0, 35, 13, 95, 601.71, 54.05, 730662, 'xqylzsll', None, None, None)"
)


class TestDigestDecides:
    """A verdict is one digest comparison; the exact bag is built only to
    explain a disagreement or to fingerprint the collect artifact."""

    @pytest.fixture(scope="class")
    def seed2_db(self):
        return tpch_database(seed=2)

    @staticmethod
    def _cli_diff(database, monkeypatch, rule_names=None, fault=None):
        """`repro --seed 2 diff --k 2 [--rules 4 | --rule-names ...]`."""
        registry = default_registry()
        if fault:
            registry = registry.with_replaced_rule(ALL_FAULTS[fault]())
        names = select_rules(registry, 4, rule_names)
        service = PlanService(database, registry=registry, cache_dir=None)
        suite = rule_suite(
            database, registry, names, 2, seed=2, extra_operators=2,
            service=service,
        )
        backends, skipped = create_backends(["engine", "sqlite"], service)
        exact_bag = backends_base.normalized_bag
        bags_built = []

        def spy(rows):
            bags_built.append(len(rows))
            return exact_bag(rows)

        monkeypatch.setattr(backends_base, "normalized_bag", spy)
        report = DifferentialRunner(
            database, backends, skipped_backends=skipped,
        ).run(suite, suite_info={
            "seed": 2, "database": "tpch", "rules": list(names), "k": 2,
            "extra_operators": 2, "fault": fault,
        })
        return report, bags_built

    @staticmethod
    def _collected(report):
        """The collect artifact's sha256 (``sql`` strings aside) and its
        per-run summary; writing it reads every run's exact bag."""
        payload = json.loads(report.to_json())
        runs = []
        for query in payload["queries"]:
            for name, run in sorted(query["runs"].items()):
                del run["sql"]
                runs.append((
                    query["id"], name, run["bag_fingerprint"], run["rows"],
                    run["columns"],
                ))
        artifact = json.dumps(payload, indent=2, sort_keys=True)
        return hashlib.sha256(artifact.encode("utf-8")).hexdigest(), runs

    def test_agreeing_fleet_builds_no_exact_bag(self, seed2_db, monkeypatch):
        report, bags_built = self._cli_diff(seed2_db, monkeypatch)
        assert report.passed and len(report.queries) == 8
        assert bags_built == []
        assert all(
            run.digest is not None and "bag" not in vars(run)
            for runs in report.runs.values() for run in runs.values()
        )
        sha, runs = self._collected(report)
        assert runs == CLEAN_COLLECT_RUNS
        assert sha == CLEAN_COLLECT_SHA256
        # Only the artifact paid for exact bags: one per run.
        assert len(bags_built) == 2 * len(report.queries)

    def test_disagreement_is_explained_by_exact_bags(
        self, seed2_db, monkeypatch
    ):
        fault = "LojToJoinOnNullReject"
        report, bags_built = self._cli_diff(
            seed2_db, monkeypatch, rule_names=[fault], fault=fault
        )
        (outcome,) = report.disagreements
        assert outcome.detail == FAULT_DISAGREE_DETAIL
        # Two runs disagreed, so two bags -- the agreeing query built none.
        assert sorted(bags_built) == [5, 51]
        sha, runs = self._collected(report)
        assert runs == FAULT_COLLECT_RUNS
        assert sha == FAULT_COLLECT_SHA256

    def test_shared_reference_bag_is_counted_once(self, tpch_db, monkeypatch):
        """Two members disagree with the reference: three bags, not four
        -- the reference's is built once -- and none for the member that
        agrees."""
        exact_bag = backends_base.normalized_bag
        bags_built = []

        def spy(rows):
            rows = list(rows)
            bags_built.append(rows)
            return exact_bag(rows)

        monkeypatch.setattr(backends_base, "normalized_bag", spy)
        DifferentialRunner(
            tpch_db,
            [
                _StubBackend("ref"),
                _StubBackend("wrong", rows=[(1,), (3,)]),
                _StubBackend("also-wrong", rows=[(-2,), (2,)]),
                _StubBackend("same", rows=[(2,), (1.0,)]),
            ],
        ).run(_tiny_suite(tpch_db))
        assert sorted(bags_built) == [
            [(-2,), (2,)], [(1,), (2,)], [(1,), (3,)],
        ]

    @pytest.mark.parametrize("chunk", [2, 4096])
    def test_verdicts_do_not_depend_on_where_a_chunk_ends(
        self, tpch_db, monkeypatch, chunk
    ):
        """The fleet's runs are digested by column, a chunk at a time; a
        verdict must not move with the seams (strings included: their
        hashes differ per process, the verdicts must not)."""
        monkeypatch.setattr(engine_digest, "_CHUNK", chunk)
        rows = [(i % 3 - 1, "s%d" % (i % 2), (i % 4) / 8, None) for i in range(9)]
        retyped = [
            (float(a), b, c + 1e-9, d) for a, b, c, d in reversed(rows)
        ]
        report = DifferentialRunner(
            tpch_db,
            [
                _StubBackend("ref", rows=rows),
                _StubBackend("same", rows=retyped),
                _StubBackend("minus-two", rows=[(-2,) + rows[0][1:]] + rows[1:]),
                _StubBackend("widened", rows=rows[:-1] + [rows[-1] + (0,)]),
            ],
        ).run(_tiny_suite(tpch_db))
        assert {o.backend: o.outcome for o in report.outcomes} == {
            "same": AGREE, "minus-two": DISAGREE, "widened": DISAGREE,
        }


class TestFaultKills:
    @pytest.mark.parametrize("rule_name", sorted(ALL_FAULTS))
    def test_fleet_kills_every_handwritten_fault(self, tpch_db, rule_name):
        """The independent-executor oracle detects each seeded fault.

        Same calibration as the correctness runner's campaign kill test:
        per-seed pools until the first killing disagreement.
        """
        fault_cls = ALL_FAULTS[rule_name]
        for seed in (11, 23, 37, 51):
            registry = default_registry().with_replaced_rule(fault_cls())
            suite = TestSuiteBuilder(
                tpch_db, registry, seed=seed, extra_operators=2
            ).build(singleton_nodes([rule_name]), k=8)
            backends, _ = create_backends(
                ["engine", "sqlite"], _service(tpch_db, registry)
            )
            report = DifferentialRunner(tpch_db, backends).run(suite)
            assert not report.errors, [o.detail for o in report.errors]
            if report.disagreements:
                assert rule_name in report.rule_attribution()
                return
        pytest.fail(
            f"{fault_cls.__name__} produced no backend disagreement"
        )
