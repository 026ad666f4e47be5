"""Tests for the mutation campaign (kill matrix + detection scores)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, RecordingTracer
from repro.optimizer.config import DEFAULT_CONFIG
from repro.rules.exploration.join_rules import JoinCommutativity
from repro.rules.faults import ALL_FAULTS
from repro.service import PlanService
from repro.testing.generator import MAX_RESULT_CELLS
from repro.testing.mutation import MutationCampaign, generate_mutants
from repro.testing.mutation.campaign import (
    CRASHED,
    EQUIVALENT,
    KILLED,
    NO_FIRE,
    SURVIVED,
    VARIANTS,
    _classify,
)

ALL_STATUSES = {
    KILLED, CRASHED, NO_FIRE, EQUIVALENT, SURVIVED, "NOT_COVERED",
}


@pytest.fixture(scope="module")
def smoke_report(tpch_db, registry):
    """One tiny two-mutant campaign shared by the structural tests."""
    campaign = MutationCampaign(
        tpch_db, registry, pool=4, k=1, seeds=(3,), extra_operators=2,
    )
    return campaign.run(
        rule_names=["DistinctRemoveOnKey"],
        operators=["handwritten", "drop-precondition"],
    )


class TestCampaignSmoke:
    def test_every_mutant_scored_on_every_variant(self, smoke_report):
        report = smoke_report
        assert len(report.outcomes) == 2
        for outcome in report.outcomes:
            assert set(outcome.variants) == set(VARIANTS)
            for variant in VARIANTS:
                assert outcome.status(variant) in ALL_STATUSES

    def test_json_round_trips(self, smoke_report):
        report = smoke_report
        data = json.loads(report.to_json())
        assert len(data["mutants"]) == 2
        assert set(data["summary"]) == set(VARIANTS)
        assert data["config"]["seeds"] == [3]

    def test_renderings_cover_the_matrix(self, smoke_report):
        report = smoke_report
        markdown = report.to_markdown()
        assert "## Kill matrix" in markdown
        assert "## Detection scores" in markdown
        text = report.to_text()
        assert text.startswith("mutation campaign:")
        for outcome in report.outcomes:
            assert outcome.mutant_id in markdown

    def test_survivors_are_reported_never_dropped(self, smoke_report):
        report = smoke_report
        for outcome in report.outcomes:
            for variant in VARIANTS:
                if outcome.expected_detectable and not outcome.detected(
                    variant
                ):
                    assert outcome.mutant_id in report.surviving_ids(
                        variant
                    )
                    assert outcome.mutant_id in report.to_text()

    def test_service_stats_aggregated(self, smoke_report):
        report = smoke_report
        assert report.service_stats
        assert report.service_stats.get("requests", 0) > 0

    def test_pool_plans_are_asked_for_once(self, tpch_db, registry):
        """The optimizer work of a fixed 3-mutant sample is what it was
        when the campaign and the runner each pre-warmed the pool (16
        optimizations beside a NO_FIRE mutant's trials, 48 re-asks at
        commit 774e9d5); the re-asks are now just the runner's own 2 x
        pool requests per scored pool.  The NO_FIRE mutant is one failed
        attempt and the four clean probes that witness it (750 trials up
        to 22b1908)."""
        campaign = MutationCampaign(
            tpch_db, registry, pool=4, k=1, seeds=(3,), extra_operators=2,
        )
        report = campaign.run(
            rule_names=registry.exploration_rule_names[:6], sample=3
        )
        stats = report.service_stats
        assert stats["computed"] == 16 + 25 + 4
        pools = sum(outcome.pool_size for outcome in report.outcomes)
        assert stats["requests"] - stats["computed"] == 2 * pools < 48

    def test_outcomes_carry_the_kill_matrix_row(self, smoke_report):
        """Every pool query's verdict and cost are recorded: the
        detection objective (repro.testing.detection) needs them."""
        report = smoke_report
        for outcome in report.outcomes:
            if outcome.pool_size == 0:
                assert outcome.query_verdicts == ()
                continue
            verdict_ids = [qid for qid, _ in outcome.query_verdicts]
            cost_ids = [qid for qid, _ in outcome.query_costs]
            assert verdict_ids == cost_ids == list(range(
                outcome.pool_size
            ))
            assert all(cost > 0 for _, cost in outcome.query_costs)
            killing = set(outcome.killing_query_ids())
            for query_id, verdict in outcome.query_verdicts:
                assert (verdict in ("mismatch", "error")) == (
                    query_id in killing
                )

    def test_verdict_rows_serialize(self, smoke_report):
        report = smoke_report
        data = json.loads(report.to_json())
        assert data["config"]["differential_backends"] == []
        for mutant in data["mutants"]:
            assert len(mutant["query_verdicts"]) == mutant["pool_size"]
            assert len(mutant["query_costs"]) == mutant["pool_size"]


class TestClassification:
    """The record-folding core, on synthetic verdicts."""

    def test_mismatch_beats_everything(self):
        verdicts = {0: ("identical", ""), 1: ("mismatch", "boom")}
        assert _classify(verdicts, [0, 1]) == (KILLED, "query 1: boom")

    def test_error_is_a_crash(self):
        verdicts = {0: ("equal", ""), 1: ("error", "died")}
        assert _classify(verdicts, [0, 1]) == (CRASHED, "query 1: died")

    def test_all_identical_is_equivalent(self):
        verdicts = {0: ("identical", ""), 1: ("identical", "")}
        assert _classify(verdicts, [0, 1]) == (EQUIVALENT, "")

    def test_executed_but_equal_survives(self):
        verdicts = {0: ("identical", ""), 1: ("equal", "")}
        assert _classify(verdicts, [0, 1]) == (SURVIVED, "")

    def test_subset_only_sees_its_own_queries(self):
        verdicts = {0: ("mismatch", "boom"), 1: ("identical", "")}
        assert _classify(verdicts, [1]) == (EQUIVALENT, "")


def test_sample_strides_and_no_fire(tpch_db, registry):
    """skip-substitute mutants leave the rule with no alternatives at all:
    suite generation must flag the build (NO_FIRE), and ``sample`` must
    stride across the mutant list rather than truncate it."""
    campaign = MutationCampaign(
        tpch_db, registry, pool=2, k=1, seeds=(0,), extra_operators=2,
        max_trials=4,
    )
    report = campaign.run(operators=["skip-substitute"], sample=3)
    assert len(report.outcomes) == 3
    rules = {outcome.rule_name for outcome in report.outcomes}
    assert len(rules) == 3  # spread over distinct rules, not a prefix
    for outcome in report.outcomes:
        assert outcome.status("FULL") == NO_FIRE


def test_k_larger_than_pool_rejected(tpch_db, registry):
    with pytest.raises(ValueError):
        MutationCampaign(tpch_db, registry, pool=2, k=3)


def test_differential_fleet_must_lead_with_engine(tpch_db, registry):
    """The mutated build has to sit on one side of every comparison, so
    the reference backend of the second oracle is always 'engine'."""
    with pytest.raises(ValueError):
        MutationCampaign(
            tpch_db, registry, differential_backends=("sqlite", "engine")
        )


def test_differential_oracle_folds_into_the_verdicts(tpch_db, registry):
    """With the fleet enabled the campaign still classifies every mutant,
    records the fleet in its config, and never *loses* kills: folding is
    monotone (a backend disagreement can only upgrade a verdict)."""
    base = MutationCampaign(
        tpch_db, registry, pool=3, k=1, seeds=(3,), extra_operators=2,
        max_trials=10,
    )
    fleet = MutationCampaign(
        tpch_db, registry, pool=3, k=1, seeds=(3,), extra_operators=2,
        max_trials=10, differential_backends=("engine", "sqlite"),
    )
    names = ["DistinctRemoveOnKey"]
    plain = base.run(rule_names=names, operators=["handwritten"])
    oracled = fleet.run(rule_names=names, operators=["handwritten"])
    assert oracled.differential_backends == ("engine", "sqlite")
    assert json.loads(oracled.to_json())["config"][
        "differential_backends"
    ] == ["engine", "sqlite"]
    for before, after in zip(plain.outcomes, oracled.outcomes):
        assert set(before.killing_query_ids()) <= set(
            after.killing_query_ids()
        )
        if before.detected("FULL"):
            assert after.detected("FULL")


# --------------------------------------------------- hand-written faults

#: The multi-seed pool that reliably exposes all four injected faults
#: (detection is seed-dependent; see docs/TESTING.md).  Seed 1 joined
#: the calibration with the subquery-unnesting rules: the
#: SemiJoinToDistinctInnerJoin widenings survive the original three
#: seeds' pools but die (one bag mismatch, one crash) on seed 1's.
_KILL_SEEDS = (11, 23, 37, 1)


@pytest.mark.parametrize("rule_name", sorted(ALL_FAULTS))
def test_handwritten_fault_is_killed(tpch_db, registry, rule_name):
    """Satellite check: every fault in ``rules/faults.py`` must be caught
    by the FULL regenerated suite via the CorrectnessRunner oracle, and
    the detection-aware selection at the campaign's own k=2 budget must
    keep the kill (docs/COMPRESSION.md)."""
    from repro.testing.detection import (
        KillMatrix,
        detection_plan,
        score_selection,
    )

    campaign = MutationCampaign(
        tpch_db, registry, pool=8, k=2, seeds=_KILL_SEEDS,
        extra_operators=2,
    )
    report = campaign.run(
        rule_names=[rule_name], operators=["handwritten"]
    )
    (outcome,) = report.outcomes
    assert outcome.status("FULL") == KILLED, (
        f"{rule_name} fault not killed: {outcome.variants['FULL']}"
    )
    matrix = KillMatrix.from_report_dict(report.to_dict())
    selection = detection_plan(matrix, base_k=2, adaptive=True)
    assert score_selection(matrix, selection.selected).survivors == ()


def test_a_plan_that_fails_to_execute_is_its_own_verdict(tpch_db, registry):
    """Under the dropped precondition, four of the 32 pool queries get a
    plan that raises ``KeyError`` while executing.  Those four rows read
    ``error`` and no other does.  FULL selects them and is CRASHED, while
    SMC and TOPK select none of them and survive.  The column id in the
    ``KeyError`` text depends on process history, so it is not pinned."""
    campaign = MutationCampaign(
        tpch_db, registry, pool=8, k=2, seeds=_KILL_SEEDS,
        extra_operators=2,
    )
    report = campaign.run(
        rule_names=["LojPushSelectLeft"], operators=["drop-precondition"]
    )
    (outcome,) = report.outcomes
    assert outcome.mutant_id == "LojPushSelectLeft:drop-precondition"
    assert outcome.pool_size == 32
    errors = [q for q, verdict in outcome.query_verdicts if verdict == "error"]
    assert errors == [16, 19, 21, 28]
    full = outcome.variants["FULL"]
    assert full.status == CRASHED
    assert full.detail.startswith("query 16: KeyError: ")
    for variant in ("SMC", "TOPK"):
        assert outcome.status(variant) == SURVIVED
        assert not set(outcome.variants[variant].query_ids) & set(errors)


# ------------------------------------------------------- full-size scoring

#: The 111 FULL statuses of the full campaign, by mutant id: RECORDED by
#: running ``test_full_campaign_meets_detection_bar`` and copying the file
#: it writes (``--basetemp=DIR`` puts it at ``DIR/full_campaign/``) here.
FULL_CAMPAIGN_STATUSES = (
    Path(__file__).parent / "data" / "full_campaign_statuses.json"
)


@pytest.mark.mutation
def test_full_campaign_meets_detection_bar(
    tpch_db, registry, tmp_path_factory
):
    """The acceptance bar: the FULL suite detects >= 90% of the
    expected-detectable mutants, and the compressed suites' scores are
    reported relative to it and pinned (long-running; CI mutation job).
    Every mutant's FULL status is the recorded one: a change that moves
    some names them, and says so in EXPERIMENTS.md when it re-records."""
    campaign = MutationCampaign(
        tpch_db, registry, pool=8, k=2, seeds=_KILL_SEEDS,
        extra_operators=2,
    )
    report = campaign.run()
    found = {o.mutant_id: o.status("FULL") for o in report.outcomes}
    found_path = (
        tmp_path_factory.mktemp("full_campaign", numbered=False)
        / FULL_CAMPAIGN_STATUSES.name
    )
    found_path.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    score = report.detection_score("FULL")
    survivors = report.surviving_ids("FULL")
    assert score is not None and score >= 0.9, (
        f"FULL detection {score:.0%}; survivors: {survivors}"
    )
    for variant in ("SMC", "TOPK"):
        relative = report.relative_score(variant)
        assert relative is not None and relative <= 1.0 + 1e-9
    # The compressed suites' detections, which EXPERIMENTS.md cites: a
    # crash counts for a variant only if it selected the failing query.
    expected = report.expected()
    detected = {
        variant: sum(1 for o in expected if o.detected(variant))
        for variant in VARIANTS
    }
    assert (len(expected), detected) == (
        42, {"FULL": 39, "SMC": 8, "TOPK": 7}
    )
    # curation honesty: the oracle should not catch mutants we declared
    # undetectable -- those notes would be stale.
    assert report.unexpected_detections("FULL") == []
    recorded = json.loads(FULL_CAMPAIGN_STATUSES.read_text())
    moved = {
        mutant_id: (recorded.get(mutant_id), found.get(mutant_id))
        for mutant_id in sorted(set(recorded) | set(found))
        if recorded.get(mutant_id) != found.get(mutant_id)
    }
    assert not moved, (
        f"FULL statuses moved, (recorded, found): {moved}; "
        f"the found ones are in {found_path}"
    )


# ------------------------------------------- the fleet, folded into verdicts

#: The clean rule fires on four of the first five trees of seed 11's first
#: attempt, on which the mutated build fired on none of 25.
_NO_FIRE_WITNESSES = (
    "96581b3946ea", "da462c101895", "467ea0721b09", "c4708f9f7cf4",
)
_NO_FIRE_PROBES = 5
_NO_FIRE_DETAIL = (
    "AvgToSumDivCount fired on none of the 25 trees of a generation "
    "attempt (seed 11); the clean build's rule fires on 4 of them: "
    + ", ".join(_NO_FIRE_WITNESSES)
)
#: ``(status, query_ids, detail)`` per variant, ``query_verdicts`` and
#: ``query_costs`` of the four ``bench/workloads/mutation_sample.py``
#: mutants, in its order.  The KILLED row was RECORDED AT d6887f1 (when the
#: fleet's verdict was an exact ``Counter`` comparison), the SURVIVED one AT
#: 9f02f63 (the last commit whose ``digest_rows`` hashed row by row), where
#: both read the same; the EQUIVALENT row with the generator's bound on a
#: drawn tree's estimated result (``MAX_RESULT_CELLS``: at 4c48e70 its first
#: draw was a 46,713 x 31-cell self-join, costs 690.178616 / 12.090593 /
#: 4.391111 / 6.243687 and SMC = TOPK = (2, 3)); ``_NO_FIRE_DETAIL``
#: and ``RECORDED_SAMPLE_STATS`` with the NO_FIRE verdict against the clean
#: build (at 22b1908 the detail was "could not generate 4 distinct queries
#: for ('AvgToSumDivCount',) within 30 attempts" and the counts 810
#: requests / 774 computed): each time by running the body of the
#: ``sample`` fixture there.
RECORDED_FLEET_OUTCOMES = {
    "JoinCommutativity:widen-join-kind:j0+left-outer": {
        "pool_size": 4,
        "variants": {
            "FULL": (
                "KILLED", (0, 1, 2, 3),
                "query 3: rows: 88 vs 38; 57 rows only in first, e.g. "
                "(None, None, None, None, 1, 'yrgnbpls', 'sloivrtx', "
                "'fczrzibv', None, 102, 720.05); 7 rows only in second, "
                "e.g. (1, 'bxjegbjc', 3, None, None, None, None, None, "
                "None, None, None)",
            ),
            "SMC": ("SURVIVED", (1, 2), ""),
            "TOPK": ("SURVIVED", (1, 2), ""),
        },
        "query_verdicts": (
            (0, "equal"), (1, "equal"), (2, "identical"), (3, "mismatch"),
        ),
        "query_costs": (
            (0, 1646.7), (1, 3.85), (2, 2.698289), (3, 5.190556),
        ),
    },
    "AvgToSumDivCount:skip-substitute": {
        "pool_size": 0,
        "variants": {
            name: ("NO_FIRE", (), _NO_FIRE_DETAIL) for name in VARIANTS
        },
        "query_verdicts": (),
        "query_costs": (),
    },
    "JoinRightAssociativity:drop-conjunct": {
        "pool_size": 4,
        "variants": {
            "FULL": ("EQUIVALENT", (0, 1, 2, 3), ""),
            "SMC": ("EQUIVALENT", (1, 2), ""),
            "TOPK": ("EQUIVALENT", (1, 2), ""),
        },
        "query_verdicts": (
            (0, "identical"), (1, "identical"), (2, "identical"),
            (3, "identical"),
        ),
        "query_costs": (
            (0, 28.862233), (1, 9.21), (2, 4.3265), (3, 41.150559),
        ),
    },
    "LojPushSelectLeft:drop-precondition": {
        "pool_size": 4,
        "variants": {
            "FULL": ("SURVIVED", (0, 1, 2, 3), ""),
            "SMC": ("SURVIVED", (1, 3), ""),
            "TOPK": ("SURVIVED", (1, 3), ""),
        },
        "query_verdicts": (
            (0, "equal"), (1, "identical"), (2, "equal"), (3, "equal"),
        ),
        "query_costs": (
            (0, 72.051), (1, 25.517801), (2, 587.344), (3, 15.2355),
        ),
    },
}
#: The campaign's cumulative service counters after the four mutants: the
#: per-mutant services' plus the clean build's probes (25 failed trials and
#: ``_NO_FIRE_PROBES`` probes are the NO_FIRE mutant's share).  One edge
#: cost comes from ``Plan(q)``'s lineage, so the runner computes that ¬R
#: plan itself, in one more batch, instead of finding the oracle's result
#: in memory: the optimizer still runs 54 times.
RECORDED_SAMPLE_STATS = {
    "requests": 90, "memory_hits": 35, "disk_hits": 0, "hits": 35,
    "lineage_hits": 1, "computed": 54, "errors": 0, "batches": 7,
    "parallel_tasks": 0, "pool_fallbacks": 0,
}


def _sample_campaign(tpch_db, registry, **options):
    """One ``bench/workloads/mutation_sample.py`` campaign."""
    return MutationCampaign(
        tpch_db, registry, pool=4, k=2, seeds=(11,), extra_operators=2,
        differential_backends=("engine", "sqlite"), **options,
    )


def _outcome_row(report):
    """The one outcome of ``report`` in ``RECORDED_FLEET_OUTCOMES`` form."""
    (outcome,) = report.outcomes
    return outcome.mutant_id, {
        "pool_size": outcome.pool_size,
        "variants": {
            name: (cell.status, cell.query_ids, cell.detail)
            for name, cell in outcome.variants.items()
        },
        "query_verdicts": outcome.query_verdicts,
        "query_costs": outcome.query_costs,
    }


@pytest.fixture(scope="module")
def sample(tpch_db, registry):
    """The four-mutant sample on one campaign, one ``run`` per mutant as
    the bench drives it: ``(outcome rows by mutant id, service_stats, the
    pools' trees)``."""
    campaign = _sample_campaign(tpch_db, registry)
    build_pool = campaign._build_pool
    pool_trees = []

    def keep_trees(*arguments):
        built = build_pool(*arguments)
        pool_trees.extend(query.tree for query in built[0])
        return built

    campaign._build_pool = keep_trees
    rows = {}
    for mutant_id in RECORDED_FLEET_OUTCOMES:
        rule_name, operator = mutant_id.split(":")[:2]
        report = campaign.run(rule_names=[rule_name], operators=[operator])
        found, row = _outcome_row(report)
        rows[found] = row
    return rows, report.service_stats, pool_trees


@pytest.mark.parametrize("mutant_id", sorted(RECORDED_FLEET_OUTCOMES))
def test_fleet_outcomes_match_the_recorded_ones(sample, mutant_id):
    rows, _, _ = sample
    assert rows[mutant_id] == RECORDED_FLEET_OUTCOMES[mutant_id]


def test_sample_asks_the_service_what_it_asked_at_the_recording(sample):
    rows, service_stats, _ = sample
    assert list(rows) == list(RECORDED_FLEET_OUTCOMES)
    assert service_stats == RECORDED_SAMPLE_STATS


def test_sample_pools_are_within_the_result_bound(sample, estimated_cells):
    """No oracle is handed a query estimated over ``MAX_RESULT_CELLS``: the
    three mutants that have a pool have four queries each."""
    _, _, pool_trees = sample
    assert len(pool_trees) == 12
    assert max(map(estimated_cells, pool_trees)) <= MAX_RESULT_CELLS


def test_a_fleet_that_raised_is_recorded_not_folded(
    tpch_db, registry, monkeypatch
):
    """A fleet member that raises (not a ``BackendError`` its ``run_many``
    would record) takes the whole second oracle down: the verdicts are
    the correctness runner's alone -- here the recorded ones, the fleet
    adds nothing to this mutant -- and the failure is visible on the
    mutant, in its artifact row and in both reports."""
    from repro.backends.sqlite_backend import SqliteBackend

    def run_many(self, requests):
        raise TypeError("unhashable type: 'list'")

    monkeypatch.setattr(SqliteBackend, "run_many", run_many)
    tracer = RecordingTracer()
    report = _sample_campaign(tpch_db, registry, tracer=tracer).run(
        rule_names=["JoinCommutativity"], operators=["widen-join-kind"]
    )
    mutant_id, row = _outcome_row(report)
    assert row == RECORDED_FLEET_OUTCOMES[mutant_id]
    error = "TypeError: unhashable type: 'list'"
    assert report.outcomes[0].fleet_error == error
    (artifact_row,) = report.to_dict()["mutants"]
    assert artifact_row["fleet_error"] == error
    assert f"FLEET ERROR: {mutant_id}: {error}" in report.to_text()
    assert f"- fleet error on `{mutant_id}`" in report.to_markdown()
    (event,) = [
        event for event in tracer.events
        if event.name == "mutation.fleet_error"
    ]
    assert event.args == (("error", "TypeError"),)


def test_per_mutant_services_carry_the_campaign_tracer(tpch_db, registry):
    """A traced campaign sees its mutants' optimizer work: each
    computation of the per-mutant service leaves a ``service.compute``
    span.  The clean build is never asked for this mutant, so every span
    is the mutant's service's."""
    tracer = RecordingTracer(detail="summary")
    campaign = _sample_campaign(tpch_db, registry, tracer=tracer)
    report = campaign.run(
        rule_names=["JoinCommutativity"], operators=["widen-join-kind"]
    )
    assert campaign._clean is None
    computes = [e for e in tracer.events if e.name == "service.compute"]
    assert computes
    assert len(computes) == report.service_stats["computed"]


def test_fleet_reuses_the_digest_the_correctness_runner_computed(
    tpch_db, registry, monkeypatch
):
    """A pool query whose ``Plan(q)`` the correctness runner executed and
    compared reaches the fleet's engine member out of the execution cache,
    digest included: the fleet digests only sqlite's rows for it, and
    never builds the engine result's rows."""
    import repro.backends.base as backends_base
    import repro.engine.digest as engine_digest
    from repro.testing.differential import DifferentialRunner

    digest_columns = engine_digest.digest_columns
    digest_rows, fleet_run = backends_base.digest_rows, DifferentialRunner.run
    digested = []  # (inside the fleet?, columns or rows) per digest
    in_fleet = []
    fleet_reports = []

    def spy_columns(data, length):
        digested.append((bool(in_fleet), data))
        return digest_columns(data, length)

    def spy_rows(rows):
        digested.append((bool(in_fleet), rows))
        return digest_rows(rows)

    def run(self, suite, suite_info=None):
        in_fleet.append(True)
        try:
            fleet_reports.append(fleet_run(self, suite, suite_info))
        finally:
            in_fleet.pop()
        return fleet_reports[-1]

    # QueryResult.bag_digest looks the function up in its module at call
    # time; BackendRun.record uses the name base.py imported.
    monkeypatch.setattr(engine_digest, "digest_columns", spy_columns)
    monkeypatch.setattr(backends_base, "digest_rows", spy_rows)
    monkeypatch.setattr(DifferentialRunner, "run", run)

    metrics = MetricsRegistry()
    report = _sample_campaign(tpch_db, registry, metrics=metrics).run(
        rule_names=["JoinCommutativity"], operators=["widen-join-kind"]
    )
    (outcome,) = report.outcomes
    (fleet_report,) = fleet_reports
    compared = [
        query_id for query_id, verdict in outcome.query_verdicts
        if verdict == "equal"
    ]
    assert compared == [0, 1]
    assert metrics.counter_value("exec.cache_hits") >= len(compared)

    def digests_of(seen_data, in_fleet):
        return sum(
            1 for inside, seen in digested
            if seen is seen_data and inside == in_fleet
        )

    for query_id in compared:
        runs = fleet_report.runs[query_id]
        engine_result = runs["engine"].source
        assert digests_of(engine_result.data, in_fleet=False) == 1
        assert digests_of(engine_result.data, in_fleet=True) == 0
        assert engine_result._rows is None
        assert digests_of(runs["sqlite"].source, in_fleet=True) == 1
        assert runs["engine"].digest == runs["sqlite"].digest


def _mutated_registry(registry, rule_name, operator):
    (mutant,) = generate_mutants(registry, [rule_name], [operator])
    return registry.with_replaced_rule(mutant.build())


def test_failed_trials_stop_after_exploration(tpch_db, registry):
    """The bench's NO_FIRE mutant: one attempt of 25 trials, none
    exercising the mutated rule (750 of them at ``22b1908``, before the
    verdict against the clean build), each stopped after exploration --
    at ``f5f77a9`` each was a full optimization.  Only the clean build's
    witnesses are costed; it counts into its own registry here."""
    metrics, clean_metrics = MetricsRegistry(), MetricsRegistry()
    campaign = _sample_campaign(tpch_db, registry, metrics=metrics)
    campaign._clean = PlanService(
        tpch_db, registry=registry, cache_dir=None, metrics=clean_metrics
    )
    report = campaign.run(
        rule_names=["AvgToSumDivCount"], operators=["skip-substitute"]
    )
    (outcome,) = report.outcomes
    assert outcome.mutant_id == "AvgToSumDivCount:skip-substitute"
    assert outcome.pool_size == 0
    assert {
        name: (cell.status, cell.query_ids, cell.detail)
        for name, cell in outcome.variants.items()
    } == {name: (NO_FIRE, (), _NO_FIRE_DETAIL) for name in VARIANTS}
    assert (outcome.query_verdicts, outcome.query_costs) == ((), ())
    asked = 25 + _NO_FIRE_PROBES
    assert report.service_stats == {
        "requests": asked, "memory_hits": 0, "disk_hits": 0, "hits": 0,
        "lineage_hits": 0, "computed": asked, "errors": 0, "batches": 0,
        "parallel_tasks": 0, "pool_fallbacks": 0,
    }
    value = metrics.counter_value
    assert value("optimizer.unexercised") == 25
    assert value("optimizer.optimizations") == 25
    assert value("optimizer.rule_applications") == 412
    assert value("optimizer.costings") == 0
    clean = clean_metrics.counter_value
    assert clean("optimizer.optimizations") == _NO_FIRE_PROBES
    assert clean("optimizer.unexercised") == (
        _NO_FIRE_PROBES - len(_NO_FIRE_WITNESSES)
    )
    assert clean("optimizer.costings") > 0


# ------------------------------------- NO_FIRE, against the clean build

def test_no_fire_names_witnesses_that_replay_on_both_builds(
    tpch_db, registry, monkeypatch
):
    """The detail names how many trees witnessed the verdict and which;
    each, replayed on fresh services, has the rule in ``RuleSet(q)`` of
    the clean build and not of the mutated one.  Counted and traced."""
    asked = {}  # fingerprint prefix -> tree, over every trial and probe
    optimize_exercising = PlanService.optimize_exercising

    def spy(self, tree, targets, config=None):
        asked[tree.fingerprint()[:12]] = tree
        return optimize_exercising(self, tree, targets, config)

    metrics, tracer = MetricsRegistry(), RecordingTracer()
    with monkeypatch.context() as patch:
        patch.setattr(PlanService, "optimize_exercising", spy)
        report = _sample_campaign(
            tpch_db, registry, metrics=metrics, tracer=tracer
        ).run(rule_names=["AvgToSumDivCount"], operators=["skip-substitute"])
    detail = report.outcomes[0].variants["FULL"].detail
    assert detail == _NO_FIRE_DETAIL
    (event,) = [e for e in tracer.events if e.name == "mutation.no_fire"]
    assert dict(event.args) == {
        "seed": 11, "trials": 25, "witnesses": 4,
        "fingerprints": ",".join(_NO_FIRE_WITNESSES),
    }

    node = ("AvgToSumDivCount",)
    clean = PlanService(tpch_db, registry=registry, cache_dir=None)
    mutated = PlanService(
        tpch_db, cache_dir=None,
        registry=_mutated_registry(registry, *node, "skip-substitute"),
    )
    for fingerprint in _NO_FIRE_WITNESSES:
        tree = asked[fingerprint]
        assert node[0] in clean.optimize_exercising(tree, node).rules_exercised
        assert mutated.optimize_exercising(tree, node) is None
        assert node[0] not in mutated.optimize(tree).rules_exercised


#: The NO_FIRE detail of a rule that fired in none of 3 attempts.
_EXHAUSTED_3 = (
    "could not generate 4 distinct queries for ('AvgToSumDivCount',) "
    "within 3 attempts"
)


def test_clean_rule_not_firing_either_keeps_full_persistence(
    tpch_db, registry
):
    """A mutant whose clean rule does not fire either: the clean build
    yields no witness, every attempt is made and the detail is the
    exhaustion one."""
    never_fires = _mutated_registry(
        registry, "AvgToSumDivCount", "skip-substitute"
    )
    metrics, tracer = MetricsRegistry(), RecordingTracer()
    campaign = MutationCampaign(
        tpch_db, never_fires, pool=4, k=2, seeds=(11,), extra_operators=2,
        max_trials=3, metrics=metrics, tracer=tracer,
    )
    report = campaign.run(
        rule_names=["AvgToSumDivCount"], operators=["skip-substitute"]
    )
    assert {
        (cell.status, cell.detail)
        for cell in report.outcomes[0].variants.values()
    } == {(NO_FIRE, _EXHAUSTED_3)}
    # 3 attempts x 25 trials, and the same trees once more on the clean
    # service, each a *no*.
    assert metrics.counter_value("optimizer.unexercised") == 2 * 3 * 25
    assert campaign._clean.counters.computed == 3 * 25
    # The services trace their requests; the campaign itself saw nothing.
    assert not [e for e in tracer.events if e.name.startswith("mutation.")]


def test_an_admission_candidate_asks_no_clean_build(tpch_db, registry):
    """The admission gate's shape: the candidate *is* the registry's
    rule, so the clean build is the candidate's own and is never asked;
    where the candidate does not fire, each failed trial runs once."""
    never_fires = _mutated_registry(
        registry, "AvgToSumDivCount", "skip-substitute"
    )
    metrics = MetricsRegistry()
    campaign = MutationCampaign(
        tpch_db, never_fires, pool=4, k=2, seeds=(11,), extra_operators=2,
        max_trials=3, metrics=metrics,
    )
    outcome = campaign.evaluate_rule(never_fires.rule("AvgToSumDivCount"))
    assert {
        (cell.status, cell.detail) for cell in outcome.variants.values()
    } == {(NO_FIRE, _EXHAUSTED_3)}
    assert metrics.counter_value("optimizer.unexercised") == 3 * 25
    assert campaign._clean is None


class _Unwritten(JoinCommutativity):
    def substitute(self, binding, ctx):
        raise NotImplementedError("substitute not written")


class _Bottomless(JoinCommutativity):
    def substitute(self, binding, ctx):
        return self.substitute(binding, ctx)


@pytest.mark.parametrize("rule, detail", [
    (_Unwritten, "NotImplementedError: substitute not written"),
    (_Bottomless, "RecursionError: maximum recursion depth exceeded"),
])
def test_a_rule_that_raises_while_generating_crashed(
    tpch_db, registry, rule, detail
):
    """Only generation giving up is NO_FIRE: a rule whose ``substitute``
    raises (a ``RuntimeError`` subclass included) has crashed."""
    candidate = rule()
    campaign = MutationCampaign(
        tpch_db, registry.with_replaced_rule(candidate), pool=2, k=1,
        seeds=(11,), extra_operators=2,
    )
    outcome = campaign.evaluate_rule(candidate)
    assert {cell.status for cell in outcome.variants.values()} == {CRASHED}
    assert outcome.status("FULL") == CRASHED
    assert outcome.variants["FULL"].detail.startswith(detail)
    assert outcome.pool_size == 0


def test_a_mutant_that_fires_less_is_not_flagged(tpch_db, registry):
    """A rule with a second alternative on some bindings: its
    ``skip-substitute`` mutant fires on fewer trees than the clean rule
    (19 of the 23 trials that reach the optimizer fail -- two more draws
    are over ``MAX_RESULT_CELLS`` and never get there, 21 of 25 at 4c48e70)
    but fills its pool, so no attempt fails wholly and the clean build is
    never asked.  Row RECORDED AT 22b1908 by running this body there."""
    from repro.expr.expressions import conjuncts

    class RepeatOnConjunction(type(registry.rule("JoinCommutativity"))):
        def substitute(self, binding, ctx):
            for alternative in super().substitute(binding, ctx):
                yield alternative
                if len(conjuncts(binding.predicate)) >= 2:
                    yield alternative

    metrics, tracer = MetricsRegistry(), RecordingTracer(detail="summary")
    campaign = MutationCampaign(
        tpch_db, registry.with_replaced_rule(RepeatOnConjunction()),
        pool=4, k=2, seeds=(11,), extra_operators=2, metrics=metrics,
        tracer=tracer,
    )
    report = campaign.run(
        rule_names=["JoinCommutativity"], operators=["skip-substitute"]
    )
    assert _outcome_row(report) == (
        "JoinCommutativity:skip-substitute", {
            "pool_size": 4,
            "variants": {
                "FULL": ("SURVIVED", (0, 1, 2, 3), ""),
                "SMC": ("EQUIVALENT", (0, 3), ""),
                "TOPK": ("EQUIVALENT", (0, 3), ""),
            },
            "query_verdicts": (
                (0, "identical"), (1, "identical"), (2, "equal"),
                (3, "identical"),
            ),
            "query_costs": (
                (0, 16.194879), (1, 33.762), (2, 52.607383), (3, 4.2746),
            ),
        },
    )
    assert metrics.counter_value("optimizer.unexercised") == 19
    assert sum(
        e.name == "generation.oversized" for e in tracer.events
    ) == 2
    assert campaign._clean is None
    assert report.service_stats["computed"] == 27  # the two fewer trials


def test_repeated_probes_hit_the_shared_clean_service(tpch_db, registry):
    """One clean service per campaign: the same NO_FIRE mutant evaluated
    again draws the same trees, and the clean build answers from memory."""
    campaign = _sample_campaign(tpch_db, registry)
    names = {"rule_names": ["AvgToSumDivCount"],
             "operators": ["skip-substitute"]}
    campaign.run(**names)
    first = campaign._clean.counters.as_dict()
    assert (first["computed"], first["memory_hits"]) == (_NO_FIRE_PROBES, 0)
    report = campaign.run(**names)
    second = campaign._clean.counters.as_dict()
    assert second["computed"] == _NO_FIRE_PROBES
    assert second["memory_hits"] == _NO_FIRE_PROBES
    assert report.outcomes[0].variants["FULL"].detail == _NO_FIRE_DETAIL
    # Cumulative: two mutated services' 25 trials each, the probes once.
    assert report.service_stats["computed"] == 2 * 25 + _NO_FIRE_PROBES
    assert report.service_stats["memory_hits"] == _NO_FIRE_PROBES


@pytest.mark.parametrize("fleet_raises", [False, True])
def test_every_fleet_backend_is_closed_with_its_mutant(
    tpch_db, registry, monkeypatch, fleet_raises
):
    """One fleet per mutant, a sqlite member being a full in-memory
    mirror: each backend is closed exactly once, also when the run
    raises."""
    from repro.backends.engine import EngineBackend
    from repro.backends.sqlite_backend import SqliteBackend
    from repro.testing.differential import DifferentialRunner

    closed = []  # the backends themselves: ids stay unique
    for backend_cls in (EngineBackend, SqliteBackend):
        close = backend_cls.close

        def spy(self, close=close):
            closed.append(self)
            close(self)

        monkeypatch.setattr(backend_cls, "close", spy)
    if fleet_raises:
        def run(self, suite, suite_info=None):
            raise TypeError("unhashable type: 'list'")

        monkeypatch.setattr(DifferentialRunner, "run", run)
    campaign = _sample_campaign(tpch_db, registry)
    reports = [
        campaign.run(rule_names=[rule_name], operators=[operator])
        for rule_name, operator in (
            ("JoinCommutativity", "widen-join-kind"),
            ("LojPushSelectLeft", "drop-precondition"),
        )
    ]
    assert [type(backend) for backend in closed] == [
        EngineBackend, SqliteBackend
    ] * 2
    assert len(set(map(id, closed))) == 4
    assert all(backend._conn is None for backend in closed[1::2])
    error = "TypeError: unhashable type: 'list'" if fleet_raises else ""
    for report in reports:
        (outcome,) = report.outcomes
        assert outcome.fleet_error == error
        (row,) = report.to_dict()["mutants"]
        assert row.get("fleet_error", "") == error
        # A mutant whose fleet ran has no such key.
        assert ("fleet_error" in row) is fleet_raises


def test_stopped_trials_are_still_sanitized(tpch_db, registry, monkeypatch):
    """The sanitizer checks what substitutions insert into the memo, and a
    trial that stops after exploration has inserted all of it.  Asked for
    through ``MutationCampaign(config=...)``: the pool's generator takes the
    per-mutant service's config (at ``4c48e70`` it sent ``DEFAULT_CONFIG``
    with every trial and nothing was checked).  The clean build gets a
    service that does not sanitize, so every check is a stopped trial's."""
    from repro.analysis.sanitize import PlanSanitizer

    checked = []
    check_group_expr = PlanSanitizer.check_group_expr

    def spy(self, expr, memo, rule_name=None):
        checked.append(rule_name)
        return check_group_expr(self, expr, memo, rule_name)

    monkeypatch.setattr(PlanSanitizer, "check_group_expr", spy)
    campaign = _sample_campaign(
        tpch_db, registry,
        config=DEFAULT_CONFIG.replaced(sanitize_plans=True),
    )
    campaign._clean = PlanService(tpch_db, registry=registry, cache_dir=None)
    report = campaign.run(
        rule_names=["AvgToSumDivCount"], operators=["skip-substitute"]
    )
    assert report.outcomes[0].variants["FULL"].detail == _NO_FIRE_DETAIL
    assert report.service_stats["computed"] == 25 + _NO_FIRE_PROBES
    # Initial expressions (no rule) and substitutes alike.
    assert checked.count(None) >= 25
    assert any(name is not None for name in checked)
