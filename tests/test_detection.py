"""Tests for detection-aware suite compression (repro.testing.detection).

Three layers:

* synthetic kill matrices exercising the greedy multicover, the adaptive
  budget raises, resubstitution vs. leave-one-out scoring, and the
  Pareto frontier -- pure functions, no database;
* the bridge from real campaign artifacts: ``KillMatrix.from_report_dict``
  over the ``repro mutate --format json`` artifact, the one kill-matrix
  file;
* determinism: the Pareto JSON artifact must be byte-identical across
  *fresh interpreter* runs (Column cids are process-global, so this is
  the strongest honest check), and the ``repro mutate`` -> ``repro
  compress`` CLI flow: the one report, its ``--fail-under`` gate over
  the adaptive plan, and its exit code on a matrix it cannot load.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.testing.detection import (
    DetectionError,
    KillMatrix,
    MutantRow,
    cross_validated_scores,
    detection_plan,
    pareto_report,
    score_selection,
)

_REPO = Path(__file__).resolve().parents[1]


def _row(mutant_id, rule, slots, expected=True, uniform=False):
    return MutantRow(
        mutant_id=mutant_id,
        rule=rule,
        operator="op",
        expected_detectable=expected,
        uniform_detected=uniform,
        killing_slots=frozenset(slots),
    )


def _matrix():
    """Two rules, hand-built: R1 has a cheap high-yield slot (0), a slot
    only an unexpected mutant needs (1), a useless slot (2), and an
    expensive slot (3) that alone kills m3.  R2's mutants are one
    unkillable row and one uniform (build-time) detection."""
    return KillMatrix(
        rules=["R1", "R2"],
        slot_costs={"R1": [1.0, 1.0, 2.0, 4.0], "R2": [1.0, 1.0]},
        rows=[
            _row("m1", "R1", {0}),
            _row("m2", "R1", {0, 2}),
            _row("m3", "R1", {3}),
            _row("m4", "R2", set()),
            _row("m5", "R2", set(), uniform=True),
            _row("m6", "R1", {1}, expected=False),
        ],
        config={"k": 2},
    )


class TestGreedySelection:
    def test_highest_kills_per_cost_first(self):
        plan = detection_plan(_matrix(), base_k=2, adaptive=False)
        # slot 0 kills m1+m2 at cost 1 (ratio 2), then slot 1 kills m6
        # (ratio 1); slot 3's ratio is 0.25 and the budget is spent.
        assert plan.selected["R1"] == (0, 1)

    def test_coverage_floor_fills_zero_gain_rules(self):
        plan = detection_plan(_matrix(), base_k=2, adaptive=False)
        # No R2 slot kills anything; the budget still buys the cheapest
        # slots so the paper's k-coverage guarantee is preserved.
        assert plan.selected["R2"] == (0, 1)
        assert plan.budgets == {"R1": 2, "R2": 2}

    def test_budget_clamps_to_pool_size(self):
        plan = detection_plan(_matrix(), base_k=5, adaptive=False)
        assert plan.budgets == {"R1": 4, "R2": 2}
        assert plan.selected["R1"] == (0, 1, 2, 3)

    def test_tie_breaks_toward_the_lower_slot(self):
        matrix = KillMatrix(
            rules=["R"],
            slot_costs={"R": [1.0, 1.0]},
            rows=[_row("m", "R", {0, 1})],
        )
        plan = detection_plan(matrix, base_k=1, adaptive=False)
        assert plan.selected["R"] == (0,)

    def test_resubstitution_score_counts_uniform_detections(self):
        matrix = _matrix()
        plan = detection_plan(matrix, base_k=2, adaptive=False)
        score = score_selection(matrix, plan.selected)
        # m1, m2 via slot 0; m5 uniformly; m3 (slot 3 unselected) and
        # m4 (unkillable) survive; m6 is not expected-detectable.
        assert (score.detected, score.expected) == (3, 5)
        assert score.survivors == ("m3", "m4")
        assert score.rate == pytest.approx(0.6)

    def test_empty_expectation_rate_is_none(self):
        matrix = KillMatrix(
            rules=["R"], slot_costs={"R": [1.0]},
            rows=[_row("m", "R", {0}, expected=False)],
        )
        score = score_selection(matrix, {"R": (0,)})
        assert score.rate is None


class TestAdaptiveK:
    def test_raises_budget_until_marginal_gain_flattens(self):
        matrix = _matrix()
        plan = detection_plan(matrix, base_k=2, adaptive=True)
        # m3 is only killed by slot 3: one raise buys it.  m4 is
        # unkillable, so R2 never raises (the gain is flat at zero).
        assert plan.selected["R1"] == (0, 1, 3)
        assert plan.raises == {"R1": 1}
        assert plan.budgets == {"R1": 3, "R2": 2}
        score = score_selection(matrix, plan.selected)
        assert score.survivors == ("m4",)

    def test_max_k_caps_the_raises(self):
        plan = detection_plan(_matrix(), base_k=2, adaptive=True, max_k=2)
        assert plan.raises == {}
        assert plan.selected["R1"] == (0, 1)

    def test_adaptive_converges_on_a_spread_out_matrix(self):
        # Every mutant needs its own slot: adaptive must walk the budget
        # all the way up and then stop (no infinite loop, full kill).
        matrix = KillMatrix(
            rules=["R"],
            slot_costs={"R": [1.0, 2.0, 3.0, 4.0]},
            rows=[_row(f"m{i}", "R", {i}) for i in range(4)],
        )
        plan = detection_plan(matrix, base_k=1, adaptive=True)
        assert plan.selected["R"] == (0, 1, 2, 3)
        assert plan.raises == {"R": 3}
        assert score_selection(matrix, plan.selected).survivors == ()


class TestCrossValidation:
    def test_loo_drops_mutants_whose_slot_has_no_other_evidence(self):
        cross = cross_validated_scores(_matrix(), base_k=2, adaptive=True)
        # Without m3's own row nothing motivates slot 3, so m3 survives
        # the leave-one-out pass; slot 0 keeps m1/m2 via each other.
        assert cross.survivors == ("m3", "m4")
        assert (cross.detected, cross.expected) == (3, 5)

    def test_loo_never_exceeds_resubstitution(self):
        matrix = _matrix()
        plan = detection_plan(matrix, base_k=2, adaptive=True)
        resub = score_selection(matrix, plan.selected)
        cross = cross_validated_scores(matrix, base_k=2, adaptive=True)
        assert cross.detected <= resub.detected


class TestParetoReport:
    def test_sweep_points_and_frontier(self):
        report = pareto_report(
            _matrix(), ks=(1, 2), base_k=2, cross_validate=False
        )
        labels = [point.label for point in report.points]
        assert labels == [
            "detection-k1", "detection-k2", "detection-adaptive-k2",
            "full",
        ]
        frontier = report.frontier
        assert frontier, "some point must be undominated"
        for point in frontier:
            dominated = any(
                other.cost <= point.cost
                and other.detection_rate >= point.detection_rate
                and (
                    other.cost < point.cost
                    or other.detection_rate > point.detection_rate
                )
                for other in report.points if other is not point
            )
            assert not dominated

    def test_full_point_is_the_detection_ceiling(self):
        report = pareto_report(_matrix(), ks=(1,), cross_validate=False)
        full = report.point("full")
        assert full.queries == 6
        assert full.detection_rate == max(
            point.detection_rate for point in report.points
        )

    def test_default_budgets_stop_at_the_widest_rule(self):
        # ks=None sweeps 1, 2, 3, 4 and 6; R1 has four slots, so k=6
        # selects nothing k=4 does not and is left out.
        report = pareto_report(_matrix(), cross_validate=False)
        assert [
            point.label for point in report.points if not point.adaptive
            and point.objective == "detection"
        ] == ["detection-k1", "detection-k2", "detection-k3", "detection-k4"]

    def test_markdown_and_json_render(self):
        report = pareto_report(_matrix(), ks=(1, 2), cross_validate=True)
        markdown = report.to_markdown()
        assert "| detection-adaptive-k2 |" in markdown
        assert "Leave-one-out" in markdown
        assert "| R1 | 3 | 0, 1, 3 |" in markdown
        payload = json.loads(report.to_json())
        assert payload["cross_validated"]["expected"] == 5
        assert len(payload["points"]) == 4
        # the adaptive plan the report recommends: budgets, slots, raises
        plan = payload["plan"]
        assert plan["budgets"] == {"R1": 3, "R2": 2}
        assert plan["selected"] == {"R1": [0, 1, 3], "R2": [0, 1]}
        assert plan["raises"] == {"R1": 1}
        assert plan["score"]["survivors"] == ["m4"]
        text = report.to_text()
        assert "(4/5), budget raises: R1+1" in text
        assert "SURVIVOR: m4" in text


def _payload():
    """A miniature ``repro mutate --format json`` artifact."""
    def variants(status, queries):
        return {
            variant: {"status": status, "queries": queries, "detail": ""}
            for variant in ("FULL", "SMC", "TOPK")
        }

    return {
        "config": {"k": 1, "pool": 2, "seeds": [3]},
        "summary": {
            "SMC": {"detection_score": 0.5, "survivors": ["R1:b"]},
            "TOPK": {"detection_score": 1.0, "survivors": []},
        },
        "mutants": [
            {
                "id": "R1:a", "rule": "R1", "operator": "a",
                "expected_detectable": True,
                "variants": variants("KILLED", [0]),
                "query_verdicts": [[0, "mismatch"], [1, "identical"]],
                "query_costs": [[0, 10.0], [1, 30.0]],
            },
            {
                "id": "R1:b", "rule": "R1", "operator": "b",
                "expected_detectable": True,
                "variants": variants("CRASHED", []),
                "query_verdicts": [],
                "query_costs": [],
            },
            {
                "id": "R1:c", "rule": "R1", "operator": "c",
                "expected_detectable": True,
                "variants": variants("SURVIVED", [0]),
                "query_verdicts": [[0, "identical"], [1, "identical"]],
                "query_costs": [[0, 10.0], [1, 30.0]],
            },
        ],
    }


class TestKillMatrixFromReport:
    def test_distills_slots_costs_and_uniform_rows(self):
        matrix = KillMatrix.from_report_dict(_payload())
        assert matrix.rules == ["R1"]
        assert matrix.slot_costs == {"R1": [10.0, 30.0]}
        killed, crashed, survived = matrix.rows
        assert not survived.coverable
        assert killed.killing_slots == frozenset({0})
        assert not killed.uniform_detected
        assert crashed.uniform_detected  # empty pool + CRASHED
        assert crashed.coverable

    def test_rejects_verdict_free_reports(self):
        stale = _payload()
        for mutant in stale["mutants"]:
            mutant["query_verdicts"] = []
        with pytest.raises(DetectionError):
            KillMatrix.from_report_dict(stale)

    def test_from_live_report(self, tpch_db, registry):
        from repro.testing.mutation import MutationCampaign

        campaign = MutationCampaign(
            tpch_db, registry, pool=3, k=1, seeds=(3,),
            extra_operators=2, max_trials=10,
        )
        report = campaign.run(
            rule_names=["DistinctRemoveOnKey"], operators=["handwritten"]
        )
        matrix = KillMatrix.from_report_dict(report.to_dict())
        assert matrix.rules == ["DistinctRemoveOnKey"]
        (outcome,) = report.outcomes
        (row,) = matrix.rows
        # The matrix row must agree with the campaign's own verdicts.
        assert row.killing_slots == frozenset(outcome.killing_query_ids())
        plan = detection_plan(matrix, base_k=1)
        score = score_selection(matrix, plan.selected)
        full = score_selection(
            matrix, {rule: tuple(range(matrix.slot_count(rule)))
                     for rule in matrix.rules},
        )
        assert score.detected == full.detected


# Fresh interpreter: bound Column ids are process-global, so byte-identity
# of campaign-derived artifacts only holds between clean processes.
_PARETO_SCRIPT = """
from repro.rules.registry import default_registry
from repro.testing.detection import KillMatrix, pareto_report
from repro.testing.mutation import MutationCampaign
from repro.workloads import tpch_database

database = tpch_database(seed=1)
registry = default_registry()
campaign = MutationCampaign(
    database, registry, pool=3, k=1, seeds=(3,), extra_operators=2,
    max_trials=10,
)
report = campaign.run(
    rule_names=["DistinctRemoveOnKey", "JoinCommutativity"],
    operators=["handwritten", "skip-substitute"],
)
payload = report.to_dict()
matrix = KillMatrix.from_report_dict(payload)
pareto = pareto_report(matrix, report=payload, ks=(1, 2), base_k=1)
print(pareto.to_json())
"""


def _pareto_artifact() -> str:
    completed = subprocess.run(
        [sys.executable, "-c", _PARETO_SCRIPT],
        capture_output=True,
        text=True,
        cwd=_REPO,
        env={"PYTHONPATH": str(_REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_pareto_artifact_is_byte_identical_across_processes():
    first = _pareto_artifact()
    second = _pareto_artifact()
    assert first == second
    payload = json.loads(first)
    assert any(point["frontier"] for point in payload["points"])


class TestCompressCli:
    def _write_matrix(self, tmp_path) -> str:
        path = tmp_path / "kill.json"
        path.write_text(json.dumps(_payload()))
        return str(path)

    def test_fail_under_gates_the_adaptive_point(self, tmp_path, capsys):
        from repro.cli import main

        matrix = self._write_matrix(tmp_path)
        report = pareto_report(
            KillMatrix.from_report_dict(_payload()), report=_payload(),
            cross_validate=False,
        )
        rate = report.point("detection-adaptive-k2").detection_rate
        assert rate == report.score.rate == pytest.approx(2 / 3)
        for threshold, code in ((rate - 0.01, 0), (rate + 0.01, 1)):
            assert main([
                "compress", "--matrix", matrix, "--no-cross-validate",
                "--fail-under", str(threshold),
            ]) == code
        assert "below --fail-under" in capsys.readouterr().out

    def test_json_output_is_the_pareto_report(self, tmp_path, capsys):
        from repro.cli import main

        matrix = self._write_matrix(tmp_path)
        out = tmp_path / "pareto.json"
        assert main([
            "compress", "--matrix", matrix, "--format", "json",
            "--output", str(out),
        ]) == 0
        expected = pareto_report(
            KillMatrix.from_report_dict(_payload()), report=_payload()
        )
        assert out.read_text() == expected.to_json() + "\n"
        # the text table is still echoed
        assert expected.to_text() in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "{}", "[]", '{"mutants": [1]}',
        json.dumps({k: v for k, v in _payload().items() if k != "summary"}),
    ], ids=["empty", "list", "bad-mutant", "no-summary"])
    def test_unreadable_matrix_is_a_usage_error(self, tmp_path, text):
        from repro.cli import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text(text)
        assert main([
            "compress", "--matrix", str(bogus),
        ]) == 2

    @pytest.mark.parametrize("options, message", [
        (["--pool", "2", "--k", "3"], "cannot exceed pool=2"),
        (["--differential", "sqlite,engine"], "reference backend must be"),
    ], ids=["k-above-pool", "fleet-not-led-by-engine"])
    def test_mutate_refuses_a_campaign_it_cannot_build(
        self, capsys, options, message
    ):
        from repro.cli import main

        assert main([
            "--seed", "1", "--workers", "1", "mutate",
            "--rule-names", "DistinctRemoveOnKey", *options,
        ]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_mutate_writes_the_matrix_compress_reads(self, tmp_path):
        from repro.cli import main

        kill = tmp_path / "kill.json"
        assert main([
            "--seed", "1", "--workers", "1", "mutate",
            "--rule-names", "DistinctRemoveOnKey",
            "--operators", "handwritten", "--pool", "2", "--k", "1",
            "--extra-operators", "2", "--differential", "engine,sqlite",
            "--format", "json", "--output", str(kill),
        ]) == 0
        payload = json.loads(kill.read_text())
        assert payload["config"]["differential_backends"] == [
            "engine", "sqlite"
        ]
        assert main([
            "compress", "--matrix", str(kill), "--base-k", "1",
            "--no-cross-validate",
        ]) == 0

    def test_mutate_matrix_does_not_depend_on_workers(
        self, tmp_path, monkeypatch
    ):
        """Per-mutant services fan their batches over forked workers at
        ``--workers 2``; the kill matrix is the in-process one, byte for
        byte."""
        from repro.cli import main
        from repro.service import worker

        mapped = []
        pool_map = worker.WorkerPool.map

        def spy(pool, tasks):
            mapped.append(len(tasks))
            return pool_map(pool, tasks)

        monkeypatch.setattr(worker.WorkerPool, "map", spy)
        matrices = []
        for workers in ("1", "2"):
            kill = tmp_path / f"kill-{workers}.json"
            assert main([
                "--seed", "1", "--workers", workers, "--no-cache", "mutate",
                "--rules", "8", "--sample", "4", "--pool", "4", "--k", "2",
                "--format", "json", "--output", str(kill),
            ]) == 0
            matrices.append(kill.read_bytes())
            if workers == "1":
                assert mapped == []
        assert mapped  # the second campaign went through the pool
        assert matrices[0] == matrices[1]
