"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.service.cache import LOG_NAME


class TestInformational:
    def test_ddl(self, capsys):
        assert main(["ddl"]) == 0
        out = capsys.readouterr().out
        assert "CREATE TABLE lineitem" in out
        assert "rows" in out

    def test_star_database_flag(self, capsys):
        assert main(["--database", "star", "ddl"]) == 0
        out = capsys.readouterr().out
        assert "CREATE TABLE sales" in out

    def test_rules_listing(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "JoinCommutativity" in out
        assert "GetToTableScan" in out

    def test_rules_with_patterns(self, capsys):
        assert main(["rules", "--patterns"]) == 0
        out = capsys.readouterr().out
        assert '<Operator kind="Join"' in out


class TestGenerate:
    def test_pattern_generation(self, capsys):
        assert main(["generate", "--rule", "JoinCommutativity"]) == 0
        out = capsys.readouterr().out
        assert "trials:" in out
        assert "sql: SELECT" in out

    def test_pair_generation(self, capsys):
        code = main(
            ["generate", "--rule", "JoinCommutativity",
             "--pair", "SelectMerge"]
        )
        assert code == 0
        assert "JoinCommutativity + SelectMerge" in capsys.readouterr().out

    def test_extra_operators(self, capsys):
        assert main(
            ["generate", "--rule", "SelectMerge", "--extra-operators", "4"]
        ) == 0

    def test_failure_exit_code(self, capsys):
        code = main(
            ["generate", "--rule", "GbAggPullAboveJoin",
             "--method", "random", "--max-trials", "1"]
        )
        out = capsys.readouterr().out
        if code == 1:
            assert "FAILED" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--rule", "NoSuchRule"],
            ["generate", "--rule", "JoinCommutativity", "--pair", "NoSuchRule"],
            ["trace", "--rule", "NoSuchRule"],
            ["interaction", "--producer", "NoSuchRule",
             "--consumer", "JoinCommutativity"],
            ["analyze", "--gate", "NoSuchRule"],
            ["optimize", "--sql", "SELECT n_name FROM nation",
             "--disable", "NoSuchRule"],
            ["trace", "--sql", "SELECT n_name FROM nation",
             "--disable", "NoSuchRule"],
        ],
        ids=["generate-rule", "generate-pair", "trace-rule",
             "interaction-producer", "analyze-gate", "optimize-disable",
             "trace-disable"],
    )
    def test_unknown_rule_is_refused(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "no rule named 'NoSuchRule'\n"
        assert captured.out == ""


class TestQueryErrors:
    @pytest.mark.parametrize("command", ["optimize", "trace"])
    @pytest.mark.parametrize(
        "sql, disable, error",
        [
            ("SELEC x", [], "ParseError"),
            ("SELECT nope FROM nation", [], "BindError"),
            ("SELECT n_name FROM nation", ["--disable", "GetToTableScan"],
             "OptimizationError"),
        ],
        ids=["parse", "bind", "no-plan"],
    )
    def test_bad_query_exits_two(self, command, sql, disable, error, capsys):
        assert main([command, "--sql", sql, *disable]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{error}: ")
        assert captured.out == ""


class TestOptimize:
    SQL = (
        "SELECT o_orderkey FROM orders INNER JOIN customer "
        "ON o_custkey = c_custkey WHERE o_totalprice > 100.0"
    )

    def test_optimize_shows_plan_and_ruleset(self, capsys):
        assert main(["optimize", "--sql", self.SQL]) == 0
        out = capsys.readouterr().out
        assert "cost:" in out
        assert "RuleSet(q):" in out
        assert "TableScan(orders)" in out

    def test_optimize_with_disabled_rule(self, capsys):
        assert main(
            ["optimize", "--sql", self.SQL, "--disable", "JoinToHashJoin"]
        ) == 0
        out = capsys.readouterr().out
        assert "HashJoin" not in out

    def test_optimize_execute(self, capsys):
        assert main(["optimize", "--sql", self.SQL, "--execute"]) == 0
        out = capsys.readouterr().out
        assert "actual rows=" in out
        assert "o_orderkey" in out


class TestCampaigns:
    def test_correctness_passes(self, capsys):
        assert main(["correctness", "--rules", "4", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out

    def test_correctness_baseline_method(self, capsys):
        assert main(
            ["correctness", "--rules", "3", "--k", "2",
             "--method", "baseline"]
        ) == 0
        assert "BASELINE" in capsys.readouterr().out

    def test_coverage(self, capsys):
        assert main(["coverage", "--rules", "6"]) == 0
        out = capsys.readouterr().out
        assert "6/6 nodes covered" in out

    def test_pair_coverage(self, capsys):
        assert main(["coverage", "--rules", "4", "--pairs"]) == 0
        assert "6/6 nodes covered" in capsys.readouterr().out

    def test_campaign_to_stdout(self, capsys):
        assert main(["campaign", "--rules", "3", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "# Transformation-rule testing campaign" in out
        assert "**PASSED**" in out

    def test_campaign_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(
            ["campaign", "--rules", "3", "--k", "2", "--output", str(target)]
        ) == 0
        assert "report written" in capsys.readouterr().out
        assert "## Test-suite compression" in target.read_text()

    def test_interaction(self, capsys):
        code = main(
            ["interaction", "--producer", "JoinLojAssociativity",
             "--consumer", "JoinCommutativity"]
        )
        assert code == 0
        assert "exercised on an expression" in capsys.readouterr().out


class TestServiceFlags:
    def test_no_cache_flag(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(
            ["--no-cache", "optimize", "--sql",
             "SELECT o_orderkey FROM orders"]
        ) == 0
        assert "cost:" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())  # nothing persisted

    def test_cached_optimize_persists(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(
            ["optimize", "--sql", "SELECT o_orderkey FROM orders"]
        ) == 0
        (log,) = tmp_path.glob(f"*/{LOG_NAME}")
        assert len(log.read_text().splitlines()) == 1

    def test_workers_flag(self, capsys):
        assert main(
            ["--workers", "2", "--no-cache", "coverage", "--rules", "3"]
        ) == 0
        assert "3/3 nodes covered" in capsys.readouterr().out

    def test_cache_stats_and_clear(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(
            ["optimize", "--sql", "SELECT o_custkey FROM orders"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "total: 1 records" in out
        assert main(["cache", "--clear"]) == 0
        assert "removed 1 cached records" in capsys.readouterr().out
        assert main(["cache", "--stats"]) == 0
        assert "total: 0 records" in capsys.readouterr().out

    def test_cache_stats_and_clear_on_the_log(
        self, capsys, monkeypatch, tmp_path
    ):
        """``--stats`` counts a log's records, lines, garbled lines and
        bytes; ``--clear`` removes the log and any per-record file an older
        layout left beside it."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for sql in ("SELECT o_custkey FROM orders",
                    "SELECT c_name FROM customer"):
            assert main(["optimize", "--sql", sql]) == 0
        (log,) = tmp_path.glob(f"*/{LOG_NAME}")
        with open(log, "a") as handle:
            handle.write("not a record\n")
        legacy = log.parent / "0123abcd.json"
        legacy.write_text('{"cost": 1.0, "error": null}')
        (log.parent / "0123abcd.tmp").write_text("{")
        size = log.stat().st_size
        capsys.readouterr()
        assert main(["cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "environments: 1" in out
        assert (
            f"  {log.parent.name}: 2 records in 3 lines (1 garbled), "
            f"{size} bytes"
        ) in out
        assert f"total: 2 records in 3 lines (1 garbled), {size} bytes" in out
        assert main(["cache", "--clear"]) == 0
        assert "removed 4 cached records" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    def test_campaign_reports_service_stats(self, capsys):
        assert main(["--no-cache", "campaign", "--rules", "3", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "- plan service:" in out
        assert "## Suite queries" in out


class TestTrace:
    SQL = (
        "SELECT c_name FROM customer JOIN orders "
        "ON c_custkey = o_custkey WHERE o_totalprice > 100"
    )

    def test_text_has_hot_rule_table(self, capsys):
        assert main(["trace", "--sql", self.SQL, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "hot rules (top 3 of" in out
        assert "considered" in out and "fired" in out and "rejected" in out
        assert "JoinCommutativity" in out
        (support,) = [
            line for line in out.splitlines()
            if line.startswith("plan support: ")
        ]
        assert "GetToTableScan" in support

    def test_requires_exactly_one_subject(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace"])
        with pytest.raises(SystemExit):
            main(["trace", "--sql", self.SQL, "--rule", "SelectMerge"])

    def test_json_is_byte_identical_across_runs(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(
                ["trace", "--sql", self.SQL, "--format", "json"]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["trace"]["events"]
        assert payload["trace"]["dropped"] == 0
        assert any(
            key.startswith("optimizer.rule.fired{")
            for key in payload["metrics"]["counters"]
        )

    def test_chrome_format_and_out_file(self, capsys, tmp_path):
        target = tmp_path / "trace.json"
        assert main(
            ["trace", "--sql", self.SQL, "--format", "chrome",
             "--out", str(target)]
        ) == 0
        assert str(target) in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert payload["traceEvents"]

    def test_rule_subject(self, capsys):
        assert main(["trace", "--rule", "SelectMerge", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "rule SelectMerge:" in out
        assert "SelectMerge" in out

    def test_summary_detail_records_fewer_events(self, capsys):
        assert main(["trace", "--sql", self.SQL, "--format", "json"]) == 0
        full = len(json.loads(capsys.readouterr().out)["trace"]["events"])
        assert main(
            ["trace", "--sql", self.SQL, "--format", "json",
             "--detail", "summary"]
        ) == 0
        summary = len(
            json.loads(capsys.readouterr().out)["trace"]["events"]
        )
        assert summary < full / 10

    def test_disable_rule_excludes_it(self, capsys):
        assert main(
            ["trace", "--sql", self.SQL, "--format", "json",
             "--disable", "JoinCommutativity"]
        ) == 0
        counters = json.loads(capsys.readouterr().out)["metrics"]["counters"]
        assert counters.get(
            "optimizer.rule.fired{rule=JoinCommutativity}", 0
        ) == 0

    def test_campaign_subject(self, capsys):
        assert main(
            ["trace", "--campaign", "--rules", "2", "--detail", "summary"]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign over 2 rules" in out
        assert "service requests:" in out

    def test_campaign_reports_the_service_counters(self, capsys, monkeypatch):
        """The traced service's traffic is its ``ServiceStats``: the JSON
        carries them beside the registry's series, which holds no twin of
        them, and the text line reads them (38 and 9 when the registry
        still mirrored them)."""
        import repro.cli as cli

        services = []

        class Kept(cli.PlanService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                services.append(self)

        monkeypatch.setattr(cli, "PlanService", Kept)
        argv = ["trace", "--campaign", "--rules", "4", "--k", "2",
                "--detail", "summary"]
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (traced,) = [s for s in services if s.tracer.enabled]
        assert payload["service"] == traced.counters.as_dict()
        assert not [
            name for name in payload["metrics"]["counters"]
            if name.startswith("service.")
        ]
        assert main(argv) == 0
        assert "service requests: 38 (9 memory hits)" in (
            capsys.readouterr().out
        )


class TestDiff:
    def test_fleet_passes_on_the_seed_registry(self, capsys):
        assert main(["diff", "--rules", "2", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "vs sqlite" in out
        assert "PASSED" in out

    def test_json_format_and_collect_artifact(self, tmp_path, capsys):
        collect = tmp_path / "collect.json"
        assert main(
            ["diff", "--rules", "2", "--k", "1", "--format", "json",
             "--collect-out", str(collect)]
        ) == 0
        assert str(collect) in capsys.readouterr().out
        payload = json.loads(collect.read_text())
        assert payload["campaign"]["reference"] == "engine"
        assert payload["summary"]["passed"] is True
        assert payload["campaign"]["suite"]["k"] == 1

    def test_markdown_to_file(self, tmp_path, capsys):
        target = tmp_path / "diff.md"
        assert main(
            ["diff", "--rules", "2", "--k", "1", "--format", "markdown",
             "--output", str(target)]
        ) == 0
        text = target.read_text()
        assert "| `sqlite` |" in text
        assert "| backend | agree | disagree | error | skip |\n" in text

    def test_fault_injection_fails_the_fleet(self, capsys):
        # Two queries drawn from the faulted rule's own pattern; at this
        # seed the second makes sqlite disagree (5 rows vs 51).
        assert main(
            ["--seed", "2", "diff", "--rule-names", "LojToJoinOnNullReject",
             "--k", "2", "--fault", "LojToJoinOnNullReject"]
        ) == 1
        out = capsys.readouterr().out
        assert "DISAGREE" in out
        assert "FAILED" in out

    def test_documented_oracle_self_test_fails_the_fleet(self, capsys):
        # docs/BACKENDS.md and CI's diff-smoke job: at the default seed
        # the suite reaches this fault, so the fleet must exit 1.
        assert main(["diff", "--fault", "DistinctRemoveOnKey"]) == 1
        assert "DISAGREE" in capsys.readouterr().out

    def test_unknown_rule_name_exits_with_a_message(self):
        with pytest.raises(SystemExit, match="unknown exploration rules: Nope"):
            main(["diff", "--rule-names", "JoinCommutativity", "Nope"])

    def test_unknown_backend_exits_two(self, capsys):
        assert main(["diff", "--backends", "engine,postgres"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_fleet_of_one_exits_two(self, capsys):
        assert main(["diff", "--backends", "engine"]) == 2
        assert "at least two" in capsys.readouterr().err
