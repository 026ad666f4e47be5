"""Tests of the benchmark harness itself: ``python -m pytest bench -q``.

Outside tier-1's ``testpaths`` on purpose: the schema tests run every
workload end to end and take about two minutes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench import ROOT, add_source_path

add_source_path()

from bench import report, trace  # noqa: E402
from bench.harness import KERNEL_RUNS, NOMINAL_KERNEL_S, Meter, steady  # noqa: E402
from bench.run import (  # noqa: E402
    _one_producer_each,
    load_spec,
    pool_passes,
    workload_names,
)
from bench.workloads import load, plan_digest  # noqa: E402

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Per-layer metrics that are legitimately 0 on every workload today.
ZERO_TODAY = {
    "sql.roundtrip_fp_match_share",  # 0 of 40 re-parsed trees keep their fingerprint
    "obs.dropped_events",
    "obs.noisy_rounds",
}


# ------------------------------------------------------------ BENCHMARK.json


def test_spec_names_units_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for row in SPEC["workloads"]:
        assert set(row) == {"name", "why"} and 0 < len(row["why"]) <= 200
    for row in SPEC["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in SPEC["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(row["unit"])
        assert row["better"] in ("lower", "higher")
    setup = next(r for r in SPEC["end_to_end"] if r["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(r["bound"] for r in SPEC["end_to_end"])
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all((ROOT / path).is_dir() for path in SPEC["paths"])


def test_every_curated_sql_file_says_why_it_is_there():
    from bench.workloads.execute_scale import read_curated

    queries = read_curated()
    assert len(queries) >= 14
    assert all(len(query.why) > 20 for query in queries)
    assert not any(" CROSS " in query.sql.upper() for query in queries)


# -------------------------------------------------------------- the command


def run_command(workload: str, trace_flag: int, seed: int = 0):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace_flag),
    ]
    command[0] = sys.executable
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workload_names(SPEC))
def test_untraced_output_is_every_end_to_end_metric(workload):
    line = run_command(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert list(line["metrics"]) == [r["name"] for r in SPEC["end_to_end"]]
    for row in SPEC["end_to_end"]:
        metric = line["metrics"][row["name"]]
        assert metric["unit"] == row["unit"] and metric["value"] > 0


def test_traced_output_is_every_per_layer_metric_and_none_is_dead():
    measured = set()
    for workload in workload_names(SPEC):
        line = run_command(workload, 1)
        assert line["correct"] is True, workload
        assert list(line["metrics"]) == [r["name"] for r in SPEC["per_layer"]]
        measured |= {n for n, m in line["metrics"].items() if m["value"]}
    dead = {r["name"] for r in SPEC["per_layer"]} - measured - ZERO_TODAY
    assert not dead, f"no workload measures {sorted(dead)}"


def test_fail_share_is_zero_on_another_seed():
    for workload in workload_names(SPEC):
        line = run_command(workload, 0, seed=1)
        assert line["correct"] is True and line["failed"] == 0, workload


# ------------------------------------------------------------------ the seed


@pytest.mark.parametrize("workload", ["campaign_rules", "warm_replay",
                                      "execute_scale"])
def test_seed_changes_generated_inputs_and_nothing_else(workload, tmp_path):
    built = []
    for seed in (0, 1):
        instance = load(workload)(seed, tmp_path)
        meter = Meter()
        meter.run_group("setup", instance.setup)
        assert not meter.errors
        built.append(instance)
    first, second = built
    assert first.generated_sql() != second.generated_sql()
    assert first.database.catalog.ddl() == second.database.catalog.ddl()
    assert ([rule.name for rule in first.registry.all_rules]
            == [rule.name for rule in second.registry.all_rules])
    assert ([tree.tree_size() for tree in first.pool()]
            == [tree.tree_size() for tree in second.pool()])


def test_mutation_sample_seed_rotates_the_same_four_mutants(tmp_path):
    samples = []
    for seed in (0, 1):
        instance = load("mutation_sample")(seed, tmp_path)
        instance.setup(Meter())
        samples.append(instance.sample)
    assert samples[0] != samples[1]
    assert sorted(samples[0]) == sorted(samples[1])
    assert {status for _, _, _, status in samples[0]} == {
        "KILLED", "NO_FIRE", "EQUIVALENT", "SURVIVED"}


# ------------------------------------------------------------ the noise gate


class FakeMachine:
    """A clock that only the kernel and the ops advance."""

    def __init__(self):
        self.now = 0.0
        self.kernel_s = NOMINAL_KERNEL_S

    def clock(self):
        return self.now

    def kernel(self):
        self.now += self.kernel_s / KERNEL_RUNS  # kernel_s is one whole sample

    def work(self, seconds):
        self.now += seconds


def test_times_are_scaled_by_the_bracketing_kernel():
    machine = FakeMachine()
    machine.kernel_s = 2 * NOMINAL_KERNEL_S  # a machine at half speed
    meter = Meter(machine.kernel, machine.clock)
    group = meter.run_group("round", lambda m: m.op("x", "t", machine.work, 1.0))
    assert group.wall_s == pytest.approx(1.0)
    assert group.total_s == pytest.approx(0.5)
    assert not group.noisy


def test_noise_gate_discards_a_round_bracketed_by_a_slowed_kernel():
    machine = FakeMachine()
    meter = Meter(machine.kernel, machine.clock)

    def quiet(m):
        m.op("x", "t", machine.work, 1.0)

    def speed_step(m):
        m.op("x", "t", machine.work, 1.0)
        machine.kernel_s = 1.5 * NOMINAL_KERNEL_S  # the closing sample is slow

    rounds = [meter.run_group("round", quiet),
              meter.run_group("round", speed_step)]
    assert [group.noisy for group in rounds] == [False, True]
    assert steady(rounds) == rounds[:1]
    assert steady(rounds[1:]) == rounds[1:]  # never left with nothing


def test_a_raising_op_is_a_failed_op_not_a_crash():
    meter = Meter(lambda: None)

    def boom():
        raise MemoryError("address space")

    assert meter.op("x", "t", boom) is None
    assert [op.failed for op in meter.ops] == [True]
    assert "MemoryError" in meter.errors[0]


# ----------------------------------------------------------------- the trace


def test_self_time_is_span_minus_children():
    spans = [
        trace.Span("call", "testing", 0.0, 10.0, "bench"),
        trace.Span("service.compute", "optimizer", 1.0, 4.0, "program"),
        trace.Span("optimize.explore", "optimizer", 1.5, 3.5, "program"),
        trace.Span("service.compute", "optimizer", 5.0, 9.0, "program"),
        trace.Span("exec", "engine", 10.0, 12.0, "bench"),
    ]
    totals = trace.layer_self_times(spans)
    assert totals == pytest.approx(
        {"testing": 3.0, "optimizer": 7.0, "engine": 2.0})
    assert trace.layer_shares(spans)["share.optimizer"] == pytest.approx(7 / 12)


def test_a_per_layer_metric_has_one_producer():
    assert _one_producer_each({"a": 1.0}, {"b": 2.0}) == {"a": 1.0, "b": 2.0}
    with pytest.raises(RuntimeError, match="two producers"):
        _one_producer_each({"a": 1.0}, {"a": 2.0})


def test_plan_digest_ignores_row_order_and_sees_a_cost_change():
    rows = [("f1", "t", 1.0, ("B", "A")), ("f2", "t", 2.0, ())]
    assert plan_digest(rows) == plan_digest(reversed(rows))
    assert plan_digest(rows) != plan_digest([rows[0], ("f2", "t", 2.000001, ())])


# ---------------------------------------------------------------- the report


def session(round_s=1.0, spread=0.02, fail_share=0.0, **counts):
    def row(value, unit):
        return {"value": value, "q1": value * (1 - spread / 2),
                "q3": value * (1 + spread / 2), "n": 12, "unit": unit}

    return {"workloads": {"campaign_rules": {
        "end_to_end": {
            "setup_s": row(0.5, "s"), "round_s": row(round_s, "s"),
            "op_p50_ms": row(40.0, "ms"), "peak_rss_mb": row(90.0, "MB"),
        },
        "counts": {"testing.gen_trials_per_query": 3.2,
                   "testing.suite_cost_ratio": 0.25,
                   "testing.detection_rate": 0.5, **counts},
        "fail_share": fail_share, "deterministic": True,
    }}}


def verdicts(base, other):
    """Against the shipped bounds: the report knows no metric by name."""
    return {row["metric"]: row["verdict"]
            for row in report.compare(base, other, SPEC)}


def test_report_flags_fifteen_percent_and_passes_three():
    assert verdicts(session(), session(round_s=1.15))["round_s"] == "regression"
    assert verdicts(session(), session(round_s=1.03))["round_s"] == "ok"
    assert verdicts(session(), session(round_s=0.80))["round_s"] == "ok"


def test_report_compares_the_exact_counts_of_the_two_files():
    assert set(verdicts(session(), session()).values()) == {"ok"}
    doubled = session(**{"testing.gen_trials_per_query": 6.4})
    assert verdicts(session(), doubled)["testing.gen_trials_per_query"] == "regression"
    costlier = session(**{"testing.suite_cost_ratio": 0.27})
    assert verdicts(session(), costlier)["testing.suite_cost_ratio"] == "regression"
    cheaper = session(**{"testing.suite_cost_ratio": 0.20})
    assert verdicts(session(), cheaper)["testing.suite_cost_ratio"] == "ok"
    blinder = session(**{"testing.detection_rate": 0.49})
    assert verdicts(session(), blinder)["testing.detection_rate"] == "regression"


def test_report_marks_a_wide_spread_pair_unresolved():
    wide = session(round_s=1.15, spread=0.30)
    assert verdicts(session(), wide)["round_s"] == "unresolved"


def test_report_fails_on_a_higher_fail_share(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps(session()))
    (tmp_path / "b.json").write_text(json.dumps(session(fail_share=0.01)))
    from bench.__main__ import main

    assert main(["report", str(tmp_path / "a.json"),
                 str(tmp_path / "a.json")]) == 0
    assert main(["report", str(tmp_path / "a.json"),
                 str(tmp_path / "b.json")]) == 1
    assert "fail_share" in capsys.readouterr().out


def test_session_reports_count_differences_instead_of_averaging():
    def one_pass(computed):
        return {"counts": {"service.computed": computed}, "plan_digest": "d",
                "deterministic": True, "rounds": 2, "noisy_rounds": 0,
                "attempted": 10, "failed": 0, "errors": [],
                "metrics": {"setup_s": 0.1, "round_s": 1.0 + computed / 1e4,
                            "op_p50_ms": 1.5, "peak_rss_mb": 90.0}}

    same = pool_passes([one_pass(259), one_pass(259)], one_pass(259), SPEC)
    differ = pool_passes([one_pass(259), one_pass(260)], one_pass(259), SPEC)
    assert same["deterministic"] and not differ["deterministic"]
    assert same["end_to_end"]["round_s"]["n"] == 2
    assert differ["end_to_end"]["round_s"]["q3"] > same["end_to_end"]["round_s"]["q3"]
