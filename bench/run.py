"""``run``: one workload pass (what BENCHMARK.json's command starts), or a session.

With ``--workload`` this measures one workload in this process and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.

Without ``--workload`` it is a *session*: every workload in its own
subprocess, :data:`PASSES` times in round-robin order (W1 W2 W3 W4, W1 ...)
so each workload's rounds are spread over the whole session, then one
traced pass each.  The passes share the window: together they measure a
workload for ``--seconds``, as one run of the command does.  The result
file is what ``python -m bench report`` compares.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from bench import ROOT
from bench.harness import (
    Group,
    Meter,
    OpTimes,
    limit_address_space,
    median,
    peak_rss_mb,
    quartiles,
    steady,
)

SPEC_PATH = ROOT / "BENCHMARK.json"
#: Where runs keep their cache directories.  Inside the checkout, because a
#: run may read and write nowhere else; each run removes its own directory.
WORK_ROOT = ROOT / ".bench_work"
#: Untraced passes per workload in a session; each measures for its share
#: of the window.  The whole session stays under four minutes.
PASSES = 2


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def workload_names(spec: dict) -> List[str]:
    return [row["name"] for row in spec["workloads"]]


# --------------------------------------------------------------- one workload


def _set_up(cls, seed, workdir, meter, obs=None, reps=None):
    """Set up ``reps`` times; the last instance is the one measured."""
    workload = None
    for _ in range(reps or cls.setup_reps):
        workload = cls(seed, workdir, obs)
        meter.run_group("setup", workload.setup)
    meter.run_group("check", workload.check_setup)
    return workload


def _deterministic(rounds: List[Group], meter: Meter) -> bool:
    """Exact counts must repeat exactly from round to round."""
    distinct = {json.dumps(group.counts, sort_keys=True) for group in rounds}
    if len(distinct) > 1:
        meter.errors.append(f"counts differ between rounds: {sorted(distinct)}")
    return len(distinct) <= 1


def _detail(workload, meter: Meter, rounds: List[Group], deterministic: bool) -> dict:
    """Everything a session pools or compares, per pass."""
    from bench.workloads import plan_digest

    kept = steady(rounds)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "setup_s": [g.total_s for g in meter.groups if g.kind == "setup"],
        "round_s": [g.total_s for g in kept],
        "round_wall_s": [g.wall_s for g in kept],
        "op_p50_ms": OpTimes(kept).median_ms(workload.latency_op),
        "peak_rss_mb": peak_rss_mb(),
        "rounds": len(rounds),
        "noisy_rounds": sum(g.noisy for g in rounds),
        "counts": rounds[-1].counts,
        "deterministic": deterministic,
        "plan_digest": plan_digest(workload.digest_rows()),
        "attempted": len(meter.ops),
        "failed": sum(op.failed for op in meter.ops),
        "errors": meter.errors,
    }


def run_untraced(cls, seed: int, seconds: float, workdir: Path) -> dict:
    meter = Meter()
    workload = _set_up(cls, seed, workdir, meter)
    rounds = meter.measure_rounds(workload.round, seconds)
    meter.run_group("check", workload.finish)
    detail = _detail(workload, meter, rounds, _deterministic(rounds, meter))
    detail["metrics"] = {
        "setup_s": median(detail["setup_s"]),
        "round_s": median(detail["round_s"]),
        "op_p50_ms": detail["op_p50_ms"],
        "peak_rss_mb": detail["peak_rss_mb"],
    }
    return detail


def _one_producer_each(*sources: Dict[str, float]) -> Dict[str, float]:
    """The union of ``sources``; a per-layer metric may come from one only."""
    values: Dict[str, float] = {}
    for source in sources:
        twice = values.keys() & source.keys()
        if twice:
            raise RuntimeError(f"two producers for {sorted(twice)}")
        values.update(source)
    return values


def run_traced(cls, seed: int, seconds: float, workdir: Path,
               trace_out: Optional[Path]) -> dict:
    """Half the window untraced, half traced, then the layer probe."""
    from bench.probe import run_probe
    from bench.trace import ProgramTrace, layer_shares, op_spans, write_trace

    meter = Meter()
    plain = _set_up(cls, seed, workdir, meter, reps=1)
    plain_rounds = meter.measure_rounds(plain.round, seconds / 2)

    program = ProgramTrace()
    traced = _set_up(cls, seed, workdir, meter, program.observers, reps=1)
    program.harvest(group=-1)  # set-up spans are not part of any round

    def traced_round(m: Meter):
        counts = traced.round(m)
        program.harvest(group=len(m.groups))
        return counts

    traced_rounds = meter.measure_rounds(traced_round, seconds / 2)
    meter.run_group("check", traced.finish)

    probed = run_probe(traced, seed, workdir, meter)

    rounds = plain_rounds + traced_rounds
    detail = _detail(traced, meter, rounds, _deterministic(rounds, meter))
    kept_plain, kept_traced = steady(plain_rounds), steady(traced_rounds)
    spans = op_spans(op for g in kept_traced for op in g.ops)
    groups = {g.index for g in kept_traced}
    spans += [s for s in program.spans if s.group in groups]

    detail["metrics"] = _one_producer_each(
        # timings: the untraced rounds' own ops, and the probe for the rest
        traced.layer_values(
            OpTimes(kept_plain),
            OpTimes([g for g in meter.groups if g.kind == "setup"]),
        ),
        probed,
        detail["counts"],
        layer_shares(spans),
        {
            "obs.tracing_overhead_ratio":
                median([g.total_s for g in kept_traced])
                / median([g.total_s for g in kept_plain]),
            "obs.trace_events": program.events / max(1, len(traced_rounds)),
            "obs.dropped_events": program.dropped,
            "obs.noisy_rounds": detail["noisy_rounds"],
        },
    )
    if trace_out is not None:
        write_trace(trace_out, cls.name, spans)
    return detail


def run_workload(args, spec: dict) -> int:
    from bench import add_source_path

    add_source_path()
    from bench.workloads import load

    limit_address_space()
    cls = load(args.workload)
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(
        prefix=f"{args.workload}-", dir=WORK_ROOT
    ) as workdir:
        if args.trace:
            detail = run_traced(cls, args.seed, args.seconds, Path(workdir),
                                args.trace_out)
        else:
            detail = run_untraced(cls, args.seed, args.seconds, Path(workdir))
    for message in detail["errors"]:
        print(f"bench: {message}", file=sys.stderr)
    if args.detail_out is not None:
        args.detail_out.write_text(json.dumps(detail))

    rows = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = {
        "correct": detail["failed"] == 0 and detail["deterministic"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            row["name"]: {
                "value": float(detail["metrics"].get(row["name"], 0.0)),
                "unit": row["unit"],
            }
            for row in rows
        },
    }
    print(json.dumps(line))
    return 0


# -------------------------------------------------------------------- session


def _pass(workload: str, args, trace: bool, out_dir: Path) -> dict:
    detail_path = out_dir / f"{workload}.detail.json"
    command = [
        sys.executable, "-m", "bench", "run", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds / PASSES),
        "--trace", "1" if trace else "0", "--detail-out", str(detail_path),
    ]
    if trace and args.trace_out is not None:
        args.trace_out.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(args.trace_out / f"{workload}.json")]
    subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads(detail_path.read_text())


def pool_passes(passes: List[dict], traced: dict, spec: dict) -> dict:
    """One workload's session result from its passes' detail records.

    A pass reports what one run of the command reports; the session's value
    is the median over its passes and its quartiles are the run-to-run
    spread, the way the driver takes them over its runs.
    """
    end_to_end = {
        row["name"]: {
            **quartiles([p["metrics"][row["name"]] for p in passes]),
            "unit": row["unit"],
        }
        for row in spec["end_to_end"]
    }
    # Exact counts are compared across passes, never averaged.
    every = passes + [traced]
    deterministic = all(p["deterministic"] for p in every) and len({
        json.dumps([p["counts"], p["plan_digest"]], sort_keys=True)
        for p in every
    }) == 1
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    layer_units = {row["name"]: row["unit"] for row in spec["per_layer"]}
    return {
        "end_to_end": end_to_end,
        "per_layer": {
            name: {"value": traced["metrics"].get(name, 0.0), "unit": unit}
            for name, unit in layer_units.items()
        },
        "counts": passes[0]["counts"],
        "plan_digest": passes[0]["plan_digest"],
        "deterministic": deterministic,
        "rounds": sum(p["rounds"] for p in passes),
        "noisy_rounds": sum(p["noisy_rounds"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "errors": [message for p in every for message in p["errors"]],
    }


def print_session(result: dict) -> None:
    for name, workload in result["workloads"].items():
        print(f"\n{name}: {workload['rounds']} rounds "
              f"({workload['noisy_rounds']} noisy), fail_share "
              f"{workload['fail_share']:.4f}, counts "
              f"{'repeat exactly' if workload['deterministic'] else 'DIFFER'}")
        for metric, row in workload["end_to_end"].items():
            print(f"  {metric:<34} {row['value']:>12.4f} {row['unit']:<6} "
                  f"[{row['q1']:.4f}, {row['q3']:.4f}] n={row['n']}")
        for metric, row in workload["per_layer"].items():
            print(f"  {metric:<34} {row['value']:>12.4f} {row['unit']}")


def run_session(args, spec: dict) -> int:
    names = workload_names(spec)
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="session-", dir=WORK_ROOT) as scratch:
        scratch = Path(scratch)
        passes: Dict[str, List[dict]] = {name: [] for name in names}
        for _ in range(PASSES):
            for name in names:
                passes[name].append(_pass(name, args, False, scratch))
        traced = {name: _pass(name, args, True, scratch) for name in names}
    result = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": PASSES,
        "workloads": {
            name: pool_passes(passes[name], traced[name], spec)
            for name in names
        },
    }
    print_session(result)
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True))
    sound = all(
        w["failed"] == 0 and w["deterministic"]
        for w in result["workloads"].values()
    )
    return 0 if sound else 1


def add_arguments(parser: argparse.ArgumentParser, spec: dict) -> None:
    parser.add_argument("--workload", choices=workload_names(spec),
                        help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path,
                        help="write the traced pass's spans here (a file "
                             "with --workload, a directory for a session)")
    parser.add_argument("--detail-out", type=Path,
                        help="with --workload: per-round values, for pooling")
    parser.add_argument("--out", type=Path,
                        help="session: result file for `bench report`")


def main(args, spec: dict) -> int:
    if args.workload is not None:
        return run_workload(args, spec)
    return run_session(args, spec)
