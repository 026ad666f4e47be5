"""``report A.json B.json``: the *report* half of collect -> report.

Compares two session result files, A the base and B the candidate, one row
per (workload, end-to-end metric).  The bounds are the rows of
``BENCHMARK.json``; nothing here knows a metric by name.  A pair is

* **unresolved** when either side's interquartile spread, as a share of its
  median, exceeds the metric's bound: the measurement cannot tell;
* a **regression** when B is worse than A by more than the bound;
* **ok** otherwise.

The paper's three numbers are *exact*: counts that repeat from pass to pass,
so they have no spread and are never unresolved.  Their bounds are the rows
of :data:`EXACT_BOUNDS` (``BENCHMARK.json`` can hold a bound only for a
metric that every workload reports and that is never 0); their direction is
their per-layer row's in ``BENCHMARK.json``.

Exit code 1 on any regression, on a higher ``fail_share``, or when a file's
exact counts did not repeat; unresolved pairs are printed, not failed.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List


#: Bounds of the exact metrics, compared wherever both files count them.
EXACT_BOUNDS = (
    {"name": "testing.gen_trials_per_query", "bound": 0.05},
    {"name": "testing.suite_cost_ratio", "bound": 0.05},
    {"name": "testing.detection_rate", "bound": 0.0},
)


def spread(row: dict) -> float:
    """Interquartile range as a share of the median (an exact count has none)."""
    if "q1" not in row or not row["value"]:
        return 0.0
    return (row["q3"] - row["q1"]) / row["value"]


def worsening(base: dict, other: dict, better: str) -> float:
    """By what share of the base's median ``other`` is worse (negative: better)."""
    if not base["value"]:
        return 0.0
    change = (other["value"] - base["value"]) / base["value"]
    return change if better == "lower" else -change


def verdict(base: dict, other: dict, rule: dict) -> str:
    bound = rule["bound"]
    if spread(base) > bound or spread(other) > bound:
        return "unresolved"
    if worsening(base, other, rule["better"]) > bound:
        return "regression"
    return "ok"


def compare(base: dict, other: dict, spec: dict) -> List[dict]:
    """One row per (workload, end-to-end or exact metric) in both files."""
    layer_rows = {row["name"]: row for row in spec["per_layer"]}
    exact_rules = [
        {**layer_rows[row["name"]], **row} for row in EXACT_BOUNDS
    ]
    rows = []
    for workload in base["workloads"]:
        if workload not in other["workloads"]:
            continue
        a = base["workloads"][workload]
        b = other["workloads"][workload]
        exact_a = {name: {"value": v} for name, v in a["counts"].items()}
        exact_b = {name: {"value": v} for name, v in b["counts"].items()}
        pairs = [(rule, a["end_to_end"], b["end_to_end"])
                 for rule in spec["end_to_end"]]
        pairs += [(rule, exact_a, exact_b) for rule in exact_rules]
        for rule, values_a, values_b in pairs:
            name = rule["name"]
            if name not in values_a or name not in values_b:
                continue
            row_a, row_b = values_a[name], values_b[name]
            rows.append({
                "workload": workload, "metric": name, "unit": rule["unit"],
                "bound": rule["bound"], "a": row_a, "b": row_b,
                "ratio": row_b["value"] / row_a["value"] if row_a["value"] else 0.0,
                "verdict": verdict(row_a, row_b, rule),
            })
        failing = (
            b["fail_share"] > a["fail_share"]
            or not a["deterministic"] or not b["deterministic"]
        )
        rows.append({
            "workload": workload, "metric": "fail_share", "unit": "ratio",
            "bound": 0.0,
            "a": {"value": a["fail_share"]}, "b": {"value": b["fail_share"]},
            "ratio": 0.0, "verdict": "regression" if failing else "ok",
        })
    return rows


def render(rows: List[dict]) -> str:
    def cell(row: dict) -> str:
        if "q1" not in row:
            return f"{row['value']:.4f}"
        return (f"{row['value']:.4f} [{row['q1']:.4f}, {row['q3']:.4f}] "
                f"n={row['n']}")

    lines = []
    for row in rows:
        lines.append(
            f"{row['workload']:<16} {row['metric']:<28} {row['unit']:<5} "
            f"A {cell(row['a']):<40} B {cell(row['b']):<40} "
            f"B/A {row['ratio']:.3f} (base A {row['a']['value']:.4f}) "
            f"bound {row['bound']:.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("base", type=Path, help="session result file A")
    parser.add_argument("candidate", type=Path, help="session result file B")


def main(args, spec: dict) -> int:
    rows = compare(
        json.loads(args.base.read_text()),
        json.loads(args.candidate.read_text()),
        spec,
    )
    print(render(rows))
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0
