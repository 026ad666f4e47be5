#!/usr/bin/env python3
"""Reproduce the paper's evaluation (Section 6, Figures 8-14) and the
generation-hints ablation as one committed collect file.

Run from the repository root:

    python tools/paper_figures.py           # recompute, print every table
                                            # and rewrite the collect file
    python tools/paper_figures.py --check   # recompute; exit 1 listing
                                            # each value that moved

Every figure is recomputed into ``tests/data/paper_figures.json`` and its
table rendered from that data.  The file holds exact values only --
trials, optimizer invocations, suite costs at one decimal -- and no
timestamp, wall time or column id, so two runs write the same bytes.  Each
figure asks its own :class:`~repro.service.PlanService`.

Figures 8-10 run at the paper's scale (n = 15 and 30 rules, all pairs);
Figures 11-14 keep its sweep shapes at smaller (n, k) so that a full run
takes minutes.  EXPERIMENTS.md records the mapping.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.logical.validate import ValidationError, validate_tree
from repro.optimizer.result import OptimizationError
from repro.rules.registry import default_registry
from repro.service import PlanService
from repro.storage.database import Database
from repro.testing import (
    CostOracle,
    GenerationFailure,
    QueryGenerator,
    TestSuiteBuilder,
    baseline_plan,
    merge_hints,
    pair_nodes,
    set_multicover_plan,
    singleton_nodes,
    top_k_independent_plan,
)
from repro.testing.pattern_gen import PatternInstantiator
from repro.workloads import tpch_database

DATA = Path(__file__).resolve().parent.parent / "tests" / "data" / "paper_figures.json"

#: Generation campaigns (Figures 8-10) and compression suites (11-14).
GENERATION_SEED = 123
SUITE_SEED = 7
#: The ablation's instantiator and RANDOM generator share one seed.
ABLATION_SEED = 321
ABLATION_TRIALS = 120
#: Each figure's fixed scale, named once for its sweep and its title.
FIG08_RULES, FIG11_K, FIG12_K, FIG13_RULES, FIG14_K = 30, 10, 3, 6, 2

TITLES = {
    "fig08": f"trials per singleton rule (n={FIG08_RULES})",
    "fig09": "total trials for rule pairs",
    "fig10": "optimizer invocations for rule pairs (the campaign's own service)",
    "fig11": f"test-suite execution cost, singleton rules (k={FIG11_K})",
    "fig12": f"test-suite execution cost, rule pairs (k={FIG12_K})",
    "fig13": f"impact of test-suite size k (n={FIG13_RULES} rules, all pairs)",
    "fig14": f"optimizer invocations with/without monotonicity (k={FIG14_K})",
    "ablation_hints": "trials per rule: PATTERN+hints vs PATTERN-hints vs RANDOM",
}


def _rules(n: int) -> List[str]:
    """The first ``n`` exploration rules (the paper's 'number of rules')."""
    return default_registry().exploration_rule_names[:n]


def _trials(service: PlanService, method: str, targets, max_trials: int) -> Dict[str, int]:
    """Trials per target of one seeded PATTERN or RANDOM campaign."""
    generator = QueryGenerator(
        service.database, service.registry, seed=GENERATION_SEED, service=service
    )
    kind = "rule" if len(targets[0]) == 1 else "pair"
    campaign = getattr(generator, f"{method.lower()}_query_for_{kind}")
    return {
        "+".join(target): campaign(*target, max_trials=max_trials).trials
        for target in targets
    }


def fig08(database: Database) -> Dict:
    targets = singleton_nodes(_rules(FIG08_RULES))
    with PlanService(database) as service:
        pattern = _trials(service, "PATTERN", targets, 25)
        rand = _trials(service, "RANDOM", targets, 500)
    return {rule: {"PATTERN": pattern[rule], "RANDOM": rand[rule]} for rule in pattern}


def fig09_fig10(database: Database) -> Tuple[Dict, Dict]:
    """Figures 9 and 10: trials per pair, and each campaign's optimizer runs."""
    trials: Dict[str, Dict] = {}
    invocations: Dict[str, Dict] = {}
    for n in (15, 30):
        targets = list(itertools.combinations(_rules(n), 2))
        per_method = {}
        invocations[f"n={n}"] = {}
        for method, max_trials in (("PATTERN", 60), ("RANDOM", 400)):
            with PlanService(database) as service:
                per_method[method] = _trials(service, method, targets, max_trials)
                invocations[f"n={n}"][method] = service.counters.computed
        trials[f"n={n}"] = {
            pair: {method: per_method[method][pair] for method in per_method}
            for pair in per_method["PATTERN"]
        }
    return trials, invocations


def _suite(service: PlanService, nodes, k: int, extra_operators: int):
    builder = TestSuiteBuilder(
        service.database, service.registry, seed=SUITE_SEED,
        extra_operators=extra_operators, service=service,
    )
    return builder.build(nodes, k=k)


def compression(database: Database, sweep: Dict, extra_operators: int) -> Dict:
    """Figures 11-13: BASELINE / SMC / TOPK suite cost per sweep point
    (``label -> (rule nodes, k)``)."""
    table = {}
    with PlanService(database) as service:
        for label, (nodes, k) in sweep.items():
            suite = _suite(service, nodes, k, extra_operators)
            oracle = CostOracle(service.database, service.registry, service=service)
            table[label] = {
                name: round(plan(suite, oracle).total_cost, 1)
                for name, plan in (
                    ("BASELINE", baseline_plan),
                    ("SMC", set_multicover_plan),
                    ("TOPK", top_k_independent_plan),
                )
            }
    return table


def fig14(database: Database) -> Dict:
    """The oracles' logical ``Cost(q, ¬R)`` calls and suite cost with and without
    monotonicity (``cost identical`` unrounded), plus what the service ran."""
    table = {}
    for n in (4, 6, 8, 10):
        with PlanService(database) as service:
            suite = _suite(service, pair_nodes(_rules(n)), FIG14_K, 0)
            calls, cost = {}, {}
            for label, monotonicity in (("plain", False), ("mono", True)):
                oracle = CostOracle(service.database, service.registry, service=service)
                plan = top_k_independent_plan(suite, oracle, use_monotonicity=monotonicity)
                calls[f"calls {label}"] = oracle.invocations
                cost[label] = plan.total_cost
            table[f"n={n}"] = {
                **calls, **{f"cost {label}": round(total, 1) for label, total in cost.items()},
                "cost identical": abs(cost["plain"] - cost["mono"]) < 1e-6,
                "computed": service.counters.computed,
                "lineage_hits": service.counters.lineage_hits,
            }
    return table


def _pattern_trials(service: PlanService, use_hints: bool) -> Dict[str, int]:
    """Trials until the rule fires, instantiating its pattern directly
    (the cap when it never does)."""
    database = service.database
    instantiator = PatternInstantiator(
        database.catalog, random.Random(ABLATION_SEED), service.stats
    )
    totals = {}
    for rule in service.registry.exploration_rules:
        hints = merge_hints([rule]) if use_hints else {}
        totals[rule.name] = ABLATION_TRIALS
        for trial in range(1, ABLATION_TRIALS + 1):
            try:
                tree = instantiator.instantiate(rule.pattern, hints)
                validate_tree(tree, database.catalog)
                result = service.optimize(tree)
            except (GenerationFailure, ValidationError, OptimizationError):
                continue
            if rule.name in result.rules_exercised:
                totals[rule.name] = trial
                break
    return totals


def ablation_hints(database: Database) -> Dict:
    """Pattern generation with and without the rules' argument hints,
    against RANDOM, over every exploration rule."""
    with PlanService(database) as service:
        hinted = _pattern_trials(service, use_hints=True)
        bare = _pattern_trials(service, use_hints=False)
        generator = QueryGenerator(
            database, service.registry, seed=ABLATION_SEED, service=service
        )
        return {
            name: {
                "PATTERN+hints": hinted[name],
                "PATTERN-hints": bare[name],
                "RANDOM": generator.random_query_for_rule(
                    name, max_trials=ABLATION_TRIALS * 4
                ).trials,
            }
            for name in hinted
        }


def collect() -> Dict[str, Dict]:
    database = tpch_database(seed=0)
    fig09, fig10 = fig09_fig10(database)
    return {
        "fig08": fig08(database),
        "fig09": fig09,
        "fig10": fig10,
        "fig11": compression(database, {
            f"n={n}": (singleton_nodes(_rules(n)), FIG11_K) for n in range(5, 31, 5)
        }, 3),
        "fig12": compression(database, {
            f"n={n}": (pair_nodes(_rules(n)), FIG12_K) for n in (4, 6, 8, 10)
        }, 0),
        "fig13": compression(database, {
            f"k={k}": (pair_nodes(_rules(FIG13_RULES)), k) for k in (1, 2, 3, 4, 6)
        }, 0),
        "fig14": fig14(database),
        "ablation_hints": ablation_hints(database),
    }


def tables(data: Dict[str, Dict]) -> Iterator[Tuple[str, List[str], List[List]]]:
    """``(figure, header, rows)`` of every table, from collected values."""
    for figure, table in data.items():
        if figure == "fig09":
            rows = []
            for n, pairs in table.items():
                pattern, rand = (
                    sum(row[method] for row in pairs.values()) for method in ("PATTERN", "RANDOM")
                )
                rows.append([f"{n} ({len(pairs)} pairs)", pattern, rand, round(rand / pattern, 1)])
            yield figure, ["rules", "PATTERN trials", "RANDOM trials", "RANDOM/PATTERN"], rows
            continue
        columns = list(next(iter(table.values())))
        rows = [[key, *row.values()] for key, row in table.items()]
        if figure in ("fig08", "ablation_hints"):
            rows.append(["TOTAL", *(sum(row[c] for row in table.values()) for c in columns)])
        yield figure, ["", *columns], rows


def render(figure: str, header: List[str], rows: List[List]) -> str:
    widths = [max(len(str(line[i])) for line in [header, *rows]) for i in range(len(header))]
    lines = [f"=== {figure}: {TITLES[figure]} ==="]
    for line in [header, *rows]:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(line, widths)).rstrip())
    return "\n".join(lines)


def _flatten(tree: Dict, prefix: Tuple[str, ...] = ()) -> Iterator[Tuple[str, object]]:
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _flatten(value, (*prefix, key))
        else:
            yield " / ".join((*prefix, key)), value


def moved(old: Dict, new: Dict) -> List[str]:
    """``figure / key: old → new`` for every value that differs."""
    before, after = dict(_flatten(old)), dict(_flatten(new))
    return [
        f"{key}: {before.get(key, 'missing')} → {after.get(key, 'missing')}"
        for key in [*after, *(key for key in before if key not in after)]
        if before.get(key) != after.get(key)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="check only: exit 1 if a value moved")
    args = parser.parse_args(argv)
    data = collect()
    for table in tables(data):
        print(render(*table), end="\n\n")
    if args.check:
        committed = json.loads(DATA.read_text()) if DATA.exists() else {}
        changes = moved(committed, data)
        for line in changes:
            print(f"MOVED: {line}")
        stale = f"STALE: {len(changes)} moved in {DATA.name}"
        print(stale if changes else f"{DATA.name} is up to date")
        return 1 if changes else 0
    DATA.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
