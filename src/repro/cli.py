"""Command-line interface for the testing framework.

Mirrors how a test engineer would drive the paper's framework day to day::

    python -m repro rules --patterns          # list rules + pattern XML
    python -m repro ddl                       # show the test schema
    python -m repro generate --rule GbAggPullAboveJoin
    python -m repro generate --rule A --pair B --method random
    python -m repro optimize --sql "SELECT ... "
    python -m repro correctness --rules 8 --k 3
    python -m repro diff --backends engine,sqlite
    python -m repro coverage --rules 12 --method pattern
    python -m repro interaction --producer X --consumer Y

Every command is seeded and deterministic; the exit code is non-zero when a
campaign fails or a correctness bug is found (so the CLI can gate CI).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import List, Optional

from repro.engine import execute_plan, explain_analyze
from repro.optimizer.config import DEFAULT_CONFIG
from repro.rules.faults import ALL_FAULTS
from repro.rules.registry import default_registry
from repro.service import (
    PlanService,
    cache_stats,
    clear_cache,
    default_cache_dir,
)
from repro.sql.binder import sql_to_tree
from repro.testing.compression import (
    baseline_plan,
    set_multicover_plan,
    top_k_independent_plan,
)
from repro.testing.correctness import CorrectnessRunner
from repro.testing.coverage import CoverageCampaign
from repro.testing.generator import QueryGenerator
from repro.testing.suite import CostOracle, TestSuiteBuilder, singleton_nodes
from repro.workloads import tpch_database


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A framework for testing query transformation rules "
        "(SIGMOD 2009 reproduction).",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for database and generators"
    )
    parser.add_argument(
        "--database",
        choices=["tpch", "star"],
        default="tpch",
        help="which built-in test database to run against",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for batched plan/cost requests (default 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the plan service's in-memory and on-disk caches",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("ddl", help="print the test database schema")

    rules = commands.add_parser("rules", help="list transformation rules")
    rules.add_argument(
        "--patterns", action="store_true", help="include pattern XML"
    )

    generate = commands.add_parser(
        "generate", help="generate a query exercising a rule (or pair)"
    )
    generate.add_argument("--rule", required=True)
    generate.add_argument("--pair", help="second rule for pair generation")
    generate.add_argument(
        "--method", choices=["pattern", "random"], default="pattern"
    )
    generate.add_argument("--max-trials", type=int, default=None)
    generate.add_argument(
        "--extra-operators", type=int, default=0,
        help="wrap the result in N extra random operators",
    )

    optimize = commands.add_parser(
        "optimize", help="optimize a SQL query and show plan + RuleSet"
    )
    optimize.add_argument("--sql", required=True)
    optimize.add_argument(
        "--disable", action="append", default=[],
        help="rule name to disable (repeatable)",
    )
    optimize.add_argument(
        "--execute", action="store_true", help="also execute and show rows"
    )

    correctness = commands.add_parser(
        "correctness", help="run a compressed correctness test suite"
    )
    correctness.add_argument("--rules", type=int, default=8)
    correctness.add_argument("--k", type=int, default=3)
    correctness.add_argument(
        "--method", choices=["baseline", "smc", "topk"], default="topk"
    )

    diff = commands.add_parser(
        "diff",
        help="differential campaign: fan a generated suite across a "
        "fleet of execution backends (see docs/BACKENDS.md)",
    )
    diff.add_argument(
        "--backends", default="engine,sqlite",
        help="comma-separated fleet; the first member is the reference "
        "(default engine,sqlite; duckdb joins when installed)",
    )
    diff.add_argument(
        "--rules", type=int, default=6,
        help="exploration rules the suite is generated for (default 6)",
    )
    diff.add_argument(
        "--rule-names", nargs="+", default=None, metavar="RULE",
        help="generate the suite for exactly these exploration rules "
        "(overrides --rules; e.g. the subquery-unnesting family)",
    )
    diff.add_argument(
        "--k", type=int, default=2, help="queries per rule (default 2)"
    )
    diff.add_argument(
        "--extra-operators", type=int, default=2,
        help="extra random operators wrapped around generated queries",
    )
    diff.add_argument(
        "--fault", choices=sorted(ALL_FAULTS),
        help="replace a rule with its seeded buggy variant first (the "
        "fleet should then disagree -- a self-test of the oracle)",
    )
    diff.add_argument(
        "--format", choices=["text", "json", "markdown"], default="text",
    )
    diff.add_argument(
        "--output", help="write the report to this file instead of stdout"
    )
    diff.add_argument(
        "--collect-out", metavar="PATH",
        help="also write the deterministic JSON collect artifact to PATH",
    )

    coverage = commands.add_parser(
        "coverage", help="rule-coverage campaign over the rule library"
    )
    coverage.add_argument("--rules", type=int, default=10)
    coverage.add_argument(
        "--method", choices=["pattern", "random"], default="pattern"
    )
    coverage.add_argument("--pairs", action="store_true")

    interaction = commands.add_parser(
        "interaction",
        help="generate a query with a derived rule interaction (Section 7)",
    )
    interaction.add_argument("--producer", required=True)
    interaction.add_argument("--consumer", required=True)

    campaign = commands.add_parser(
        "campaign",
        help="full pipeline (coverage + compression + correctness) as a "
        "markdown report",
    )
    campaign.add_argument("--rules", type=int, default=10)
    campaign.add_argument("--k", type=int, default=3)
    campaign.add_argument(
        "--output", help="write the markdown report to this file"
    )
    campaign.add_argument(
        "--mutants", type=int, default=0, metavar="N",
        help="additionally run a mutation campaign sampled to at most N "
        "mutants and append its kill matrix to the report",
    )

    mutate = commands.add_parser(
        "mutate",
        help="mutation campaign: auto-generated rule faults scored "
        "against full vs compressed suites (see docs/TESTING.md)",
    )
    mutate.add_argument(
        "--rules", type=int, default=10,
        help="number of exploration rules to mutate (default 10)",
    )
    mutate.add_argument(
        "--rule-names", nargs="+", default=None, metavar="RULE",
        help="mutate exactly these exploration rules (overrides --rules)",
    )
    mutate.add_argument(
        "--operators", action="append", default=None,
        metavar="NAME",
        help="mutation operator to apply, repeatable (default: all; see "
        "`repro mutate --list-operators`)",
    )
    mutate.add_argument(
        "--list-operators", action="store_true",
        help="list available mutation operators and exit",
    )
    mutate.add_argument(
        "--pool", type=int, default=8,
        help="queries regenerated per mutant -- the FULL suite (default 8)",
    )
    mutate.add_argument(
        "--k", type=int, default=2,
        help="queries the compressed suites (SMC/TOPK) select (default 2)",
    )
    mutate.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="stride-sample the mutant set down to at most N mutants "
        "(CI smoke mode)",
    )
    mutate.add_argument(
        "--extra-operators", type=int, default=4,
        help="extra random operators wrapped around generated queries",
    )
    mutate.add_argument(
        "--pool-seeds", type=int, nargs="+", default=None, metavar="SEED",
        help="generation seeds whose per-mutant pools are unioned "
        "(default: the global --seed; more seeds = more detection power)",
    )
    mutate.add_argument(
        "--format", choices=["text", "json", "markdown"], default="text",
    )
    mutate.add_argument(
        "--output", help="write the report to this file instead of stdout"
    )
    mutate.add_argument(
        "--fail-under", type=float, default=None, metavar="FRACTION",
        help="exit non-zero when the FULL suite's detection score over "
        "expected-detectable mutants is below this fraction (e.g. 0.9)",
    )

    compress = commands.add_parser(
        "compress",
        help="detection-aware suite compression over a mutation kill "
        "matrix (see docs/COMPRESSION.md)",
    )
    compress.add_argument(
        "--matrix", metavar="PATH",
        help="reuse a `repro mutate --format json` artifact instead of "
        "running a fresh campaign",
    )
    compress.add_argument(
        "--objective", choices=["coverage", "detection", "pareto"],
        default="detection",
        help="coverage: score the campaign's k-coverage variants; "
        "detection: greedy kill-per-cost selection; pareto: sweep "
        "budgets into a cost-vs-detection frontier (default detection)",
    )
    compress.add_argument(
        "--base-k", type=int, default=2, metavar="K",
        help="per-rule budget of the detection objective (default 2; "
        "matches the campaign's k for a like-for-like comparison)",
    )
    compress.add_argument(
        "--ks", type=int, nargs="+", default=None, metavar="K",
        help="budgets swept by --objective pareto (default 1 2 3 4 6)",
    )
    compress.add_argument(
        "--no-adaptive", action="store_true",
        help="disable the adaptive per-rule budget raises",
    )
    compress.add_argument(
        "--max-k", type=int, default=None, metavar="K",
        help="cap for adaptive budget raises (default: the pool size)",
    )
    compress.add_argument(
        "--no-cross-validate", action="store_true",
        help="skip the leave-one-out generalization score (faster on "
        "large matrices)",
    )
    compress.add_argument(
        "--rules", type=int, default=10,
        help="exploration rules mutated when no --matrix is given",
    )
    compress.add_argument(
        "--pool", type=int, default=8,
        help="queries regenerated per mutant for a fresh campaign",
    )
    compress.add_argument(
        "--k", type=int, default=2,
        help="k of the campaign's coverage variants (fresh campaign)",
    )
    compress.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="stride-sample the fresh campaign's mutants (CI smoke mode)",
    )
    compress.add_argument(
        "--extra-operators", type=int, default=4,
        help="extra random operators wrapped around generated queries",
    )
    compress.add_argument(
        "--pool-seeds", type=int, nargs="+", default=None, metavar="SEED",
        help="generation seeds whose per-mutant pools are unioned",
    )
    compress.add_argument(
        "--differential", metavar="BACKENDS", default=None,
        help="comma-separated backend fleet folded in as a second kill "
        "oracle during the fresh campaign (first must be 'engine', "
        "e.g. engine,sqlite)",
    )
    compress.add_argument(
        "--format", choices=["text", "json", "markdown"], default="text",
    )
    compress.add_argument(
        "--output", help="write the report to this file instead of stdout"
    )
    compress.add_argument(
        "--pareto-out", metavar="PATH",
        help="also write the deterministic Pareto JSON artifact to PATH "
        "(implies computing the pareto sweep)",
    )
    compress.add_argument(
        "--matrix-out", metavar="PATH",
        help="also write the distilled kill matrix as JSON to PATH",
    )
    compress.add_argument(
        "--fail-under", type=float, default=None, metavar="FRACTION",
        help="exit non-zero when the selected objective's detection rate "
        "over expected-detectable mutants is below this fraction",
    )

    analyze = commands.add_parser(
        "analyze",
        help="static analysis: lint the registry and verify substitutions "
        "symbolically (see docs/ANALYSIS.md)",
    )
    analyze.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    analyze.add_argument(
        "--seeds", type=int, default=6,
        help="bindings synthesized per rule per workload",
    )
    analyze.add_argument(
        "--skip-lint", action="store_true", help="skip the registry lint"
    )
    analyze.add_argument(
        "--skip-verify", action="store_true",
        help="skip symbolic substitution verification",
    )
    analyze.add_argument(
        "--skip-astlint", action="store_true",
        help="skip the implementation AST lint",
    )
    analyze.add_argument(
        "--interactions", action="store_true",
        help="compute the rule-interaction graph (IG4xx) and include it "
        "in the report (JSON mode adds an 'interaction_graph' key)",
    )
    analyze.add_argument(
        "--interactions-dot", metavar="PATH",
        help="with --interactions: write the confirmed-edge subgraph as "
        "Graphviz DOT to PATH",
    )
    analyze.add_argument(
        "--gate", metavar="RULE",
        help="run the admission gate on one rule of the (possibly "
        "fault-injected) registry; a rejection exits non-zero",
    )
    analyze.add_argument(
        "--gate-all", action="store_true",
        help="run the admission gate on every exploration rule",
    )
    analyze.add_argument(
        "--gate-static-only", action="store_true",
        help="skip the gate's dynamic differential check (the gate always "
        "uses its own calibrated TPC-H build, not --database/--seed)",
    )
    analyze.add_argument(
        "--plans", type=int, default=0, metavar="N",
        help="additionally optimize N random queries with the plan "
        "sanitizer enabled and assert cost monotonicity",
    )
    analyze.add_argument(
        "--fault", choices=sorted(ALL_FAULTS),
        help="replace a rule with its seeded buggy variant before analyzing",
    )
    analyze.add_argument(
        "--fail-on", choices=["error", "warning"], default="error",
        help="lowest severity that makes the exit code non-zero",
    )

    trace = commands.add_parser(
        "trace",
        help="optimize with tracing enabled and show rule firing counts "
        "(see docs/OBSERVABILITY.md)",
    )
    trace_target = trace.add_mutually_exclusive_group(required=True)
    trace_target.add_argument(
        "--sql", help="trace the optimization of this SQL query"
    )
    trace_target.add_argument(
        "--rule",
        help="generate a query exercising this rule, then trace it",
    )
    trace_target.add_argument(
        "--campaign", action="store_true",
        help="trace a full testing campaign",
    )
    trace.add_argument(
        "--format", choices=["text", "json", "chrome"], default="text",
        help="text: rule table; json: deterministic event dump; chrome: "
        "chrome://tracing / Perfetto trace-event JSON",
    )
    trace.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows in the hot-rule table (text format, default 10)",
    )
    trace.add_argument(
        "--rules", type=int, default=6,
        help="rules under test for --campaign (default 6)",
    )
    trace.add_argument("--k", type=int, default=2, help="queries per rule")
    trace.add_argument(
        "--disable", action="append", default=[],
        help="rule name to disable (repeatable)",
    )
    trace.add_argument(
        "--detail", choices=["full", "summary"], default="full",
        help="full: every rule attempt / memo insert / costing as an "
        "event; summary: low-volume events only (counts stay exact)",
    )
    trace.add_argument(
        "--out", help="write the trace to this file instead of stdout"
    )

    cache = commands.add_parser(
        "cache", help="inspect or clear the persistent plan cache"
    )
    cache_action = cache.add_mutually_exclusive_group(required=True)
    cache_action.add_argument(
        "--stats", action="store_true", help="show cache statistics"
    )
    cache_action.add_argument(
        "--clear", action="store_true", help="remove all cached records"
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "cache":
        root = default_cache_dir()
        if args.clear:
            removed = clear_cache(root)
            print(f"removed {removed} cached records from {root}")
            return 0
        stats = cache_stats(root)
        print(f"cache directory: {root}")
        print(f"environments: {len(stats['environments'])}")
        for name, env in stats["environments"].items():
            print(f"  {name}: {env['entries']} records, {env['bytes']} bytes")
        print(f"total: {stats['entries']} records, {stats['bytes']} bytes")
        return 0

    if args.database == "star":
        from repro.workloads import star_database

        database = star_database(seed=args.seed)
    else:
        database = tpch_database(seed=args.seed)
    registry = default_registry()
    service = PlanService(
        database,
        registry=registry,
        workers=args.workers,
        cache_dir=None if args.no_cache else default_cache_dir(),
        memory_cache=not args.no_cache,
    )

    if args.command == "ddl":
        print(database.catalog.ddl())
        print()
        print(database.describe())
        return 0

    if args.command == "rules":
        for rule in registry.exploration_rules:
            kind = "exploration"
            print(f"{rule.name:<28} {kind}")
            if args.patterns:
                print(f"    {registry.pattern_xml(rule.name)}")
        for rule in registry.implementation_rules:
            print(f"{rule.name:<28} implementation")
            if args.patterns:
                print(f"    {registry.pattern_xml(rule.name)}")
        return 0

    if args.command == "generate":
        generator = QueryGenerator(
            database, registry, seed=args.seed, service=service
        )
        if args.pair:
            if args.method == "pattern":
                outcome = generator.pattern_query_for_pair(
                    args.rule, args.pair,
                    max_trials=args.max_trials or 60,
                )
            else:
                outcome = generator.random_query_for_pair(
                    args.rule, args.pair,
                    max_trials=args.max_trials or 2000,
                )
        elif args.method == "pattern":
            outcome = generator.pattern_query_for_rule(
                args.rule,
                max_trials=args.max_trials or 25,
                extra_operators=args.extra_operators,
            )
        else:
            outcome = generator.random_query_for_rule(
                args.rule, max_trials=args.max_trials or 500
            )
        target = " + ".join(outcome.target_rules)
        if not outcome.succeeded:
            print(
                f"FAILED to generate a query exercising {target} in "
                f"{outcome.trials} trials"
            )
            return 1
        print(f"target rule(s): {target}")
        print(f"trials: {outcome.trials}")
        print(f"operators: {outcome.operator_count}")
        print(f"sql: {outcome.sql}")
        return 0

    if args.command == "optimize":
        tree = sql_to_tree(args.sql, database.catalog)
        result = service.optimize(
            tree, DEFAULT_CONFIG.with_disabled(args.disable)
        )
        print(f"cost: {result.cost:.3f}")
        exploration = {r.name for r in registry.exploration_rules}
        print("RuleSet(q):", ", ".join(sorted(result.rules_exercised & exploration)))
        if args.execute:
            print(explain_analyze(result.plan, database))
            output = execute_plan(result.plan, database, result.output_columns)
            print(output.to_text())
        else:
            print(result.plan.pretty())
        return 0

    if args.command == "correctness":
        names = registry.exploration_rule_names[: args.rules]
        builder = TestSuiteBuilder(
            database, registry, seed=args.seed, extra_operators=2,
            service=service,
        )
        suite = builder.build(singleton_nodes(names), k=args.k)
        oracle = CostOracle(database, registry, service=service)
        maker = {
            "baseline": baseline_plan,
            "smc": set_multicover_plan,
            "topk": top_k_independent_plan,
        }[args.method]
        plan = maker(suite, oracle)
        print(
            f"{plan.method}: estimated execution cost "
            f"{plan.total_cost:.1f}, {len(plan.selected_query_ids)} queries"
        )
        report = CorrectnessRunner(
            database, registry, service=service
        ).run(plan, suite)
        print(
            f"executed {report.queries_executed} queries, "
            f"{report.disabled_plans_executed} disabled plans "
            f"({report.skipped_identical_plans} identical plans skipped)"
        )
        for issue in report.issues:
            print(f"BUG: {issue}")
        for error in report.errors:
            print(f"ERROR: {error}")
        print("PASSED" if report.passed else "FAILED")
        return 0 if report.passed else 1

    if args.command == "coverage":
        generator = QueryGenerator(
            database, registry, seed=args.seed, service=service
        )
        campaign = CoverageCampaign(generator)
        names = registry.exploration_rule_names[: args.rules]
        if args.pairs:
            report = campaign.pairs(names, method=args.method)
        else:
            report = campaign.singletons(names, method=args.method)
        print(report.summary())
        return 0 if not report.uncovered else 1

    if args.command == "interaction":
        generator = QueryGenerator(
            database, registry, seed=args.seed, service=service
        )
        outcome = generator.derived_interaction_query(
            args.producer, args.consumer
        )
        if not outcome.succeeded:
            print(
                f"no query found where {args.consumer} fires on "
                f"{args.producer}'s output ({outcome.trials} trials)"
            )
            return 1
        print(
            f"{args.consumer} exercised on an expression produced by "
            f"{args.producer} ({outcome.trials} trials):"
        )
        print(outcome.sql)
        return 0

    if args.command == "diff":
        return _run_diff(args, database, registry)

    if args.command == "mutate":
        return _run_mutate(args, database, registry)

    if args.command == "compress":
        return _run_compress(args, database, registry)

    if args.command == "campaign":
        from repro.testing.report import run_campaign

        names = registry.exploration_rule_names[: args.rules]
        result = run_campaign(
            database, registry, rule_names=names, k=args.k, seed=args.seed,
            service=service, mutation_sample=args.mutants,
        )
        text = result.to_markdown()
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
            print(f"report written to {args.output}")
        else:
            print(text)
        return 0 if result.passed else 1

    if args.command == "trace":
        return _run_trace(args, database, registry)

    if args.command == "analyze":
        import json as json_module
        from pathlib import Path

        from repro.analysis import (
            AnalysisReport,
            AstLinter,
            InteractionAnalyzer,
            RegistryLinter,
            RuleGate,
            Severity,
            SubstitutionVerifier,
            default_workloads,
        )

        analysis_registry = registry
        if args.fault:
            analysis_registry = registry.with_replaced_rule(
                ALL_FAULTS[args.fault]()
            )
        workloads = default_workloads(seed=args.seed or 1)
        docs_path = Path(__file__).resolve().parents[2] / "docs" / "RULES.md"
        report = AnalysisReport()
        if not args.skip_lint:
            linter = RegistryLinter(
                analysis_registry,
                workloads,
                samples_per_workload=args.seeds,
                seed=args.seed,
                docs_path=docs_path if docs_path.exists() else None,
            )
            report.merge(linter.run())
        if not args.skip_verify:
            verifier = SubstitutionVerifier(
                analysis_registry,
                workloads,
                samples_per_workload=args.seeds,
                seed=args.seed,
            )
            report.merge(verifier.run())
        if not args.skip_astlint:
            report.merge(AstLinter(analysis_registry).run())
        graph = None
        if args.interactions:
            analyzer = InteractionAnalyzer(
                analysis_registry, workloads, seed=args.seed
            )
            report.merge(analyzer.run())
            graph = analyzer.build_graph()
            if args.interactions_dot:
                Path(args.interactions_dot).write_text(graph.to_dot())
        verdicts = []
        if args.gate or args.gate_all:
            gate = RuleGate(analysis_registry, workloads=workloads)
            if args.gate:
                verdicts.append(
                    gate.check(args.gate, static_only=args.gate_static_only)
                )
            else:
                verdicts = gate.check_all(
                    static_only=args.gate_static_only
                )
        rejected = [v for v in verdicts if not v.admitted]
        if args.plans:
            report.merge(
                _sanitized_plan_smoke(
                    database, analysis_registry, args.plans, args.seed
                )
            )
        if args.json:
            payload = json_module.loads(report.to_json())
            if graph is not None:
                payload["interaction_graph"] = graph.to_json_dict()
            if verdicts:
                payload["gate"] = [v.to_dict() for v in verdicts]
                payload["gate_rejected"] = [v.rule_name for v in rejected]
            print(json_module.dumps(payload, indent=2, sort_keys=False))
        else:
            print(report.to_text())
            for verdict in verdicts:
                status = "ADMITTED" if verdict.admitted else "REJECTED"
                line = f"gate {verdict.rule_name}: {status}"
                if verdict.dynamic_status:
                    line += f" (dynamic: {verdict.dynamic_status})"
                print(line)
                for reason in verdict.reasons:
                    print(f"  - {reason}")
        threshold = (
            Severity.ERROR if args.fail_on == "error" else Severity.WARNING
        )
        if rejected:
            return 1
        return 1 if report.at_or_above(threshold) else 0

    raise AssertionError(f"unhandled command {args.command}")


def _selected_rules(args, registry):
    """Rule names a campaign subcommand targets: the explicit
    ``--rule-names`` list (validated against the registry) when given,
    else the first ``--rules`` registered exploration rules."""
    requested = getattr(args, "rule_names", None)
    if not requested:
        return registry.exploration_rule_names[: args.rules]
    known = set(registry.exploration_rule_names)
    unknown = sorted(set(requested) - known)
    if unknown:
        raise SystemExit(
            "unknown exploration rules: " + ", ".join(unknown)
        )
    return list(requested)


def _by_format(report):
    """``fmt -> str`` over a report's ``to_json`` / ``to_markdown`` /
    ``to_text``."""
    def render(fmt: str) -> str:
        if fmt == "json":
            return report.to_json()
        if fmt == "markdown":
            return report.to_markdown()
        return report.to_text()
    return render


def _emit_report(args, render, echo_text: bool) -> None:
    """Print ``render(args.format)``, or write it to ``--output``; with
    ``echo_text`` a json/markdown file still leaves the text form on
    stdout."""
    output = render(args.format)
    if not args.output:
        print(output)
        return
    with open(args.output, "w") as handle:
        handle.write(output + "\n")
    print(f"report written to {args.output}")
    if echo_text and args.format != "text":
        print(render("text"))


def _run_diff(args, database, registry) -> int:
    """The ``repro diff`` subcommand: run the differential backend fleet.

    Uses its own memory-only plan service: with ``--fault`` the registry
    is mutated, and mutated registries must never share the name-keyed
    persistent cache (a clean build's plans would be served back).
    """
    from repro.backends import create_backends
    from repro.obs import MetricsRegistry
    from repro.testing.differential import DifferentialRunner

    if args.fault:
        registry = registry.with_replaced_rule(ALL_FAULTS[args.fault]())
    service = PlanService(
        database, registry=registry, workers=args.workers, cache_dir=None
    )

    names = _selected_rules(args, registry)
    builder = TestSuiteBuilder(
        database, registry, seed=args.seed,
        extra_operators=args.extra_operators, service=service,
    )
    suite = builder.build(singleton_nodes(names), k=args.k)

    requested = [
        name.strip() for name in args.backends.split(",") if name.strip()
    ]
    try:
        backends, skipped = create_backends(
            requested, database, registry=registry, service=service
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for name, reason in sorted(skipped.items()):
        print(f"skipping backend {name}: {reason}", file=sys.stderr)
    if len(backends) < 2:
        print(
            "differential testing needs at least two available backends "
            f"(got {[backend.name for backend in backends]})",
            file=sys.stderr,
        )
        return 2

    runner = DifferentialRunner(
        database, backends,
        skipped_backends=skipped, metrics=MetricsRegistry(),
    )
    report = runner.run(
        suite,
        suite_info={
            "seed": args.seed,
            "database": args.database,
            "rules": list(names),
            "k": args.k,
            "extra_operators": args.extra_operators,
            "fault": args.fault,
        },
    )

    _emit_report(args, _by_format(report), echo_text=True)
    if args.collect_out:
        with open(args.collect_out, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"collect artifact written to {args.collect_out}")
    return 0 if report.passed else 1


def _run_mutate(args, database, registry) -> int:
    """The ``repro mutate`` subcommand: run the mutation campaign.

    Per-mutant plan services are memory-only (mutated registries must not
    share the name-keyed persistent cache), so the global ``--no-cache``
    flag is irrelevant here; ``--workers`` is honoured per mutant.
    """
    from repro.obs import MetricsRegistry
    from repro.testing.mutation import (
        DEFAULT_OPERATORS,
        MutationCampaign,
    )

    if args.list_operators:
        for operator in DEFAULT_OPERATORS:
            print(f"{operator.name:<20} {operator.description}")
        return 0

    metrics = MetricsRegistry()
    campaign = MutationCampaign(
        database,
        registry,
        pool=args.pool,
        k=args.k,
        seed=args.seed,
        seeds=args.pool_seeds,
        extra_operators=args.extra_operators,
        workers=args.workers,
        metrics=metrics,
    )
    names = _selected_rules(args, registry)
    report = campaign.run(
        names, operators=args.operators, sample=args.sample
    )

    _emit_report(args, _by_format(report), echo_text=True)

    score = report.detection_score("FULL")
    if args.fail_under is not None:
        if score is None or score < args.fail_under:
            shown = "n/a" if score is None else f"{score:.0%}"
            print(
                f"FAILED: FULL detection score {shown} below "
                f"--fail-under {args.fail_under:.0%}"
            )
            return 1
    return 0


def _run_compress(args, database, registry) -> int:
    """The ``repro compress`` subcommand: detection-aware compression.

    Consumes a kill matrix -- either a saved ``repro mutate --format
    json`` artifact (``--matrix``) or a fresh campaign run here -- and
    optimizes the compressed suite for mutant *detection* instead of
    bare rule coverage.  All outputs are deterministic functions of the
    matrix (see docs/COMPRESSION.md).
    """
    import json as json_module

    from repro.obs import MetricsRegistry
    from repro.testing.detection import (
        DetectionError,
        KillMatrix,
        cross_validated_scores,
        detection_plan,
        pareto_report,
        render_coverage,
        render_detection,
        score_selection,
    )

    metrics = MetricsRegistry()
    if args.matrix:
        try:
            with open(args.matrix) as handle:
                payload = json_module.load(handle)
            if isinstance(payload, dict) and "slot_costs" in payload:
                # the distilled form written by --matrix-out; it carries
                # no campaign summary, so coverage contrast is unavailable
                matrix = KillMatrix.from_json_dict(payload)
                payload = None
            else:
                matrix = KillMatrix.from_report_dict(payload)
        except (OSError, ValueError, KeyError, DetectionError) as exc:
            print(f"cannot load kill matrix: {exc}", file=sys.stderr)
            return 2
        if args.objective == "coverage" and payload is None:
            print(
                "the coverage objective rescores the campaign's own "
                "SMC/TOPK variants and needs the full `repro mutate "
                "--format json` artifact, not a distilled --matrix-out "
                "file",
                file=sys.stderr,
            )
            return 2
    else:
        from repro.testing.mutation import MutationCampaign

        backends = None
        if args.differential:
            backends = [
                name.strip()
                for name in args.differential.split(",") if name.strip()
            ]
        campaign = MutationCampaign(
            database,
            registry,
            pool=args.pool,
            k=args.k,
            seed=args.seed,
            seeds=args.pool_seeds,
            extra_operators=args.extra_operators,
            workers=args.workers,
            metrics=metrics,
            differential_backends=backends,
        )
        names = registry.exploration_rule_names[: args.rules]
        report = campaign.run(names, sample=args.sample)
        payload = report.to_dict()
        matrix = KillMatrix.from_report_dict(payload)

    if args.matrix_out:
        with open(args.matrix_out, "w") as handle:
            handle.write(json_module.dumps(
                matrix.to_json_dict(), indent=2, sort_keys=True
            ) + "\n")
        print(f"kill matrix written to {args.matrix_out}")

    adaptive = not args.no_adaptive
    want_pareto = args.objective == "pareto" or bool(args.pareto_out)
    pareto = None
    if want_pareto:
        pareto = pareto_report(
            matrix,
            report=payload,
            ks=tuple(args.ks) if args.ks else (1, 2, 3, 4, 6),
            base_k=args.base_k,
            max_k=args.max_k,
            cross_validate=not args.no_cross_validate,
            metrics=metrics,
        )
        if args.pareto_out:
            with open(args.pareto_out, "w") as handle:
                handle.write(pareto.to_json() + "\n")
            print(f"pareto artifact written to {args.pareto_out}")

    if args.objective == "pareto":
        gate_rate = _pareto_gate_rate(pareto, args.base_k)
        render = _by_format(pareto)
    elif args.objective == "detection":
        plan = detection_plan(
            matrix, base_k=args.base_k, adaptive=adaptive,
            max_k=args.max_k, metrics=metrics,
        )
        score = score_selection(matrix, plan.selected, metrics=metrics)
        cross = None
        if not args.no_cross_validate:
            cross = cross_validated_scores(
                matrix, base_k=args.base_k, adaptive=adaptive,
                max_k=args.max_k,
            )
        gate_rate = score.rate
        render = partial(render_detection, matrix, plan, score, cross)
    else:  # coverage: the campaign's own k-coverage variants, rescored
        summary = payload.get("summary", {})
        smc = summary.get("SMC", {})
        gate_rate = smc.get("detection_score")
        render = partial(render_coverage, matrix, payload)

    _emit_report(args, render, echo_text=False)

    if args.fail_under is not None:
        if gate_rate is None or gate_rate < args.fail_under:
            shown = "n/a" if gate_rate is None else f"{gate_rate:.0%}"
            print(
                f"FAILED: {args.objective} objective detection rate "
                f"{shown} below --fail-under {args.fail_under:.0%}"
            )
            return 1
    return 0


def _pareto_gate_rate(pareto, base_k: int):
    """The rate ``--fail-under`` gates in pareto mode: the adaptive
    detection point (the suite the objective recommends)."""
    point = pareto.point(f"detection-adaptive-k{base_k}")
    return None if point is None else point.detection_rate


def _run_trace(args, database, registry) -> int:
    """The ``repro trace`` subcommand: optimize with a recording tracer.

    Runs against a fresh in-memory-only service (no disk cache) so the
    event sequence depends only on the seed and the query -- the JSON
    export is byte-identical across runs.
    """
    import json

    from repro.obs import MetricsRegistry, RecordingTracer
    from repro.testing.generator import QueryGenerator

    tracer = RecordingTracer(detail=args.detail)
    metrics = MetricsRegistry()
    service = PlanService(
        database, registry=registry, workers=args.workers,
        cache_dir=None, tracer=tracer, metrics=metrics,
    )
    config = DEFAULT_CONFIG.with_disabled(args.disable)

    if args.campaign:
        from repro.testing.report import run_campaign

        names = registry.exploration_rule_names[: args.rules]
        run_campaign(
            database, registry, rule_names=names, k=args.k,
            seed=args.seed, service=service,
        )
        subject = f"campaign over {len(names)} rules (k={args.k})"
    else:
        if args.rule:
            # Generate without tracing so the archive holds one clean
            # optimization of the final query, not every trial.
            generator = QueryGenerator(
                database, registry, seed=args.seed,
                service=PlanService(database, registry=registry, cache_dir=None),
            )
            outcome = generator.pattern_query_for_rule(args.rule)
            if not outcome.succeeded:
                print(
                    f"FAILED to generate a query exercising {args.rule} "
                    f"in {outcome.trials} trials"
                )
                return 1
            tree, subject = outcome.tree, f"rule {args.rule}: {outcome.sql}"
        else:
            tree = sql_to_tree(args.sql, database.catalog)
            subject = args.sql
        result = service.optimize(tree, config)
        # Execute the optimized plan under the same tracer/metrics so the
        # archive carries per-operator exec spans (rows in/out, batch
        # counts) and the exec.* counters next to the optimizer series.
        execute_plan(
            result.plan, database, result.output_columns,
            tracer=tracer, metrics=metrics,
        )

    if args.format == "json":
        output = json.dumps(
            {
                "trace": {
                    "capacity": tracer.capacity,
                    "dropped": tracer.dropped,
                    "events": [
                        event.deterministic_dict()
                        for event in tracer.events
                    ],
                },
                "metrics": metrics.snapshot(),
            },
            indent=2,
            sort_keys=True,
        )
    elif args.format == "chrome":
        output = tracer.to_chrome_json()
    else:
        output = _trace_text(subject, tracer, metrics, args.top)

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(output + "\n")
        print(f"trace written to {args.out}")
    else:
        print(output)
    return 0


def _trace_text(subject, tracer, metrics, top: int) -> str:
    lines: List[str] = []
    lines.append(f"traced: {subject}")
    lines.append(
        f"events: {len(tracer.events)} recorded, {tracer.dropped} dropped"
    )
    counts = tracer.counts_by_name()
    summary = ", ".join(
        f"{name}={count}" for name, count in sorted(counts.items())
    )
    lines.append(f"by name: {summary}")
    lines.append("")
    rows = metrics.rule_table()
    lines.append(f"hot rules (top {min(top, len(rows))} of {len(rows)}):")
    lines.append(f"{'rule':<32} {'considered':>10} {'fired':>6} {'rejected':>8}")
    for rule, considered, fired, rejected in rows[:top]:
        lines.append(f"{rule:<32} {considered:>10} {fired:>6} {rejected:>8}")
    lines.append("")
    optimizations = metrics.counter_value("optimizer.optimizations")
    costings = metrics.counter_value("optimizer.costings")
    lines.append(
        f"optimizations: {optimizations}, costings: {costings}, "
        f"service requests: "
        f"{metrics.counter_value('service.requests')} "
        f"({metrics.counter_value('service.memory_hits')} memory hits)"
    )
    executions = metrics.counter_value("exec.executions", executor="columnar")
    if executions:
        lines.append(
            f"executions: {executions}, result rows: "
            f"{metrics.counter_value('exec.rows')}"
        )
    return "\n".join(lines)


def _sanitized_plan_smoke(database, registry, count: int, seed: int):
    """Optimize random queries with the plan sanitizer on, and assert cost
    monotonicity against single-rule-disabled re-optimizations."""
    from repro.analysis import (
        AnalysisReport,
        Diagnostic,
        MonotonicityGuard,
        PlanSanityError,
        Severity,
    )
    from repro.optimizer.result import OptimizationError
    from repro.testing.builders import GenerationFailure
    from repro.testing.random_gen import RandomQueryGenerator

    service = PlanService(database, registry=registry)
    generator = RandomQueryGenerator(
        database.catalog, seed=seed, stats=service.stats
    )
    config = DEFAULT_CONFIG.replaced(sanitize_plans=True)
    exploration = {rule.name for rule in registry.exploration_rules}
    guard = MonotonicityGuard()
    report = AnalysisReport()
    produced = 0
    attempts = 0
    while produced < count and attempts < count * 4:
        attempts += 1
        try:
            tree = generator.random_tree()
        except GenerationFailure:
            continue
        try:
            base = service.optimize(tree, config)
        except PlanSanityError as exc:
            report.add(
                Diagnostic(
                    code=exc.code,
                    severity=Severity.ERROR,
                    message=str(exc),
                    location=f"plan {produced}",
                )
            )
            produced += 1
            continue
        except OptimizationError:
            continue
        produced += 1
        report.count("plans_sanitized")
        for rule_name in sorted(base.rules_exercised & exploration)[:3]:
            try:
                restricted = service.optimize(
                    tree, config.with_disabled([rule_name])
                )
            except OptimizationError:
                continue
            if (
                base.stats.budget_exhausted
                or restricted.stats.budget_exhausted
            ):
                # A truncated search space is not a superset of the
                # restricted one, so the invariant does not apply.
                continue
            guard.observe(
                f"query {produced}", base.cost, restricted.cost, (rule_name,)
            )
            report.count("monotonicity_checks")
    report.extend(guard.violations)
    return report


if __name__ == "__main__":
    sys.exit(main())
