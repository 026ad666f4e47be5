"""Command-line interface for the testing framework: ``python -m repro
<command>`` (README.md, "Command line", walks through the commands).

Every command is seeded and deterministic; the exit code is non-zero when a
campaign fails or a correctness bug is found (so the CLI can gate CI).

The module is a shell over the library.  Every option is declared once
(:class:`_Option`; the ones several commands take are module constants a
command re-attaches with its own default and help), every subcommand
registers ``(options, handler)`` in :data:`COMMANDS` through
:func:`command`, and :func:`main` parses and dispatches.  A handler takes
what it needs from the lazy :class:`_Session` -- database, registry, a
plan service -- calls the library, and emits.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import analysis
from repro.backends import create_backends
from repro.engine import execute_plan, explain_analyze
from repro.obs import MetricsRegistry, RecordingTracer
from repro.optimizer.config import DEFAULT_CONFIG
from repro.optimizer.result import OptimizationError
from repro.rules.faults import ALL_FAULTS
from repro.rules.registry import default_registry
from repro.service import (
    PlanService,
    cache_stats,
    clear_cache,
    default_cache_dir,
)
from repro.sql.binder import BindError, sql_to_tree
from repro.sql.lexer import LexError
from repro.sql.parser import ParseError
from repro.testing import detection
from repro.testing.compression import COMPRESSION_METHODS
from repro.testing.correctness import CorrectnessRunner
from repro.testing.coverage import CoverageCampaign
from repro.testing.differential import DifferentialRunner
from repro.testing.generator import QueryGenerator
from repro.testing.mutation import DEFAULT_OPERATORS, MutationCampaign
from repro.testing.report import run_campaign
from repro.testing.suite import CostOracle, rule_suite, select_rules
from repro.workloads import star_database, tpch_database

# ------------------------------------------------------------------ options


class _Option:
    """One ``add_argument`` call, declared once.

    Calling an option returns the same option with a command's own
    keywords (default, help, ``required``) laid over the shared ones.
    """

    def __init__(self, *flags: str, **spec) -> None:
        self.flags = flags
        self.spec = spec

    def __call__(self, **spec) -> "_Option":
        return _Option(*self.flags, **{**self.spec, **spec})


class _OneOf:
    """A required, mutually exclusive group of options."""

    def __init__(self, *options: _Option) -> None:
        self.options = options


def _add_options(parser, options) -> None:
    for option in options:
        if isinstance(option, _OneOf):
            _add_options(
                parser.add_mutually_exclusive_group(required=True),
                option.options,
            )
        else:
            parser.add_argument(*option.flags, **option.spec)


GLOBAL_OPTIONS = (
    _Option(
        "--seed", type=int, default=0, help="seed for database and generators"
    ),
    _Option(
        "--database", choices=["tpch", "star"], default="tpch",
        help="which built-in test database to run against",
    ),
    _Option(
        "--workers", type=int, default=None,
        help="worker processes for batched plan/cost requests (default: "
        "the usable CPUs; 1 computes in-process)",
    ),
    _Option(
        "--no-cache", action="store_true",
        help="disable the plan service's in-memory and on-disk caches",
    ),
)

# Options more than one command takes; each command attaches them with its
# own default and help.
# -- rule selection
RULES = _Option("--rules", type=int)
RULE_NAMES = _Option("--rule-names", nargs="+", default=None, metavar="RULE")
K = _Option("--k", type=int)
EXTRA_OPERATORS = _Option(
    "--extra-operators", type=int,
    help="extra random operators wrapped around generated queries",
)
# -- report rendering
FORMAT = _Option(
    "--format", choices=["text", "json", "markdown"], default="text"
)
OUTPUT = _Option(
    "--output", help="write the report to this file instead of stdout"
)
# -- the rest
SQL = _Option("--sql")
RULE = _Option("--rule")
GENERATION_METHOD = _Option(
    "--method", choices=["pattern", "random"], default="pattern"
)
FAULT = _Option("--fault", choices=sorted(ALL_FAULTS))
FAIL_UNDER = _Option(
    "--fail-under", type=float, default=None, metavar="FRACTION"
)
DISABLE = _Option(
    "--disable", action="append", default=[],
    help="rule name to disable (repeatable)",
)

#: What a query named on the command line can fail with: SQL that does
#: not lex, parse or bind, or a query with no plan (under ``--disable``).
QUERY_ERRORS = (LexError, ParseError, BindError, OptimizationError)

# ----------------------------------------------------------------- commands


class Command(NamedTuple):
    help: str
    options: Tuple
    handler: Callable[[argparse.Namespace, "_Session"], int]


#: Every subcommand, in ``--help`` order; filled in by :func:`command`.
COMMANDS: Dict[str, Command] = {}


def command(name: str, help: str, *options):
    """Register the decorated handler as subcommand ``name``."""

    def register(handler):
        COMMANDS[name] = Command(help, options, handler)
        return handler

    return register


class _Session:
    """What a handler may ask for; each resource is built on first use, so
    a command pays only for what it touches."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        #: Every plan service handed out, closed with the session.
        self._services: List[PlanService] = []

    def __enter__(self) -> "_Session":
        return self

    def __exit__(self, *exc) -> None:
        for service in self._services:
            service.close()

    @cached_property
    def database(self):
        build = star_database if self.args.database == "star" else tpch_database
        return build(seed=self.args.seed)

    @cached_property
    def registry(self):
        """The default registry -- with ``--fault``'s seeded buggy variant
        swapped in, for the commands that take that option."""
        registry = default_registry()
        fault = getattr(self.args, "fault", None)
        if fault:
            registry = registry.with_replaced_rule(ALL_FAULTS[fault]())
        return registry

    @cached_property
    def service(self) -> PlanService:
        """The persistent service: cached on disk under
        ``$REPRO_CACHE_DIR`` and in memory unless ``--no-cache``."""
        return self._keep(PlanService(
            self.database,
            registry=self.registry,
            workers=self.args.workers,
            cache_dir=None if self.args.no_cache else default_cache_dir(),
            memory_cache=not self.args.no_cache,
        ))

    def memory_service(self, **hooks) -> PlanService:
        """A fresh memory-only service, for runs whose counts, verdicts or
        event sequence must not depend on what an earlier run cached."""
        return self._keep(PlanService(
            self.database, registry=self.registry,
            workers=self.args.workers, cache_dir=None, **hooks,
        ))

    def _keep(self, service: PlanService) -> PlanService:
        self._services.append(service)
        return service

    def unknown_rule(self) -> Optional[str]:
        """The first rule an option names (``--rule``, ``--pair``,
        ``--producer``, ``--consumer``, ``--gate``, ``--disable``) that the
        registry lacks."""
        args = self.args
        named = [
            getattr(args, option, None)
            for option in ("rule", "pair", "producer", "consumer", "gate")
        ]
        named += getattr(args, "disable", ())
        return next(
            (name for name in named if name and name not in self.registry),
            None,
        )

    def rule_names(self) -> List[str]:
        """``--rule-names`` when the command has it and it was given, else
        the first ``--rules`` exploration rules."""
        try:
            return select_rules(
                self.registry, self.args.rules,
                getattr(self.args, "rule_names", None),
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None

    def generator(self) -> QueryGenerator:
        return QueryGenerator(
            self.database, self.registry, seed=self.args.seed,
            service=self.service,
        )


def _refuse(message: object) -> int:
    """Exit code 2, with ``message`` on stderr: the command could not run
    on what it was given."""
    print(message, file=sys.stderr)
    return 2


def _emit(text: str, path: Optional[str] = None, label: str = "report",
          end: str = "\n") -> None:
    """Print ``text``, or write it (plus ``end``) to ``path`` and say so."""
    if not path:
        print(text)
        return
    with open(path, "w") as handle:
        handle.write(text + end)
    print(f"{label} written to {path}")


def _emit_report(args, report) -> None:
    """``report`` as ``--format`` to stdout or ``--output``; a json or
    markdown file still leaves the text form on stdout."""
    renderers = {"json": report.to_json, "markdown": report.to_markdown}
    _emit(renderers.get(args.format, report.to_text)(), args.output)
    if args.output and args.format != "text":
        print(report.to_text())


def _fails_under(args, rate: Optional[float], what: str) -> int:
    """Exit code of the ``--fail-under`` gate over a detection ``rate``."""
    if args.fail_under is None or (
        rate is not None and rate >= args.fail_under
    ):
        return 0
    shown = "n/a" if rate is None else f"{rate:.0%}"
    print(f"FAILED: {what} {shown} below --fail-under {args.fail_under:.0%}")
    return 1


def _generation_failed(outcome) -> int:
    target = " + ".join(outcome.target_rules)
    print(
        f"FAILED to generate a query exercising {target} in "
        f"{outcome.trials} trials"
    )
    return 1


def _names(text: str) -> List[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


@command("ddl", "print the test database schema")
def _ddl(args, env) -> int:
    print(env.database.catalog.ddl())
    print()
    print(env.database.describe())
    return 0


@command(
    "rules", "list transformation rules",
    _Option("--patterns", action="store_true", help="include pattern XML"),
)
def _rules(args, env) -> int:
    registry = env.registry
    for kind, rules in (
        ("exploration", registry.exploration_rules),
        ("implementation", registry.implementation_rules),
    ):
        for rule in rules:
            print(f"{rule.name:<28} {kind}")
            if args.patterns:
                print(f"    {registry.pattern_xml(rule.name)}")
    return 0


@command(
    "generate", "generate a query exercising a rule (or pair)",
    RULE(required=True),
    _Option("--pair", help="second rule for pair generation"),
    GENERATION_METHOD,
    _Option("--max-trials", type=int, default=None),
    EXTRA_OPERATORS(
        default=0, help="wrap the result in N extra random operators"
    ),
)
def _generate(args, env) -> int:
    node = (args.rule, args.pair) if args.pair else (args.rule,)
    max_trials = args.max_trials
    if max_trials is None and args.pair and args.method == "pattern":
        max_trials = 60  # this command's allowance; the library's is 50
    outcome = env.generator().query_for_node(
        node, args.method, max_trials, args.extra_operators
    )
    if not outcome.succeeded:
        return _generation_failed(outcome)
    print(f"target rule(s): {' + '.join(outcome.target_rules)}")
    print(f"trials: {outcome.trials}")
    print(f"operators: {outcome.operator_count}")
    print(f"sql: {outcome.sql}")
    return 0


@command(
    "optimize", "optimize a SQL query and show plan + RuleSet",
    SQL(required=True),
    DISABLE,
    _Option(
        "--execute", action="store_true", help="also execute and show rows"
    ),
)
def _optimize(args, env) -> int:
    database = env.database
    try:
        result = env.service.optimize(
            sql_to_tree(args.sql, database.catalog),
            DEFAULT_CONFIG.with_disabled(args.disable),
        )
    except QUERY_ERRORS as exc:
        return _refuse(f"{type(exc).__name__}: {exc}")
    print(f"cost: {result.cost:.3f}")
    exploration = set(env.registry.exploration_rule_names)
    print("RuleSet(q):", ", ".join(sorted(result.rules_exercised & exploration)))
    if args.execute:
        print(explain_analyze(result.plan, database))
        output = execute_plan(result.plan, database, result.output_columns)
        print(output.to_text())
    else:
        print(result.plan.pretty())
    return 0


@command(
    "correctness", "run a compressed correctness test suite",
    RULES(default=8),
    K(default=3),
    _Option("--method", choices=["baseline", "smc", "topk"], default="topk"),
)
def _correctness(args, env) -> int:
    database, registry, service = env.database, env.registry, env.service
    suite = rule_suite(
        database, registry, env.rule_names(), args.k, seed=args.seed,
        service=service,
    )
    oracle = CostOracle(database, registry, service=service)
    plan = COMPRESSION_METHODS[args.method.upper()](suite, oracle)
    print(
        f"{plan.method}: estimated execution cost "
        f"{plan.total_cost:.1f}, {len(plan.selected_query_ids)} queries"
    )
    report = CorrectnessRunner(database, registry, service=service).run(
        plan, suite
    )
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


@command(
    "diff",
    "differential campaign: fan a generated suite across a "
    "fleet of execution backends (see docs/BACKENDS.md)",
    _Option(
        "--backends", default="engine,sqlite",
        help="comma-separated fleet; the first member is the reference "
        "(default engine,sqlite; duckdb joins when installed)",
    ),
    RULES(
        default=6,
        help="exploration rules the suite is generated for (default 6)",
    ),
    RULE_NAMES(
        help="generate the suite for exactly these exploration rules "
        "(overrides --rules; e.g. the subquery-unnesting family)",
    ),
    K(default=2, help="queries per rule (default 2)"),
    EXTRA_OPERATORS(default=2),
    FAULT(
        help="replace a rule with its seeded buggy variant first (the "
        "fleet should then disagree -- a self-test of the oracle)",
    ),
    FORMAT,
    OUTPUT,
    _Option(
        "--collect-out", metavar="PATH",
        help="also write the deterministic JSON collect artifact to PATH",
    ),
)
def _diff(args, env) -> int:
    database, registry = env.database, env.registry
    service = env.memory_service()
    names = env.rule_names()
    suite = rule_suite(
        database, registry, names, args.k, seed=args.seed,
        extra_operators=args.extra_operators, service=service,
    )
    try:
        backends, skipped = create_backends(_names(args.backends), service)
        for name, reason in sorted(skipped.items()):
            print(f"skipping backend {name}: {reason}", file=sys.stderr)
        runner = DifferentialRunner(
            database, backends, skipped_backends=skipped,
        )
    except ValueError as exc:  # unknown name, or a fleet of fewer than two
        return _refuse(exc)
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
    _emit_report(args, report)
    if args.collect_out:
        _emit(report.to_json(), args.collect_out, "collect artifact")
    return 0 if report.passed else 1


@command(
    "coverage", "rule-coverage campaign over the rule library",
    RULES(default=10),
    GENERATION_METHOD,
    _Option("--pairs", action="store_true"),
)
def _coverage(args, env) -> int:
    campaign = CoverageCampaign(env.generator())
    run = campaign.pairs if args.pairs else campaign.singletons
    report = run(env.rule_names(), method=args.method)
    print(report.summary())
    return 0 if not report.uncovered else 1


@command(
    "interaction",
    "generate a query with a derived rule interaction (Section 7)",
    _Option("--producer", required=True),
    _Option("--consumer", required=True),
)
def _interaction(args, env) -> int:
    outcome = env.generator().derived_interaction_query(
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


@command(
    "campaign",
    "full pipeline (coverage + compression + correctness) as a "
    "markdown report",
    RULES(default=10),
    K(default=3),
    OUTPUT(help="write the markdown report to this file"),
)
def _campaign(args, env) -> int:
    result = run_campaign(
        env.database, env.registry, rule_names=env.rule_names(), k=args.k,
        seed=args.seed, service=env.service,
    )
    _emit(result.to_markdown(), args.output, end="")
    return 0 if result.passed else 1


@command(
    "mutate",
    "mutation campaign: auto-generated rule faults scored "
    "against full vs compressed suites (see docs/TESTING.md)",
    RULES(
        default=10, help="number of exploration rules to mutate (default 10)"
    ),
    RULE_NAMES(
        help="mutate exactly these exploration rules (overrides --rules)"
    ),
    _Option(
        "--operators", action="append", default=None, metavar="NAME",
        help="mutation operator to apply, repeatable (default: all; see "
        "`repro mutate --list-operators`)",
    ),
    _Option(
        "--list-operators", action="store_true",
        help="list available mutation operators and exit",
    ),
    _Option(
        "--pool", type=int, default=8,
        help="queries regenerated per mutant -- the FULL suite (default 8)",
    ),
    K(
        default=2,
        help="queries the compressed suites (SMC/TOPK) select (default 2)",
    ),
    _Option(
        "--sample", type=int, default=None, metavar="N",
        help="stride-sample the mutant set down to at most N mutants "
        "(CI smoke mode)",
    ),
    EXTRA_OPERATORS(default=4),
    _Option(
        "--pool-seeds", type=int, nargs="+", default=None, metavar="SEED",
        help="generation seeds whose per-mutant pools are unioned "
        "(default: the global --seed; more seeds = more detection power)",
    ),
    _Option(
        "--differential", metavar="BACKENDS", default=None,
        help="comma-separated backend fleet folded in as a second kill "
        "oracle (first must be 'engine', e.g. engine,sqlite)",
    ),
    FORMAT,
    OUTPUT,
    FAIL_UNDER(
        help="exit non-zero when the FULL suite's detection score over "
        "expected-detectable mutants is below this fraction (e.g. 0.9)",
    ),
)
def _mutate(args, env) -> int:
    if args.list_operators:
        for operator in DEFAULT_OPERATORS:
            print(f"{operator.name:<20} {operator.description}")
        return 0
    # Per-mutant plan services are memory-only (a campaign must not
    # depend on what an earlier run cached), so --no-cache is irrelevant
    # here.  They are short-lived, so they compute in-process unless
    # --workers is given.
    try:
        campaign = MutationCampaign(
            env.database,
            env.registry,
            pool=args.pool,
            k=args.k,
            seeds=args.pool_seeds or (args.seed,),
            extra_operators=args.extra_operators,
            workers=args.workers or 1,
            differential_backends=_names(args.differential or ""),
        )
    except ValueError as exc:  # k above the pool, or a fleet not led by engine
        return _refuse(exc)
    report = campaign.run(
        env.rule_names(), operators=args.operators, sample=args.sample
    )
    _emit_report(args, report)
    return _fails_under(
        args, report.detection_score("FULL"), "FULL detection score"
    )


@command(
    "compress",
    "detection-aware suite compression over a mutation kill "
    "matrix (see docs/COMPRESSION.md)",
    _Option(
        "--matrix", metavar="PATH", required=True,
        help="the kill matrix: a `repro mutate --format json` artifact",
    ),
    _Option(
        "--base-k", type=int, default=2, metavar="K",
        help="per-rule budget of the adaptive plan (default 2; matches "
        "the campaign's k for a like-for-like comparison)",
    ),
    _Option(
        "--ks", type=int, nargs="+", default=None, metavar="K",
        help="fixed budgets swept into the frontier (default 1 2 3 4 6)",
    ),
    _Option(
        "--max-k", type=int, default=None, metavar="K",
        help="cap for adaptive budget raises (default: the pool size)",
    ),
    _Option(
        "--no-cross-validate", action="store_true",
        help="skip the leave-one-out generalization score (faster on "
        "large matrices)",
    ),
    FORMAT,
    OUTPUT,
    FAIL_UNDER(
        help="exit non-zero when the adaptive plan's detection rate over "
        "expected-detectable mutants is below this fraction",
    ),
)
def _compress(args, env) -> int:
    """Every output is a deterministic function of the kill matrix (see
    docs/COMPRESSION.md)."""
    try:
        with open(args.matrix) as handle:
            payload = json.load(handle)
        report = detection.pareto_report(
            detection.KillMatrix.from_report_dict(payload),
            report=payload,
            ks=args.ks,
            base_k=args.base_k,
            max_k=args.max_k,
            cross_validate=not args.no_cross_validate,
        )
    except (
        OSError, ValueError, KeyError, TypeError, AttributeError,
        detection.DetectionError,
    ) as exc:  # unreadable, not JSON, or not shaped like the artifact
        return _refuse(f"cannot load kill matrix: {exc!r}")
    _emit_report(args, report)
    return _fails_under(
        args, report.score.rate, "adaptive plan detection rate"
    )


@command(
    "analyze",
    "static analysis: lint the registry and verify substitutions "
    "symbolically (see docs/ANALYSIS.md)",
    _Option("--json", action="store_true", help="emit the report as JSON"),
    _Option(
        "--seeds", type=int, default=6,
        help="bindings synthesized per rule per workload",
    ),
    _Option(
        "--skip-lint", action="store_true", help="skip the registry lint"
    ),
    _Option(
        "--skip-verify", action="store_true",
        help="skip symbolic substitution verification",
    ),
    _Option(
        "--skip-astlint", action="store_true",
        help="skip the implementation AST lint",
    ),
    _Option(
        "--interactions", action="store_true",
        help="compute the rule-interaction graph (IG4xx) and include it "
        "in the report (JSON mode adds an 'interaction_graph' key)",
    ),
    _Option(
        "--interactions-dot", metavar="PATH",
        help="with --interactions: write the confirmed-edge subgraph as "
        "Graphviz DOT to PATH",
    ),
    _Option(
        "--gate", metavar="RULE",
        help="run the admission gate on one rule of the (possibly "
        "fault-injected) registry; a rejection exits non-zero",
    ),
    _Option(
        "--gate-all", action="store_true",
        help="run the admission gate on every exploration rule",
    ),
    _Option(
        "--gate-static-only", action="store_true",
        help="skip the gate's dynamic differential check (the gate always "
        "uses its own calibrated TPC-H build, not --database/--seed)",
    ),
    _Option(
        "--plans", type=int, default=0, metavar="N",
        help="additionally optimize N random queries with the plan "
        "sanitizer enabled and assert cost monotonicity",
    ),
    FAULT(
        help="replace a rule with its seeded buggy variant before analyzing"
    ),
    _Option(
        "--fail-on", choices=["error", "warning"], default="error",
        help="lowest severity that makes the exit code non-zero",
    ),
)
def _analyze(args, env) -> int:
    registry = env.registry
    workloads = analysis.default_workloads(seed=args.seed or 1)
    report = analysis.AnalysisReport()
    graph = None
    for static in analysis.STATIC_PASSES:
        selected = (
            getattr(args, static.name) if static.opt_in
            else not getattr(args, f"skip_{static.name}")
        )
        if not selected:
            continue
        # --seeds sizes the passes of a plain run; an opt-in pass keeps
        # the sample count its committed artifact was generated at
        analyzer = static.build(
            registry, workloads, seed=args.seed,
            samples_per_workload=None if static.opt_in else args.seeds,
        )
        report.merge(analyzer.run())
        if static.name == "interactions":
            graph = analyzer.build_graph()
    if graph is not None and args.interactions_dot:
        Path(args.interactions_dot).write_text(graph.to_dot())
    verdicts = []
    if args.gate or args.gate_all:
        gate = analysis.RuleGate(registry, workloads=workloads)
        if args.gate:
            verdicts = [gate.check(args.gate, static_only=args.gate_static_only)]
        else:
            verdicts = gate.check_all(static_only=args.gate_static_only)
    rejected = [v for v in verdicts if not v.admitted]
    if args.plans:
        report.merge(
            analysis.sanitized_plan_smoke(env.database, registry, args.plans, args.seed)
        )
    if args.json:
        payload = json.loads(report.to_json())
        if graph is not None:
            payload["interaction_graph"] = graph.to_json_dict()
        if verdicts:
            payload["gate"] = [v.to_dict() for v in verdicts]
            payload["gate_rejected"] = [v.rule_name for v in rejected]
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(report.to_text())
        for verdict in verdicts:
            print(verdict.to_text())
    threshold = analysis.Severity(args.fail_on)
    return 1 if rejected or report.at_or_above(threshold) else 0


@command(
    "trace",
    "optimize with tracing enabled and show rule firing counts "
    "(see docs/OBSERVABILITY.md)",
    _OneOf(
        SQL(help="trace the optimization of this SQL query"),
        RULE(help="generate a query exercising this rule, then trace it"),
        _Option(
            "--campaign", action="store_true",
            help="trace a full testing campaign",
        ),
    ),
    _Option(
        "--format", choices=["text", "json", "chrome"], default="text",
        help="text: rule table; json: deterministic event dump; chrome: "
        "chrome://tracing / Perfetto trace-event JSON",
    ),
    _Option(
        "--top", type=int, default=10, metavar="N",
        help="rows in the hot-rule table (text format, default 10)",
    ),
    RULES(default=6, help="rules under test for --campaign (default 6)"),
    K(default=2, help="queries per rule"),
    DISABLE,
    _Option(
        "--detail", choices=["full", "summary"], default="full",
        help="full: every rule attempt / memo insert / costing as an "
        "event; summary: low-volume events only (counts stay exact)",
    ),
    _Option("--out", help="write the trace to this file instead of stdout"),
)
def _trace(args, env) -> int:
    database, registry = env.database, env.registry
    tracer = RecordingTracer(detail=args.detail)
    metrics = MetricsRegistry()
    service = env.memory_service(tracer=tracer, metrics=metrics)
    result = None
    if args.campaign:
        names = env.rule_names()
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
                service=env.memory_service(),
            )
            outcome = generator.pattern_query_for_rule(args.rule)
            if not outcome.succeeded:
                return _generation_failed(outcome)
            tree, subject = outcome.tree, f"rule {args.rule}: {outcome.sql}"
        else:
            tree, subject = None, args.sql
        try:
            if tree is None:
                tree = sql_to_tree(args.sql, database.catalog)
            result = service.optimize(
                tree, DEFAULT_CONFIG.with_disabled(args.disable)
            )
        except QUERY_ERRORS as exc:
            return _refuse(f"{type(exc).__name__}: {exc}")
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
                "trace": json.loads(tracer.to_json()),
                "metrics": metrics.snapshot(),
                "service": service.counters.as_dict(),
            },
            indent=2,
            sort_keys=True,
        )
    elif args.format == "chrome":
        output = tracer.to_chrome_json()
    else:
        output = tracer.to_text(subject, metrics, service.counters, args.top)
        if result is not None:
            # Section 7's relevance: the rules the chosen plan's cost
            # rests on.
            output += "\nplan support: " + ", ".join(sorted(result.plan_support))
    _emit(output, args.out, "trace")
    return 0


@command(
    "cache", "inspect or clear the persistent plan cache",
    _OneOf(
        _Option("--stats", action="store_true", help="show cache statistics"),
        _Option(
            "--clear", action="store_true", help="remove all cached records"
        ),
    ),
)
def _cache(args, env) -> int:
    root = default_cache_dir()
    if args.clear:
        removed = clear_cache(root)
        print(f"removed {removed} cached records from {root}")
        return 0
    stats = cache_stats(root)
    print(f"cache directory: {root}")
    print(f"environments: {len(stats['environments'])}")

    def summary(row: Dict[str, int]) -> str:
        return (
            f"{row['entries']} records in {row['lines']} lines "
            f"({row['garbled']} garbled), {row['bytes']} bytes"
        )

    for name, row in stats["environments"].items():
        print(f"  {name}: {summary(row)}")
    print(f"total: {summary(stats)}")
    return 0


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A framework for testing query transformation rules "
        "(SIGMOD 2009 reproduction).",
    )
    _add_options(parser, GLOBAL_OPTIONS)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        _add_options(subparsers.add_parser(name, help=spec.help), spec.options)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with _Session(args) as env:
        unknown = env.unknown_rule()
        if unknown is not None:
            return _refuse(f"no rule named {unknown!r}")
        return COMMANDS[args.command].handler(args, env)


if __name__ == "__main__":
    sys.exit(main())
