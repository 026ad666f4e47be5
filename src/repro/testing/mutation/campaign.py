"""The mutation campaign: score the framework's fault-detection power.

For every auto-generated mutant (see :mod:`.operators`) the campaign
simulates one buggy optimizer build, exactly the way the paper's framework
would test it:

1. swap the mutant into the registry (``with_replaced_rule``) and stand up
   a memory-only :class:`PlanService` for the mutated build (a campaign's
   counts and verdicts must not depend on what an earlier run cached);
2. regenerate the rule's pattern-based suite *against the mutated
   registry* -- queries are drawn from the mutant's own pattern and
   ``RuleSet``, which is what makes dropped preconditions and widened
   patterns reachable at all; with several ``seeds`` the per-seed pools
   are unioned, because whether one generated query makes the optimizer
   *choose* the buggy alternative is strongly seed-dependent; an attempt
   whose trials all fail before the seed produced anything is offered to
   the clean build (:meth:`MutationCampaign._clean_witnesses`);
3. compress that pool with SMC and TOPK (each selects ``k`` of the
   ``pool`` generated queries, using the mutated build's own costs);
4. run the :class:`CorrectnessRunner` once over the whole pool -- its
   plans asked for in one ``optimize_many`` batch -- and derive the verdict
   of every suite variant (FULL / SMC / TOPK) from the per-edge
   :class:`ComparisonRecord` list, so compressed variants never pay a
   second execution pass.

Per mutant and variant the kill matrix records one status:

============  ==============================================================
``KILLED``    a ``Plan(q)`` vs ``Plan(q, ¬R)`` bag mismatch (detected)
``CRASHED``   the mutant made optimization or execution fail (detected)
``NO_FIRE``   under every seed the mutated rule is out of ``RuleSet(q)``
              where the generation module expects it: either one attempt's
              trials all failed on trees of which the clean build's rule
              fires on ``pool`` (the witnesses are named in the detail),
              or -- the clean rule not firing there either --
              ``max_trials`` attempts produced no pool.  Flagged by the
              generation module, not the oracle (detected)
``EQUIVALENT``  every disabled plan was structurally identical; the mutant
              never changed a chosen plan
``SURVIVED``  plans differed, results matched everywhere (not detected)
``NOT_COVERED``  the variant selected no queries (compression infeasible)
============  ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import NULL_TRACER, Tracer
from repro.optimizer.config import DEFAULT_CONFIG, OptimizerConfig
from repro.optimizer.result import OptimizationError
from repro.rules.registry import RuleRegistry
from repro.service import PlanService
from repro.storage.database import Database
from repro.testing.compression import (
    CompressionError,
    CompressionPlan,
    set_multicover_plan,
    top_k_independent_plan,
)
from repro.testing.correctness import CorrectnessRunner
from repro.testing.detection import KILLING_VERDICTS
from repro.testing.mutation.operators import Mutant, generate_mutants
from repro.testing.suite import CostOracle, RuleNode, TestSuite, TestSuiteBuilder

KILLED = "KILLED"
CRASHED = "CRASHED"
NO_FIRE = "NO_FIRE"
EQUIVALENT = "EQUIVALENT"
SURVIVED = "SURVIVED"
NOT_COVERED = "NOT_COVERED"

#: Statuses that count as the framework catching the fault.  ``NO_FIRE``
#: is detection by the *generation* module (a rule that can no longer be
#: exercised fails suite generation loudly), not by the oracle.
DETECTED_STATUSES = frozenset({KILLED, CRASHED, NO_FIRE})

#: Suite variants scored by the campaign, in reporting order.
VARIANTS = ("FULL", "SMC", "TOPK")

_VERDICT_RANK = {"identical": 0, "equal": 1, "error": 2, "mismatch": 3}


@dataclass(frozen=True)
class VariantOutcome:
    """One cell of the kill matrix."""

    variant: str
    status: str
    query_ids: Tuple[int, ...]
    detail: str = ""

    @property
    def detected(self) -> bool:
        return self.status in DETECTED_STATUSES


@dataclass(frozen=True)
class MutantOutcome:
    """One kill-matrix row: a mutant and its per-variant verdicts."""

    mutant_id: str
    rule_name: str
    operator: str
    description: str
    expected_detectable: bool
    expectation_note: str
    pool_size: int
    variants: Dict[str, VariantOutcome]
    #: Per-pool-query verdict ``(query_id, outcome)`` pairs, ``outcome``
    #: being the correctness runner's vocabulary (``identical`` / ``equal``
    #: / ``mismatch`` / ``error``), after folding in any differential
    #: backend records.  This is the mutant's *row* of the mutant x query
    #: kill matrix that detection-aware compression optimizes over
    #: (:mod:`repro.testing.detection`).
    query_verdicts: Tuple[Tuple[int, str], ...] = ()
    #: ``(query_id, Cost(q))`` for every pool query, under the mutated
    #: build's own cost model (rounded; feeds the kill matrix slot costs).
    query_costs: Tuple[Tuple[int, float], ...] = ()

    def status(self, variant: str) -> str:
        return self.variants[variant].status

    def detected(self, variant: str) -> bool:
        return self.variants[variant].detected

    def killing_query_ids(self) -> Tuple[int, ...]:
        """Pool queries whose verdict alone detects this mutant."""
        return tuple(
            query_id
            for query_id, outcome in self.query_verdicts
            if outcome in KILLING_VERDICTS
        )


@dataclass
class MutationReport:
    """The campaign's kill matrix plus its derived detection scores."""

    rule_names: List[str]
    operators: List[str]
    pool: int
    k: int
    seed: int
    extra_operators: int
    #: Every generation seed whose pool was unioned (first == ``seed``).
    seeds: Tuple[int, ...] = ()
    #: Backend fleet of the optional second scoring oracle (empty when
    #: the campaign ran with the self-comparison oracle only).
    differential_backends: Tuple[str, ...] = ()
    outcomes: List[MutantOutcome] = field(default_factory=list)
    service_stats: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------- scoring

    def expected(self) -> List[MutantOutcome]:
        return [o for o in self.outcomes if o.expected_detectable]

    def detected_ids(self, variant: str) -> List[str]:
        return [
            o.mutant_id for o in self.outcomes if o.detected(variant)
        ]

    def surviving_ids(self, variant: str) -> List[str]:
        """Expected-detectable mutants this variant failed to catch --
        always reported, never silently dropped."""
        return [
            o.mutant_id
            for o in self.expected()
            if not o.detected(variant)
        ]

    def unexpected_detections(self, variant: str) -> List[str]:
        """Mutants curated as not-detectable that the *oracle* caught
        anyway (a sign the expectation table needs updating).  ``NO_FIRE``
        does not count: for availability mutants it is the anticipated,
        already-documented outcome, not an oracle detection.
        """
        return [
            o.mutant_id
            for o in self.outcomes
            if not o.expected_detectable
            and o.status(variant) in (KILLED, CRASHED)
        ]

    def detection_score(self, variant: str) -> Optional[float]:
        """Detected / expected-detectable; ``None`` with no expectations."""
        expected = self.expected()
        if not expected:
            return None
        detected = sum(1 for o in expected if o.detected(variant))
        return detected / len(expected)

    def relative_score(self, variant: str) -> Optional[float]:
        """Detection relative to FULL (the paper-validating ratio)."""
        full = self.detection_score("FULL")
        score = self.detection_score(variant)
        if full is None or score is None or full == 0:
            return None
        return score / full

    def status_counts(self, variant: str) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            status = outcome.status(variant)
            counts[status] = counts.get(status, 0) + 1
        return counts

    # ----------------------------------------------------------- rendering

    def to_dict(self) -> dict:
        """Deterministic (timing-free) JSON-ready form."""
        from repro.testing.mutation.reporting import report_to_dict

        return report_to_dict(self)

    def to_json(self) -> str:
        from repro.testing.mutation.reporting import report_to_json

        return report_to_json(self)

    def to_markdown(self) -> str:
        from repro.testing.mutation.reporting import report_to_markdown

        return report_to_markdown(self)

    def to_text(self) -> str:
        from repro.testing.mutation.reporting import report_to_text

        return report_to_text(self)


class MutationCampaign:
    """Drives the mutant set through generation, compression and the
    correctness runner; produces a :class:`MutationReport`."""

    def __init__(
        self,
        database: Database,
        registry: Optional[RuleRegistry] = None,
        *,
        pool: int = 6,
        k: int = 2,
        seeds: Sequence[int] = (0,),
        extra_operators: int = 2,
        max_trials: int = 30,
        # In-process by default, unlike PlanService: each mutant's service
        # lives for one mutant, too short to repay forking a pool.
        workers: int = 1,
        config: OptimizerConfig = DEFAULT_CONFIG,
        metrics=None,
        tracer: Tracer = NULL_TRACER,
        differential_backends: Optional[Sequence[str]] = None,
    ) -> None:
        if k > pool:
            raise ValueError(f"compressed k={k} cannot exceed pool={pool}")
        from repro.rules.registry import default_registry

        self.database = database
        self.registry = registry or default_registry()
        self.pool = pool
        self.k = k
        #: Generation seeds; each contributes a ``pool``-query suite and
        #: the union is scored (detection power is seed-dependent).
        self.seeds = tuple(seeds)
        self.extra_operators = extra_operators
        self.max_trials = max_trials
        self.workers = workers
        self.config = config
        self.metrics = metrics
        #: Receives the campaign's own events only; the per-mutant
        #: services are built without it.
        self.tracer = tracer
        #: Optional second scoring oracle: fan each mutant's pool across
        #: this backend fleet (first member is the reference and must be
        #: the engine so the mutated build is on one side) and count a
        #: backend *disagreement* as a kill.  Backend errors/skips are
        #: ignored -- an environment gap must not fake a detection.
        self.differential_backends = tuple(differential_backends or ())
        if self.differential_backends and (
            self.differential_backends[0] != "engine"
        ):
            raise ValueError(
                "the differential oracle's reference backend must be "
                f"'engine' (got {self.differential_backends[0]!r}): the "
                "mutated build has to sit on one side of every comparison"
            )
        #: Aggregated counters over every per-mutant service.
        self._stats: Dict[str, int] = {}
        #: The clean build (``self.registry``), asked where a mutated
        #: build's trials all failed; shared by every mutant and seed.
        self._clean: Optional[PlanService] = None

    # --------------------------------------------------------------- public

    def run(
        self,
        rule_names: Optional[Sequence[str]] = None,
        operators: Optional[Iterable[str]] = None,
        sample: Optional[int] = None,
    ) -> MutationReport:
        """Evaluate every mutant of ``rule_names`` x ``operators``.

        ``sample`` caps the mutant count by deterministic stride sampling
        (used by the CI smoke job), keeping rule/operator spread instead
        of truncating to a prefix.
        """
        if rule_names is None:
            rule_names = self.registry.exploration_rule_names
        rule_names = list(rule_names)
        mutants = generate_mutants(self.registry, rule_names, operators)
        if sample is not None and 0 < sample < len(mutants):
            stride = max(1, len(mutants) // sample)
            mutants = mutants[::stride][:sample]
        report = MutationReport(
            rule_names=rule_names,
            operators=sorted({mutant.operator for mutant in mutants}),
            pool=self.pool,
            k=self.k,
            seed=self.seeds[0],
            extra_operators=self.extra_operators,
            seeds=self.seeds,
            differential_backends=self.differential_backends,
        )
        for mutant in mutants:
            outcome = self._evaluate(mutant)
            report.outcomes.append(outcome)
            self._count_outcome(outcome)
        report.service_stats = self._service_stats()
        return report

    def evaluate_rule(self, rule) -> MutantOutcome:
        """Score one candidate rule build the way a mutant is scored.

        The admission gate's dynamic hook: swap ``rule`` into the
        registry, regenerate its pattern-based suite against the
        candidate build, and run the differential oracle over the pool.
        ``rule.name`` must exist in the campaign's registry (the gate
        extends the registry first for genuinely new rules); a detected
        status on the FULL variant means the candidate changed plans
        incorrectly, crashed, or could not be exercised at all.
        """
        candidate = Mutant(
            mutant_id=f"candidate:{rule.name}",
            rule_name=rule.name,
            operator="candidate",
            description=f"admission-gate differential check of {rule.name}",
            expected_detectable=False,
            expectation_note="candidate rule under gate evaluation",
            _factory=lambda: rule,
        )
        return self._evaluate(candidate)

    # ------------------------------------------------------------ internals

    def _service(self, registry: RuleRegistry) -> PlanService:
        # Memory-only on purpose: what a mutant costs and how it is judged
        # must not depend on what an earlier run left in the disk cache.
        return PlanService(
            self.database,
            registry=registry,
            config=self.config,
            workers=self.workers,
            cache_dir=None,
            tracer=self.tracer,
            metrics=self.metrics,
        )

    def _service_stats(self) -> Optional[Dict[str, int]]:
        """Every optimizer request the campaign has made so far: the
        per-mutant services' counters plus the clean build's probes."""
        stats = dict(self._stats)
        if self._clean is not None:
            for key, value in self._clean.counters.as_dict().items():
                stats[key] = stats.get(key, 0) + value
        return stats or None

    def _evaluate(self, mutant: Mutant) -> MutantOutcome:
        node: RuleNode = (mutant.rule_name,)
        try:
            registry = self.registry.with_replaced_rule(mutant.build())
        except Exception as exc:  # defensive: a mutant that cannot build
            return self._uniform(mutant, CRASHED, _describe(exc), 0)
        service = self._service(registry)
        try:
            queries, no_fire, crash = self._build_pool(
                node, registry, service
            )
            if crash is not None:
                return self._uniform(mutant, CRASHED, crash, 0)
            if not queries:
                # No seed could exercise the mutated rule: the generation
                # module itself flags this build.
                return self._uniform(mutant, NO_FIRE, no_fire, 0)
            suite = TestSuite(rule_nodes=[node], queries=queries, k=self.k)
            selections, selection_details = self._select(
                suite, node, registry, service
            )
            verdicts = self._verdicts(suite, node, registry, service)
            if self.differential_backends:
                self._fold_differential(suite, service, verdicts)
        finally:
            service.close()
            for key, value in service.counters.as_dict().items():
                self._stats[key] = self._stats.get(key, 0) + value
        variants = {}
        for variant in VARIANTS:
            subset = selections[variant]
            if subset is None:
                variants[variant] = VariantOutcome(
                    variant, NOT_COVERED, (),
                    selection_details.get(variant, ""),
                )
                continue
            status, detail = _classify(verdicts, subset)
            variants[variant] = VariantOutcome(
                variant, status, tuple(subset), detail
            )
        return MutantOutcome(
            mutant_id=mutant.mutant_id,
            rule_name=mutant.rule_name,
            operator=mutant.operator,
            description=mutant.description,
            expected_detectable=mutant.expected_detectable,
            expectation_note=mutant.expectation_note,
            pool_size=suite.size,
            variants=variants,
            query_verdicts=tuple(
                (query.query_id,
                 verdicts.get(query.query_id, ("identical", ""))[0])
                for query in suite.queries
            ),
            query_costs=tuple(
                (query.query_id, round(query.cost, 6))
                for query in suite.queries
            ),
        )

    def _fold_differential(self, suite, service, verdicts) -> None:
        """Second scoring oracle: fan the pool across the backend fleet.

        A backend *disagreement* upgrades the query's verdict to
        ``mismatch`` (the mutated engine build sits on the reference side,
        so a bag difference against an independent implementation is a
        kill even when ``Plan(q)`` vs ``Plan(q, ¬R)`` agreed -- e.g. when
        both plans contain the same wrong transformation).  Backend
        errors and skips are deliberately NOT folded: an unavailable
        driver or an environment failure must never fake a detection;
        a fleet that *raised* folds nothing either, but is counted
        (``mutation.fleet_errors``) and traced, so it cannot read as
        "no backend disagreed".
        """
        from repro.backends import create_backends
        from repro.testing.differential import DISAGREE, DifferentialRunner

        backends = []
        try:
            backends, skipped = create_backends(
                self.differential_backends, service
            )
            if len(backends) < 2:
                return
            runner = DifferentialRunner(
                self.database, backends, skipped_backends=skipped,
            )
            diff_report = runner.run(suite)
        except Exception as exc:  # the second oracle is best-effort by design
            if self.metrics is not None:
                self.metrics.counter("mutation.fleet_errors").inc()
            self.tracer.event(
                "mutation.fleet_error", cat="testing",
                error=type(exc).__name__,
            )
            return
        finally:
            # One fleet per mutant (a sqlite member is a full in-memory
            # mirror of the database): release it with the mutant.
            for backend in backends:
                backend.close()
        for outcome in diff_report.outcomes:
            if outcome.outcome != DISAGREE:
                continue
            _raise_verdict(
                verdicts, outcome.query_id, "mismatch",
                f"backend {outcome.backend} disagreed: {outcome.detail}",
            )

    def _build_pool(self, node, registry, service):
        """Union the per-seed pools into one renumbered query list.

        Returns ``(queries, no_fire_detail, crash_detail)``: generation
        failing under *every* seed -- stopped by :meth:`_clean_witnesses`
        or out of attempts -- is a NO_FIRE verdict, any non-RuntimeError
        during a build is a crash attributable to the mutant.
        """
        queries = []
        no_fire = ""
        for seed in self.seeds:
            builder = TestSuiteBuilder(
                self.database,
                registry,
                seed=seed,
                extra_operators=self.extra_operators,
                max_trials=self.max_trials,
                service=service,
                witness_check=partial(self._clean_witnesses, seed),
            )
            try:
                generated = builder.build([node], k=self.pool)
            except RuntimeError as exc:
                no_fire = str(exc)
                continue
            except Exception as exc:
                return [], "", _describe(exc)
            # TestSuite.query() indexes by position: keep ids sequential
            # across the unioned per-seed pools.
            base = len(queries)
            queries.extend(
                replace(query, query_id=base + position)
                for position, query in enumerate(generated.queries)
            )
        return queries, no_fire, None

    def _clean_witnesses(self, seed, node, trees) -> Optional[str]:
        """The NO_FIRE verdict against the clean build, or ``None``.

        ``trees`` are one attempt's trials, none of which exercised
        ``node`` on the mutated build.  Once ``pool`` of them exercise it
        on the clean build, the clean build would have filled this seed's
        pool from trees on which the mutated one fired zero times: a rule
        that stopped firing, with the trees to replay.  Fewer witnesses
        say nothing -- the pattern may just be hard to instantiate, for
        both builds -- and generation persists.
        """
        if self._clean is None:
            self._clean = self._service(self.registry)
        witnesses: List[str] = []
        for tree in trees:
            try:
                fired = self._clean.optimize_exercising(tree, node)
            except OptimizationError:
                continue
            if fired is not None:
                witnesses.append(tree.fingerprint()[:12])
                if len(witnesses) == self.pool:
                    break
        else:
            return None
        if self.metrics is not None:
            self.metrics.counter(
                "mutation.no_fire_witnessed", rule=node[0]
            ).inc()
        self.tracer.event(
            "mutation.no_fire", cat="testing", seed=seed, trials=len(trees),
            witnesses=len(witnesses), fingerprints=",".join(witnesses),
        )
        return (
            f"{' + '.join(node)} fired on none of the {len(trees)} trees "
            f"of a generation attempt (seed {seed}); the clean build's "
            f"rule fires on {len(witnesses)} of them: "
            + ", ".join(witnesses)
        )

    def _select(self, suite, node, registry, service):
        """FULL plus the SMC/TOPK selections within the mutant's pool."""
        oracle = CostOracle(self.database, registry, service=service)
        selections: Dict[str, Optional[Tuple[int, ...]]] = {
            "FULL": tuple(query.query_id for query in suite.queries)
        }
        details: Dict[str, str] = {}
        for name, maker in (
            ("SMC", set_multicover_plan),
            ("TOPK", top_k_independent_plan),
        ):
            try:
                plan = maker(suite, oracle)
                selections[name] = tuple(sorted(plan.assignments[node]))
            except CompressionError as exc:
                selections[name] = None
                details[name] = str(exc)
        return selections, details

    def _verdicts(self, suite, node, registry, service):
        """Per-query verdict for the whole pool, in one runner pass.

        The runner asks for the pool's plans once.  Only when that raises
        -- a buggy substitute crashing the optimizer with something other
        than ``OptimizationError`` -- are the queries probed one by one to
        attribute the crash, and the runner re-run over the healthy rest.
        """
        verdicts: Dict[int, Tuple[str, str]] = {}
        healthy = [query.query_id for query in suite.queries]
        runner = CorrectnessRunner(self.database, registry, service=service)
        try:
            report = runner.run(self._pool_plan(suite, node, healthy), suite)
        except Exception:
            verdicts = self._probe_crashes(suite, node, service)
            healthy = [q for q in healthy if q not in verdicts]
            try:
                report = runner.run(
                    self._pool_plan(suite, node, healthy), suite
                )
            except Exception as exc:
                # An unattributable crash inside execution: blame every
                # query we could not clear individually.
                detail = _describe(exc)
                for query_id in healthy:
                    verdicts[query_id] = ("error", detail)
                return verdicts
        for record in report.records:
            _raise_verdict(
                verdicts, record.query_id, record.outcome, record.detail
            )
        return verdicts

    @staticmethod
    def _pool_plan(suite, node, query_ids) -> CompressionPlan:
        return CompressionPlan(
            method="MUTATION",
            assignments={node: query_ids},
            node_costs={
                query.query_id: query.cost for query in suite.queries
            },
            edge_costs={(node, query_id): 0.0 for query_id in query_ids},
        )

    def _probe_crashes(self, suite, node, service):
        """``error`` verdicts for the queries whose ``Plan(q)`` or
        ``Plan(q, ¬R)`` crashes the optimizer of the mutated build."""
        crashed: Dict[int, Tuple[str, str]] = {}
        for query in suite.queries:
            for rules_off in ((), node):
                try:
                    service.optimize(
                        query.tree, self.config.with_disabled(rules_off)
                    )
                except OptimizationError:
                    pass  # the runner records these as error verdicts
                except Exception as exc:
                    crashed[query.query_id] = ("error", _describe(exc))
                    break
        return crashed

    def _uniform(
        self, mutant: Mutant, status: str, detail: str, pool_size: int
    ) -> MutantOutcome:
        return MutantOutcome(
            mutant_id=mutant.mutant_id,
            rule_name=mutant.rule_name,
            operator=mutant.operator,
            description=mutant.description,
            expected_detectable=mutant.expected_detectable,
            expectation_note=mutant.expectation_note,
            pool_size=pool_size,
            variants={
                variant: VariantOutcome(variant, status, (), detail)
                for variant in VARIANTS
            },
        )

    def _count_outcome(self, outcome: MutantOutcome) -> None:
        if self.metrics is None:
            return
        self.metrics.counter(
            "mutation.mutants", operator=outcome.operator
        ).inc()
        for variant, result in outcome.variants.items():
            self.metrics.counter(
                "mutation.outcomes", variant=variant, status=result.status
            ).inc()
        self.metrics.counter("mutation.pool_queries").inc(
            outcome.pool_size
        )


def _raise_verdict(
    verdicts: Dict[int, Tuple[str, str]],
    query_id: int,
    outcome: str,
    detail: str,
) -> None:
    """Record ``(outcome, detail)`` for ``query_id`` unless the query
    already holds a verdict ``_VERDICT_RANK`` ranks as high or higher."""
    current = verdicts.get(query_id)
    if current is None or _VERDICT_RANK[outcome] > _VERDICT_RANK[current[0]]:
        verdicts[query_id] = (outcome, detail)


def _classify(
    verdicts: Dict[int, Tuple[str, str]], subset: Sequence[int]
) -> Tuple[str, str]:
    """Fold per-query verdicts of a variant's selection into one status."""
    picked = [
        (query_id,) + verdicts.get(query_id, ("identical", ""))
        for query_id in subset
    ]
    for wanted, status in (("mismatch", KILLED), ("error", CRASHED)):
        hits = [p for p in picked if p[1] == wanted]
        if hits:
            query_id, _, detail = hits[0]
            return status, f"query {query_id}: {detail}"
    if picked and all(p[1] == "identical" for p in picked):
        return EQUIVALENT, ""
    return SURVIVED, ""


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"
