"""Test suites and the rule-query bipartite graph (paper, Section 4.1).

A *test suite* for correctness testing holds, for each rule node (a single
rule or a rule pair), ``k`` distinct queries that exercise it.  The
relationship between rule nodes and queries forms a bipartite graph:

* a **query node** costs ``Cost(q)`` -- executing the default plan once;
* an **edge** (R, q) exists when optimizing ``q`` exercises every rule in
  ``R``, and costs ``Cost(q, ¬R)`` -- executing the plan with R disabled.

Edge costs require one optimizer invocation each; :class:`CostOracle` wraps
and counts those invocations, which is the measurement behind the paper's
monotonicity experiment (Figure 14).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.logical.operators import LogicalOp
from repro.optimizer.config import DEFAULT_CONFIG, OptimizerConfig
from repro.rules.registry import RuleRegistry
from repro.service import PlanService
from repro.storage.database import Database
from repro.testing.generator import GenerationOutcome, QueryGenerator

#: A rule node: one rule name (singleton testing) or two (pair testing).
RuleNode = Tuple[str, ...]

#: Judges a wholly failed generation attempt: given the rule node and the
#: trees the attempt tried, the reason to stop generating for that node
#: (a build under test that fires on none of them where a reference build
#: does), or ``None`` to keep trying.
WitnessCheck = Callable[[RuleNode, Sequence[LogicalOp]], Optional[str]]


@dataclass
class SuiteQuery:
    """One test query with its optimization metadata."""

    query_id: int
    tree: LogicalOp
    sql: str
    cost: float  # Cost(q), all rules enabled
    ruleset: FrozenSet[str]  # RuleSet(q): exploration rules exercised
    generated_for: RuleNode  # the rule node whose TS_i this query came from
    #: Rule-attempt totals (considered, fired, rejected) observed while
    #: optimizing this query -- the campaign report's firing columns.
    rule_firing: Tuple[int, int, int] = (0, 0, 0)

    def exercises(self, node: RuleNode) -> bool:
        return all(name in self.ruleset for name in node)


class CostOracle:
    """A thin ``Cost(q, ¬R)`` view over the :class:`PlanService`.

    The oracle keeps its own per-``(query, rule node)`` cache and counters
    so Figure 14 still measures *logical* optimizer invocations -- the
    number of distinct edge costs a compression strategy demanded --
    independently of how many of those the shared service answered from its
    fingerprint cache (``service.counters`` tracks the physical side).
    """

    def __init__(
        self,
        database: Database,
        registry: RuleRegistry,
        config: Optional[OptimizerConfig] = None,
        service: Optional[PlanService] = None,
    ) -> None:
        self.database = database
        self.registry = registry
        self.config = config or DEFAULT_CONFIG
        self.service = service or PlanService(
            database, registry=registry, config=self.config
        )
        #: Logical ``Cost(q, ¬R)`` computations this oracle was asked for
        #: (one per distinct request; the paper's Figure 14 measurement).
        self.invocations = 0
        #: Repeated requests answered from the oracle's own cache.
        self.cache_hits = 0
        self._cache: Dict[Tuple[int, RuleNode], float] = {}
        #: Each rule node's config: ``self.config`` with the node disabled.
        self._configs: Dict[RuleNode, OptimizerConfig] = {}

    def cost_without(self, query: SuiteQuery, rules_off: RuleNode) -> float:
        """``Cost(q, ¬R)`` -- one logical invocation per distinct request."""
        return self.cost_without_many([(query, rules_off)])[0]

    def cost_without_many(
        self, pairs: Sequence[Tuple[SuiteQuery, RuleNode]]
    ) -> List[float]:
        """Edge costs for ``pairs``, in order, through one ``cost_many``.

        One logical invocation per distinct unseen request -- those fan
        out over the service's worker pool in one batch; repeats, within
        the call or across calls, hit the oracle cache.
        """
        costs: List[Optional[float]] = [None] * len(pairs)
        requests = []
        request_indices: Dict[Tuple[int, RuleNode], List[int]] = {}
        for index, (query, rules_off) in enumerate(pairs):
            key = (query.query_id, tuple(sorted(rules_off)))
            if key in self._cache:
                self.cache_hits += 1
                costs[index] = self._cache[key]
                continue
            slots = request_indices.get(key)
            if slots is None:
                self.invocations += 1
                request_indices[key] = [index]
                node = key[1]
                config = self._configs.get(node)
                if config is None:
                    config = self._configs[node] = (
                        self.config.with_disabled(node)
                    )
                requests.append((query.tree, config))
            else:
                self.cache_hits += 1
                slots.append(index)
        if requests:
            with self.service.tracer.span(
                "oracle.cost_without_many", cat="testing",
                requests=len(pairs), distinct=len(requests),
            ):
                resolved = self.service.cost_many(requests)
            for (key, slots), cost in zip(request_indices.items(), resolved):
                self._cache[key] = cost
                for index in slots:
                    costs[index] = cost
        return [float(cost) for cost in costs]


@dataclass
class TestSuite:
    """The overall test suite TS = union of per-rule-node suites TS_i."""

    __test__ = False  # not a pytest test class despite the name

    rule_nodes: List[RuleNode]
    queries: List[SuiteQuery]
    k: int

    def queries_for(self, node: RuleNode) -> List[SuiteQuery]:
        """All suite queries whose RuleSet covers ``node`` (graph edges)."""
        return [query for query in self.queries if query.exercises(node)]

    def generated_suite(self, node: RuleNode) -> List[SuiteQuery]:
        """TS_i: the queries generated specifically for ``node``."""
        return [
            query for query in self.queries if query.generated_for == node
        ]

    def query(self, query_id: int) -> SuiteQuery:
        return self.queries[query_id]

    @property
    def size(self) -> int:
        return len(self.queries)


def singleton_nodes(rule_names: Sequence[str]) -> List[RuleNode]:
    return [(name,) for name in rule_names]


def pair_nodes(rule_names: Sequence[str]) -> List[RuleNode]:
    """All nC2 rule pairs, as sorted tuples."""
    return [
        tuple(sorted(pair))
        for pair in itertools.combinations(rule_names, 2)
    ]


class TestSuiteBuilder:
    """The Test Suite Generation module (paper, Section 2.3).

    For each rule node it generates ``k`` distinct queries exercising the
    node, via the pattern-based query generator; ``extra_operators`` makes
    the queries more complex (more rule interactions, more realistic costs),
    as the paper does for correctness testing.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        database: Database,
        registry: RuleRegistry,
        seed: int = 0,
        extra_operators: int = 4,
        max_trials: int = 40,
        service: Optional[PlanService] = None,
        witness_check: Optional[WitnessCheck] = None,
    ) -> None:
        self.database = database
        self.registry = registry
        self.generator = QueryGenerator(
            database, registry, seed=seed, service=service
        )
        self.extra_operators = extra_operators
        self.max_trials = max_trials
        self.witness_check = witness_check
        self._exploration_names = frozenset(
            rule.name for rule in registry.exploration_rules
        )

    def build(
        self, rule_nodes: Sequence[RuleNode], k: int
    ) -> TestSuite:
        """Generate the overall suite: k distinct queries per rule node.

        Raises ``RuntimeError`` when a node cannot be given its ``k``
        queries: after ``max_trials`` attempts, or -- with a
        ``witness_check`` -- as soon as the check gives a reason to stop
        after an attempt whose trials all failed with nothing yet produced
        for the node (an attempt none of whose draws reached the optimizer
        has no tree to show the check and does not ask it).
        """
        queries: List[SuiteQuery] = []
        seen_sql: Dict[str, SuiteQuery] = {}
        for node in rule_nodes:
            produced = 0
            attempts = 0
            while produced < k and attempts < self.max_trials:
                attempts += 1
                outcome = self._generate(node)
                if not outcome.succeeded:
                    if (
                        produced == 0
                        and outcome.tried  # invalid / oversized draws aside
                        and self.witness_check is not None
                    ):
                        verdict = self.witness_check(node, outcome.tried)
                        if verdict is not None:
                            raise RuntimeError(verdict)
                    continue
                if outcome.sql in seen_sql:
                    continue
                result = outcome.optimize_result
                query = SuiteQuery(
                    query_id=len(queries),
                    tree=outcome.tree,
                    sql=outcome.sql,
                    cost=result.cost,
                    ruleset=result.rules_exercised & self._exploration_names,
                    generated_for=node,
                    rule_firing=result.rule_firing_summary(),
                )
                queries.append(query)
                seen_sql[outcome.sql] = query
                produced += 1
            if produced < k:
                raise RuntimeError(
                    f"could not generate {k} distinct queries for {node} "
                    f"within {self.max_trials} attempts"
                )
        return TestSuite(rule_nodes=list(rule_nodes), queries=queries, k=k)

    def _generate(self, node: RuleNode) -> GenerationOutcome:
        extra = self.generator.rng.randint(0, self.extra_operators)
        if len(node) == 1:
            return self.generator.pattern_query_for_rule(
                node[0], max_trials=25, extra_operators=extra
            )
        return self.generator.pattern_query_for_pair(
            node[0], node[1], max_trials=50
        )


def select_rules(
    registry: RuleRegistry,
    count: int,
    names: Optional[Sequence[str]] = None,
) -> List[str]:
    """The exploration rules a campaign targets: exactly ``names`` when
    given (each must be registered), else the first ``count`` registered
    rules."""
    if not names:
        return registry.exploration_rule_names[:count]
    unknown = sorted(set(names) - set(registry.exploration_rule_names))
    if unknown:
        raise ValueError("unknown exploration rules: " + ", ".join(unknown))
    return list(names)


def rule_suite(
    database: Database,
    registry: RuleRegistry,
    rule_names: Sequence[str],
    k: int,
    seed: int = 0,
    extra_operators: int = 2,
    service: Optional[PlanService] = None,
) -> TestSuite:
    """The suite a campaign over ``rule_names`` starts from: ``k``
    distinct pattern-generated queries per singleton rule node."""
    builder = TestSuiteBuilder(
        database, registry, seed=seed, extra_operators=extra_operators,
        service=service,
    )
    return builder.build(singleton_nodes(rule_names), k=k)
