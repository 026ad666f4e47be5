"""Pass 4: rule-interaction graph (IG4xx).

The paper's central object is the *interaction* between transformation
rules -- one rule's output feeding another's pattern (Section 7's derived
interactions).  This pass computes that relation statically, without an
optimizer run: for every ordered exploration-rule pair ``(A, B)`` it runs
A's substitution over synthesized bindings (the shared binding synthesis
from :mod:`repro.analysis.lint`) and unifies the outputs against B's
:class:`PatternNode` tree.

An edge ``A -> B`` is recorded when B's pattern matches at a node A's
substitution *created* (a subtree whose structural fingerprint does not
occur in the binding -- the static analogue of "new to the memo").  Two
match strengths are distinguished:

* **confirmed** -- B's pattern matches the created subtree literally and
  B's precondition accepts it: the interaction is realizable on a concrete
  witness tree, which is recorded;
* **structural** -- the interaction is realizable only through memo
  equivalence.  B's pattern *root* matches a created node; deeper pattern
  levels are treated as wildcards, because during optimization the
  consumer's pattern matches against memo bindings, and the child groups
  gain further equivalent expressions as exploration proceeds.  A rule
  that yields a binding subtree verbatim triggers group absorption (the
  memo copies the absorbed group's expressions and credits them to the
  rule), so such outputs yield structural edges to *every* rule.
  Dynamically observed interactions are a subset of confirmed +
  structural edges.

Over the graph the pass reports:

* **IG400** (INFO) -- no binding could be synthesized, so the rule's row
  and column of the graph are incomplete;
* **IG401** (INFO) -- rewrite cycles / termination hazards: confirmed
  self-loops (a rule re-fires on its own output), confirmed inverse pairs
  (applying A then B at the root restores the original tree, with the
  witness recorded), and strongly connected components of the confirmed
  graph.  Benign under memo deduplication, which is exactly why they are
  worth documenting;
* **IG402** (INFO) -- mutually-enabling (candidate commuting) pairs:
  ``A -> B`` and ``B -> A`` both confirmed;
* **IG403** (WARNING) -- composition-redundant rule: every substitution
  output of every sampled binding is reproducible by a chain (length <= 2)
  of *other* rules applied at the binding root;
* **IG404** (WARNING) -- generator blind spot: a confirmed interaction
  whose composite patterns (:func:`repro.testing.composition
  .compose_patterns`) cannot be instantiated against any bundled workload,
  so the pattern-based pair generator can never co-exercise the pair.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.context import TreeContext
from repro.analysis.diagnostics import (
    AnalysisPass,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.lint import synthesize_bindings
from repro.logical.operators import LogicalOp
from repro.logical.validate import ValidationError, validate_tree
from repro.rules.framework import Rule, match_structure
from repro.testing.builders import GenerationFailure
from repro.testing.composition import compose_patterns
from repro.testing.pattern_gen import PatternInstantiator, merge_hints

#: Composite patterns tried per confirmed edge in the blind-spot check.
MAX_COMPOSITES = 3

#: Instantiation attempts per composite pattern per workload.
BLIND_SPOT_ATTEMPTS = 2

#: Depth cap for witness-tree rendering.
_RENDER_DEPTH = 5

_HINTS = {
    "IG400": "extend generation_hints or the bundled workloads so the "
    "pattern can be instantiated",
    "IG401": "benign under memo deduplication; document the cycle and keep "
    "substitutes interned rather than re-expanded",
    "IG402": "check whether the pair commutes on shared bindings; if so, "
    "one direction may be droppable as a normalization",
    "IG403": "consider dropping the rule or demoting it to a rewrite "
    "normalization; its effect is reachable via other rules",
    "IG404": "add generation_hints or a composite pattern so the pair "
    "generator can co-exercise the pair; until then only random "
    "generation can reach it",
}


def render_tree(op: LogicalOp, depth: int = _RENDER_DEPTH) -> str:
    """Compact one-line rendering of a tree, used for witness strings."""
    if depth <= 0:
        return "..."
    if not op.children:
        return op.describe()
    rendered = ", ".join(
        render_tree(child, depth - 1)
        if isinstance(child, LogicalOp)
        else "?"
        for child in op.children
    )
    return f"{op.describe()}({rendered})"


@dataclass(frozen=True)
class InteractionEdge:
    """One ordered rule interaction: ``producer``'s output can match
    ``consumer``'s pattern."""

    producer: str
    consumer: str
    #: ``confirmed`` (literal match + precondition accepted, witness
    #: recorded) or ``structural`` (realizable only via memo equivalence).
    kind: str
    witness: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "producer": self.producer,
            "consumer": self.consumer,
            "kind": self.kind,
            "witness": self.witness,
        }


@dataclass
class InteractionGraph:
    """The ~35x35 rule-interaction relation with export helpers."""

    rules: List[str]
    edges: List[InteractionEdge]
    cycles: List[List[str]]
    parameters: Dict[str, object]

    def __post_init__(self) -> None:
        self._by_pair = {
            (edge.producer, edge.consumer): edge for edge in self.edges
        }

    # -------------------------------------------------------------- queries

    def edge(self, producer: str, consumer: str) -> Optional[InteractionEdge]:
        return self._by_pair.get((producer, consumer))

    def has_edge(self, producer: str, consumer: str) -> bool:
        return (producer, consumer) in self._by_pair

    @property
    def confirmed_edges(self) -> List[InteractionEdge]:
        return [e for e in self.edges if e.kind == "confirmed"]

    def successors(self, producer: str) -> List[str]:
        return [e.consumer for e in self.edges if e.producer == producer]

    # ------------------------------------------------------------ rendering

    def to_json_dict(self) -> Dict[str, object]:
        confirmed = len(self.confirmed_edges)
        return {
            "parameters": dict(sorted(self.parameters.items())),
            "rules": list(self.rules),
            "edges": [edge.to_dict() for edge in self.edges],
            "cycles": [list(cycle) for cycle in self.cycles],
            "counts": {
                "rules": len(self.rules),
                "edges": len(self.edges),
                "confirmed": confirmed,
                "structural": len(self.edges) - confirmed,
            },
        }

    def to_json(self) -> str:
        """Deterministic JSON export (byte-identical across processes)."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_dot(self) -> str:
        """Graphviz DOT export of the confirmed edges."""
        lines = [
            "// Generated by repro.analysis.interact -- do not edit.",
            "digraph rule_interactions {",
            "  rankdir=LR;",
            "  node [shape=box, fontsize=10];",
        ]
        for name in self.rules:
            lines.append(f'  "{name}";')
        for edge in self.confirmed_edges:
            lines.append(
                f'  "{edge.producer}" -> "{edge.consumer}" [style=solid];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


class InteractionAnalyzer(AnalysisPass):
    """Builds the interaction graph and derives the IG4xx diagnostics."""

    #: The graph is a committed artifact (docs/INTERACTIONS.md), generated
    #: at this sample count.
    DEFAULT_SAMPLES = 4

    def __init__(self, *args, **settings) -> None:
        super().__init__(*args, **settings)
        self.rules: List[Rule] = list(self.registry.exploration_rules)
        self._by_name = {rule.name: rule for rule in self.rules}
        #: rule name -> list of (workload, ctx, binding, input_fps, outputs)
        self._products: Dict[str, List[tuple]] = {}
        self._graph: Optional[InteractionGraph] = None

    # ------------------------------------------------------------------ run

    def run(self) -> AnalysisReport:
        """Build the graph and report the IG4xx findings."""
        report = AnalysisReport()
        graph = self.build_graph()
        report.count("interaction_rules", len(graph.rules))
        report.count("interaction_edges", len(graph.edges))
        report.count("interaction_edges_confirmed", len(graph.confirmed_edges))
        for rule in self.rules:
            self._has_products(report, rule)
            report.count("interaction_rules_analyzed")
        self._report_cycles(report, graph)
        self._report_commuting(report, graph)
        self._report_redundancy(report)
        self._report_blind_spots(report, graph)
        return report

    def check_rule(self, rule: Rule) -> AnalysisReport:
        """Scoped IG findings for one rule (the admission gate's entry
        point): the rule's producer edges, self-loop termination hazard,
        and composition redundancy.  Consumer-side analyses (commuting
        pairs, generator blind spots) need the whole graph and are left
        to :meth:`run`.  ``rule`` must be one of the analyzer's rules.
        """
        report = AnalysisReport()
        if not self._has_products(report, rule):
            return report
        edges = self.producer_edges(rule)
        report.count("gate_interaction_edges", len(edges))
        for edge in edges:
            if edge.kind == "confirmed" and edge.consumer == rule.name:
                self._emit(
                    report,
                    "IG401",
                    Severity.INFO,
                    "rule can re-fire on its own substitution output "
                    "(self-loop termination hazard)",
                    rule=rule.name,
                    location=edge.witness,
                )
        chains = self._redundancy_chains(rule)
        if chains:
            self._emit(
                report,
                "IG403",
                Severity.WARNING,
                "every sampled substitution output is reproducible by "
                "other rules applied at the binding root (via "
                + ", ".join(chains)
                + "); the rule may be composition-redundant",
                rule=rule.name,
            )
        return report

    def _has_products(self, report: AnalysisReport, rule: Rule) -> bool:
        """Whether bindings could be synthesized for ``rule``; reports
        IG400 when not."""
        if self._rule_products(rule):
            return True
        self._emit(
            report,
            "IG400",
            Severity.INFO,
            "no binding could be synthesized from the pattern; the "
            "rule's interaction-graph row is incomplete",
            rule=rule.name,
        )
        return False

    def build_graph(self) -> InteractionGraph:
        if self._graph is not None:
            return self._graph
        edges: Dict[Tuple[str, str], InteractionEdge] = {}
        for producer in self.rules:
            for edge in self.producer_edges(producer):
                key = (edge.producer, edge.consumer)
                current = edges.get(key)
                if current is None or (
                    current.kind == "structural" and edge.kind == "confirmed"
                ):
                    edges[key] = edge
        ordered = [edges[key] for key in sorted(edges)]
        confirmed = {
            (e.producer, e.consumer)
            for e in ordered
            if e.kind == "confirmed"
        }
        cycles = _strongly_connected(
            [rule.name for rule in self.rules], confirmed
        )
        self._graph = InteractionGraph(
            rules=[rule.name for rule in self.rules],
            edges=ordered,
            cycles=cycles,
            parameters={
                "samples_per_workload": self.samples,
                "seed": self.seed,
                "workloads": [name for name, _, _ in self.workloads],
            },
        )
        return self._graph

    # ---------------------------------------------------------------- edges

    def producer_edges(self, producer: Rule) -> List[InteractionEdge]:
        """All edges out of ``producer``, strongest match kind per pair."""
        best: Dict[str, InteractionEdge] = {}

        def record(consumer_name: str, kind: str, witness: Optional[str]):
            current = best.get(consumer_name)
            if current is None or (
                current.kind == "structural" and kind == "confirmed"
            ):
                best[consumer_name] = InteractionEdge(
                    producer.name, consumer_name, kind, witness
                )

        for workload, ctx, binding, input_fps, outputs in self._rule_products(
            producer
        ):
            for output in outputs:
                absorbed = output.fingerprint() in input_fps
                if absorbed:
                    # The substitution returned a binding subtree verbatim:
                    # the memo absorbs that subtree's whole group and
                    # credits the copied expressions -- whatever their
                    # shape -- to this rule, so any rule can consume them.
                    for consumer in self.rules:
                        record(consumer.name, "structural", None)
                    match_nodes = [output]
                else:
                    match_nodes = [
                        node
                        for node in output.walk()
                        if node.fingerprint() not in input_fps
                    ]
                for node in match_nodes:
                    for consumer in self.rules:
                        current = best.get(consumer.name)
                        if current is not None and current.kind == "confirmed":
                            continue
                        kind = self._match_kind(node, consumer, ctx)
                        if kind is None:
                            continue
                        witness = None
                        if kind == "confirmed":
                            witness = (
                                f"{workload}: {render_tree(binding)} "
                                f"=[{producer.name}]=> {render_tree(output)}; "
                                f"{consumer.name} matches at "
                                f"{node.describe()}"
                            )
                        record(consumer.name, kind, witness)
        return [best[name] for name in sorted(best)]

    def _match_kind(
        self, node: LogicalOp, consumer: Rule, ctx: TreeContext
    ) -> Optional[str]:
        if match_structure(node, consumer.pattern):
            try:
                accepted = consumer.precondition(node, ctx)
            except Exception:  # noqa: BLE001 - crash reported by SV201
                accepted = False
            if accepted:
                return "confirmed"
        if consumer.pattern.matches_op(node):
            return "structural"
        return None

    # ------------------------------------------------------------- products

    def _rule_products(self, rule: Rule) -> List[tuple]:
        cached = self._products.get(rule.name)
        if cached is not None:
            return cached
        products: List[tuple] = []
        for workload_name, ctx, tree in synthesize_bindings(
            rule, self.workloads, self.samples, f"interact:{self.seed}"
        ):
            outputs = self._safe_substitutions(rule, tree, ctx)
            input_fps = {node.fingerprint() for node in tree.walk()}
            products.append((workload_name, ctx, tree, input_fps, outputs))
        self._products[rule.name] = products
        return products

    @staticmethod
    def _safe_substitutions(
        rule: Rule, tree: LogicalOp, ctx: TreeContext
    ) -> List[LogicalOp]:
        try:
            outputs = rule.substitutions(tree, ctx)
        except Exception:  # noqa: BLE001 - crashes are SV201 findings
            return []
        return [
            output
            for output in outputs
            if isinstance(output, LogicalOp) and output.is_tree()
        ]

    # ---------------------------------------------------------- diagnostics

    def _emit(self, report, code, severity, message, rule, location=None):
        report.add(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                rule=rule,
                location=location,
                hint=_HINTS[code],
            )
        )

    def _report_cycles(
        self, report: AnalysisReport, graph: InteractionGraph
    ) -> None:
        for edge in graph.confirmed_edges:
            if edge.producer == edge.consumer:
                self._emit(
                    report,
                    "IG401",
                    Severity.INFO,
                    "rule can re-fire on its own substitution output "
                    "(self-loop termination hazard)",
                    rule=edge.producer,
                    location=edge.witness,
                )
        for producer_name, consumer_name, witness in self._inverse_pairs(
            graph
        ):
            self._emit(
                report,
                "IG401",
                Severity.INFO,
                f"confirmed rewrite cycle: applying {producer_name} then "
                f"{consumer_name} at the root restores the original tree",
                rule=producer_name,
                location=witness,
            )
        for cycle in graph.cycles:
            self._emit(
                report,
                "IG401",
                Severity.INFO,
                "rules form a rewrite cycle (strongly connected in the "
                "confirmed interaction graph): " + " -> ".join(
                    cycle + [cycle[0]]
                ),
                rule=cycle[0],
            )

    def _inverse_pairs(
        self, graph: InteractionGraph
    ) -> List[Tuple[str, str, str]]:
        """Confirmed ``A;B == identity`` pairs with concrete witnesses."""
        found: List[Tuple[str, str, str]] = []
        for edge in graph.confirmed_edges:
            first = self._by_name[edge.producer]
            second = self._by_name[edge.consumer]
            if first.name == second.name:
                continue
            reverse = graph.edge(second.name, first.name)
            if reverse is None or reverse.kind != "confirmed":
                continue
            witness = self._oscillation_witness(first, second)
            if witness is not None:
                found.append((first.name, second.name, witness))
        return found

    def _oscillation_witness(
        self, first: Rule, second: Rule
    ) -> Optional[str]:
        for workload, ctx, tree, _, outputs in self._rule_products(first):
            for output in outputs:
                if not match_structure(output, second.pattern):
                    continue
                for restored in self._safe_substitutions(
                    second, output, ctx
                ):
                    if restored.fingerprint() == tree.fingerprint():
                        return (
                            f"{workload}: {render_tree(tree)} "
                            f"=[{first.name}]=> {render_tree(output)} "
                            f"=[{second.name}]=> original tree"
                        )
        return None

    def _report_commuting(
        self, report: AnalysisReport, graph: InteractionGraph
    ) -> None:
        inverses = {
            (a, b) for a, b, _ in self._inverse_pairs(graph)
        }
        for edge in graph.confirmed_edges:
            a, b = edge.producer, edge.consumer
            if a >= b:
                continue  # report each unordered pair once
            reverse = graph.edge(b, a)
            if reverse is None or reverse.kind != "confirmed":
                continue
            if (a, b) in inverses or (b, a) in inverses:
                continue  # already reported as an IG401 cycle
            self._emit(
                report,
                "IG402",
                Severity.INFO,
                f"{a} and {b} mutually enable each other (each fires on "
                "the other's output): candidate commuting pair",
                rule=a,
                location=edge.witness,
            )

    def _report_redundancy(self, report: AnalysisReport) -> None:
        for rule in self.rules:
            chains = self._redundancy_chains(rule)
            if chains:
                self._emit(
                    report,
                    "IG403",
                    Severity.WARNING,
                    "every sampled substitution output is reproducible by "
                    "other rules applied at the binding root (via "
                    + ", ".join(chains)
                    + "); the rule may be composition-redundant",
                    rule=rule.name,
                )

    def _redundancy_chains(self, rule: Rule) -> Optional[List[str]]:
        """Chains of other rules reproducing every output, or ``None``."""
        others = [r for r in self.rules if r.name != rule.name]
        chains: Set[str] = set()
        any_outputs = False
        for _, ctx, tree, _, outputs in self._rule_products(rule):
            if not outputs:
                continue
            any_outputs = True
            step1: Dict[str, Tuple[str, LogicalOp]] = {}
            for other in others:
                if not match_structure(tree, other.pattern):
                    continue
                for produced in self._safe_substitutions(other, tree, ctx):
                    step1.setdefault(
                        produced.fingerprint(), (other.name, produced)
                    )
            step2: Dict[str, str] = {}
            for fp in sorted(step1):
                name, intermediate = step1[fp]
                for other in others:
                    if not match_structure(intermediate, other.pattern):
                        continue
                    for produced in self._safe_substitutions(
                        other, intermediate, ctx
                    ):
                        step2.setdefault(
                            produced.fingerprint(),
                            f"{name} -> {other.name}",
                        )
            for output in outputs:
                fp = output.fingerprint()
                if fp in step1:
                    chains.add(step1[fp][0])
                elif fp in step2:
                    chains.add(step2[fp])
                else:
                    return None
        if not any_outputs:
            return None
        return sorted(chains)

    def _report_blind_spots(
        self, report: AnalysisReport, graph: InteractionGraph
    ) -> None:
        for edge in graph.confirmed_edges:
            if edge.producer == edge.consumer:
                continue
            if not self._pair_generatable(edge.producer, edge.consumer):
                self._emit(
                    report,
                    "IG404",
                    Severity.WARNING,
                    f"confirmed interaction {edge.producer} -> "
                    f"{edge.consumer} but no composite pattern of the pair "
                    "can be instantiated against any bundled workload: "
                    "the pattern-based generator cannot co-exercise it",
                    rule=edge.producer,
                    location=edge.witness,
                )

    def _pair_generatable(self, producer: str, consumer: str) -> bool:
        first = self._by_name[producer]
        second = self._by_name[consumer]
        hints = merge_hints([first, second])
        composites = compose_patterns(first.pattern, second.pattern)
        for position, composite in enumerate(composites[:MAX_COMPOSITES]):
            for workload_name, catalog, stats in self.workloads:
                for attempt in range(BLIND_SPOT_ATTEMPTS):
                    rng = random.Random(
                        f"interact:blind:{self.seed}:{producer}:{consumer}"
                        f":{workload_name}:{position}:{attempt}"
                    )
                    instantiator = PatternInstantiator(catalog, rng, stats)
                    try:
                        tree = instantiator.instantiate(composite, hints)
                        validate_tree(tree, catalog)
                    except (GenerationFailure, ValidationError):
                        continue
                    except Exception:  # noqa: BLE001 - malformed composite
                        continue
                    return True
        return False


def _strongly_connected(
    nodes: Sequence[str], edges: Set[Tuple[str, str]]
) -> List[List[str]]:
    """Tarjan SCC; returns components of size > 1, each sorted, sorted."""
    graph: Dict[str, List[str]] = {node: [] for node in nodes}
    for producer, consumer in sorted(edges):
        if producer != consumer and producer in graph:
            graph[producer].append(consumer)

    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []

    def connect(node: str) -> None:
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in graph.get(node, ()):
            if succ not in index:
                connect(succ)
                lowlink[node] = min(lowlink[node], lowlink[succ])
            elif succ in on_stack:
                lowlink[node] = min(lowlink[node], index[succ])
        if lowlink[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                components.append(sorted(component))

    for node in nodes:
        if node not in index:
            connect(node)
    return sorted(components)


def interaction_markdown(
    graph: InteractionGraph, report: AnalysisReport
) -> str:
    """Render ``docs/INTERACTIONS.md`` from a graph and its IG findings."""
    lines = [
        "# Rule-interaction graph",
        "",
        "*Generated by `tools/generate_rule_docs.py` from "
        "`repro.analysis.interact` -- do not edit by hand.*",
        "",
        "An edge `A -> B` means a tree produced by A's substitution can "
        "structurally match B's pattern at a node A created.  `confirmed` "
        "edges carry a concrete witness tree (literal match, precondition "
        "accepted); `structural` edges are realizable only through memo "
        "equivalence (the consumer's deeper pattern levels match an "
        "equivalent expression, not the literal subtree).  Dynamically "
        "observed interactions (`OptimizeResult.rule_interactions`) are a "
        "subset of these edges.",
        "",
    ]
    counts = graph.to_json_dict()["counts"]
    lines.extend(
        [
            "## Summary",
            "",
            f"- rules: {counts['rules']}",
            f"- edges: {counts['edges']} "
            f"({counts['confirmed']} confirmed, "
            f"{counts['structural']} structural)",
            f"- confirmed cycles (SCCs): {len(graph.cycles)}",
            "",
        ]
    )
    cycle_diags = [d for d in report.diagnostics if d.code == "IG401"]
    if cycle_diags:
        lines.append("## Cycles and termination hazards (IG401)")
        lines.append("")
        lines.append(
            "All are benign under memo deduplication -- a substitute "
            "already in the memo is not re-explored -- but any rewrite "
            "driver without deduplication must bound its depth."
        )
        lines.append("")
        for diag in cycle_diags:
            lines.append(f"- **{diag.rule}**: {diag.message}")
            if diag.location:
                lines.append(f"  - witness: `{diag.location}`")
        lines.append("")
    commuting = [d for d in report.diagnostics if d.code == "IG402"]
    if commuting:
        lines.append("## Candidate commuting pairs (IG402)")
        lines.append("")
        for diag in commuting:
            lines.append(f"- {diag.message}")
        lines.append("")
    redundant = [d for d in report.diagnostics if d.code == "IG403"]
    if redundant:
        lines.append("## Composition-redundant rules (IG403)")
        lines.append("")
        for diag in redundant:
            lines.append(f"- **{diag.rule}**: {diag.message}")
        lines.append("")
    blind = [d for d in report.diagnostics if d.code == "IG404"]
    if blind:
        lines.append("## Generator blind spots (IG404)")
        lines.append("")
        for diag in blind:
            lines.append(f"- {diag.message}")
        lines.append("")
    lines.append("## Confirmed edges")
    lines.append("")
    lines.append("| producer | consumers |")
    lines.append("| --- | --- |")
    confirmed_by_producer: Dict[str, List[str]] = {}
    for edge in graph.confirmed_edges:
        confirmed_by_producer.setdefault(edge.producer, []).append(
            edge.consumer
        )
    for producer in graph.rules:
        consumers = confirmed_by_producer.get(producer)
        if consumers:
            lines.append(f"| {producer} | {', '.join(consumers)} |")
    lines.append("")
    lines.append(
        "The full graph (including structural edges) is exported as JSON "
        "by `repro analyze --interactions --json`; "
        "`docs/interactions.dot` holds the confirmed subgraph in Graphviz "
        "format."
    )
    lines.append("")
    return "\n".join(lines)
