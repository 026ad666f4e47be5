"""Tests for the rule-interaction graph pass (IG4xx).

The load-bearing properties: the graph is deterministic (byte-identical
JSON across processes with different hash seeds), and it is *sound*
against the optimizer -- every producer/consumer pair the engine observes
dynamically (``OptimizeResult.rule_interactions``) must be an edge of the
statically computed graph.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import InteractionAnalyzer, interaction_markdown
from repro.logical.operators import OpKind
from repro.optimizer.engine import Optimizer
from repro.rules.framework import ANY, P, Rule
from repro.rules.registry import RuleRegistry, default_registry
from repro.testing.random_gen import RandomQueryGenerator
from repro.workloads import tpch_database

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def analyzer():
    return InteractionAnalyzer(default_registry())


@pytest.fixture(scope="module")
def graph(analyzer):
    return analyzer.build_graph()


@pytest.fixture(scope="module")
def report(analyzer):
    return analyzer.run()


class TestGraphStructure:
    def test_covers_every_exploration_rule(self, graph):
        expected = [r.name for r in default_registry().exploration_rules]
        assert graph.rules == expected
        assert len(graph.rules) == 40

    def test_edges_are_sorted_and_typed(self, graph):
        pairs = [(e.producer, e.consumer) for e in graph.edges]
        assert pairs == sorted(pairs)
        assert len(set(pairs)) == len(pairs)
        assert {e.kind for e in graph.edges} <= {"confirmed", "structural"}

    def test_confirmed_edges_carry_witnesses(self, graph):
        confirmed = graph.confirmed_edges
        assert confirmed, "expected at least one confirmed interaction"
        for edge in confirmed:
            assert edge.witness, f"{edge.producer}->{edge.consumer}"
            # The witness names the producing rule and renders the trees.
            assert f"=[{edge.producer}]=>" in edge.witness

    def test_paper_example_edge(self, graph):
        """The paper's Example 3 composition: a LOJ associativity rewrite
        exposes an inner join that commutativity can then reorder."""
        edge = graph.edge("JoinLojAssociativity", "JoinCommutativity")
        assert edge is not None
        assert edge.kind == "confirmed"
        assert "JoinCommutativity matches at" in edge.witness

    def test_successors_and_has_edge_agree(self, graph):
        for producer in graph.rules[:5]:
            for consumer in graph.successors(producer):
                assert graph.has_edge(producer, consumer)

    def test_cycles_found(self, graph):
        # The join-reordering rules form a non-trivial SCC.
        assert graph.cycles
        assert any(
            "JoinCommutativity" in component for component in graph.cycles
        )

    def test_json_dict_counts(self, graph):
        payload = graph.to_json_dict()
        assert payload["counts"]["edges"] == len(graph.edges)
        assert payload["counts"]["confirmed"] == len(graph.confirmed_edges)
        assert payload["rules"] == graph.rules

    def test_dot_confirmed_only(self, graph):
        dot = graph.to_dot()
        assert "digraph rule_interactions" in dot
        # Structural edges are excluded from the rendering.
        assert dot.count("->") == len(graph.confirmed_edges)


class TestDeterminism:
    def _graph_json(self, hash_seed: str) -> str:
        script = (
            "from repro.analysis import InteractionAnalyzer\n"
            "from repro.rules.registry import default_registry\n"
            "print(InteractionAnalyzer(default_registry())"
            ".build_graph().to_json())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": "src",
                "PATH": "/usr/bin:/bin",
                "PYTHONHASHSEED": hash_seed,
            },
            capture_output=True,
            text=True,
            check=True,
        )
        return result.stdout

    def test_byte_identical_across_processes(self, graph):
        first = self._graph_json("0")
        second = self._graph_json("12345")
        assert first == second
        # And both match the in-process graph.
        assert json.loads(first) == graph.to_json_dict()


class TestDynamicConsistency:
    def test_observed_interactions_are_graph_edges(self, graph):
        """Soundness: pairs the optimizer observes via expression
        provenance must all be edges of the static graph."""
        db = tpch_database(seed=1)
        stats = db.stats_repository()
        generator = RandomQueryGenerator(db.catalog, seed=7, stats=stats)
        optimizer = Optimizer(db.catalog, stats)
        observed = set()
        for _ in range(40):
            tree = generator.random_tree(target_operators=7)
            observed |= optimizer.optimize(tree).rule_interactions
        assert len(observed) > 50, "generator produced too few interactions"
        missing = sorted(
            pair for pair in observed if not graph.has_edge(*pair)
        )
        assert not missing, f"dynamic pairs missing from graph: {missing}"


class TestFindings:
    def test_clean_registry_reports_no_warnings(self, report):
        assert not report.errors
        assert not report.warnings

    def test_counters(self, report, graph):
        assert report.counters["interaction_rules"] == 40
        assert report.counters["interaction_edges"] == len(graph.edges)
        assert report.counters["interaction_edges_confirmed"] == len(
            graph.confirmed_edges
        )

    def test_confirmed_cycle_finding_present(self, report):
        """Acceptance: at least one confirmed cycle documented, with a
        concrete witness and a fix hint."""
        cycles = [d for d in report.diagnostics if d.code == "IG401"]
        assert cycles
        restoring = [
            d for d in cycles if "restores the original tree" in d.message
        ]
        assert restoring, "expected a confirmed inverse-pair cycle"
        for diag in cycles:
            assert diag.rule
            assert diag.hint
        assert any(d.location for d in cycles), "cycles need witnesses"

    def test_commuting_pairs_reported_once(self, report):
        commuting = [d for d in report.diagnostics if d.code == "IG402"]
        assert commuting
        # Each unordered pair is reported once, anchored at one rule.
        seen = set()
        for diag in commuting:
            partner = diag.message.split(" and ")[1].split(" mutually")[0]
            pair = frozenset((diag.rule, partner))
            assert pair not in seen
            seen.add(pair)

    def test_ig400_for_unmatchable_pattern(self):
        class Unmatchable(Rule):
            name = "UnmatchableProbe"
            # JOIN takes two children; this pattern can never match, so no
            # bindings can be synthesized for it.
            pattern = P(OpKind.JOIN, ANY)

            def substitute(self, binding, ctx):
                return ()

        analyzer = InteractionAnalyzer(RuleRegistry([Unmatchable()], []))
        report = analyzer.run()
        codes = [d.code for d in report.diagnostics]
        assert "IG400" in codes
        diag = next(d for d in report.diagnostics if d.code == "IG400")
        assert diag.rule == "UnmatchableProbe"
        assert diag.hint


class TestMarkdown:
    def test_markdown_sections(self, graph, report):
        text = interaction_markdown(graph, report)
        assert "# Rule-interaction graph" in text
        assert "IG401" in text
        assert "confirmed rewrite cycle" in text
        assert "## Confirmed edges" in text
        assert "| producer | consumers |" in text
