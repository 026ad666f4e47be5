"""Kill-tests for the subquery-unnesting rule family.

Mirror of ``tests/test_analysis_faults.py`` for the mutation side: each
auto-generated mutant of the Apply rules is pinned to the campaign
verdict it must receive, so a refactor that silently blinds the
differential oracle to the new rule surface fails here.  The expectation
table in :mod:`repro.testing.mutation.operators` records *why* the
not-expected mutants escape; this module asserts both directions.
"""

from __future__ import annotations

import pytest

from repro.rules.registry import default_registry
from repro.testing.mutation import MutationCampaign, generate_mutants
from repro.testing.mutation.campaign import KILLED, NO_FIRE
from repro.workloads import tpch_database

SUBQUERY_RULES = [
    "ApplyToSemiJoin",
    "ApplyToAntiJoin",
    "ApplyDecorrelateSelect",
    "SelectPushIntoApplyLeft",
    "SemiJoinToDistinctInnerJoin",
]

#: Campaign verdict every expected-detectable subquery mutant must get on
#: the FULL suite (KILLED = bag mismatch, CRASHED also counts as detected
#: -- see DETECTED_STATUSES).  Validated empirically; the exact repro is
#: recorded in EXPERIMENTS.md ("Subquery unnesting rules under mutation").
EXPECTED_DETECTED = {
    # Semi rule firing on anti Applies: EXISTS/NOT EXISTS mix-up.
    "ApplyToSemiJoin:widen-join-kind:j0+anti",
    # The decorrelated predicate loses the subquery's own filter.
    "ApplyDecorrelateSelect:drop-conjunct",
    # The Distinct-based rewrite applied to a plain inner join drops that
    # join's right columns / multiplicities.
    "SemiJoinToDistinctInnerJoin:widen-join-kind:j0+inner",
    "SemiJoinToDistinctInnerJoin:widen-join-kind:j0+left-outer",
}


@pytest.fixture(scope="module")
def campaign_report():
    database = tpch_database(seed=1)
    campaign = MutationCampaign(
        database,
        default_registry(),
        pool=6,
        k=2,
        seeds=(0, 1),
        extra_operators=2,
    )
    return campaign.run(rule_names=SUBQUERY_RULES)


class TestSubqueryMutantCorpus:
    def test_each_rule_contributes_mutants(self):
        mutants = generate_mutants(default_registry(), SUBQUERY_RULES)
        by_rule = {name: 0 for name in SUBQUERY_RULES}
        for mutant in mutants:
            by_rule[mutant.rule_name] += 1
        assert all(count >= 2 for count in by_rule.values()), by_rule

    def test_widen_apply_kind_mutants_exist(self):
        """The widen operator must cover APPLY pattern slots (SEMI<->ANTI),
        not just JOIN ones."""
        ids = {
            m.mutant_id
            for m in generate_mutants(default_registry(), SUBQUERY_RULES)
        }
        assert "ApplyToSemiJoin:widen-join-kind:j0+anti" in ids
        assert "ApplyToAntiJoin:widen-join-kind:j0+semi" in ids

    def test_drop_conjunct_reaches_apply_predicates(self):
        """ApplyDecorrelateSelect builds its predicate with conjunction();
        the drop-conjunct operator must produce a mutant that actually
        perturbs the Apply (a no-op mutant would score NO_FIRE-like
        EQUIVALENT forever and prove nothing)."""
        mutants = {
            m.mutant_id: m
            for m in generate_mutants(
                default_registry(), ["ApplyDecorrelateSelect"]
            )
        }
        assert "ApplyDecorrelateSelect:drop-conjunct" in mutants


@pytest.mark.mutation
class TestSubqueryKillMatrix:
    """Not tier-1: the 5-rule x 2-seed campaign behind ``campaign_report``
    takes ~50 s, and CI's ``mutation-smoke`` job runs it anyway (via
    ``pytest -m "slow or mutation"`` and as its Apply-family ``repro
    mutate`` step)."""

    def test_expected_mutants_are_detected_on_full(self, campaign_report):
        """Every expected-detectable Apply mutant is caught by the FULL
        differential suite -- the acceptance bar for the new rule surface."""
        outcomes = {o.mutant_id: o for o in campaign_report.outcomes}
        for mutant_id in EXPECTED_DETECTED:
            outcome = outcomes[mutant_id]
            assert outcome.expected_detectable, mutant_id
            assert outcome.detected("FULL"), (
                f"{mutant_id} escaped the FULL suite: "
                f"{outcome.status('FULL')}"
            )

    def test_at_least_one_mutant_is_killed_by_bag_mismatch(
        self, campaign_report
    ):
        """At least one unnesting fault must die by actual result
        disagreement (not only by crashing), proving the oracle end of
        the pipeline sees subquery shapes."""
        killed = [
            o.mutant_id
            for o in campaign_report.outcomes
            if o.status("FULL") == KILLED
        ]
        assert "ApplyToSemiJoin:widen-join-kind:j0+anti" in killed

    def test_curated_survivors_stay_unexpected(self, campaign_report):
        """Mutants curated as undetectable must neither be expected nor
        detected; if one starts being detected the campaign itself flags
        it via unexpected_detections, and this pin forces the curation
        note to be re-examined."""
        outcomes = {o.mutant_id: o for o in campaign_report.outcomes}
        for mutant_id in (
            "ApplyToAntiJoin:widen-join-kind:j0+semi",
            "SelectPushIntoApplyLeft:drop-precondition",
            "SemiJoinToDistinctInnerJoin:drop-precondition",
            "SemiJoinToDistinctInnerJoin:drop-distinct",
        ):
            outcome = outcomes[mutant_id]
            assert not outcome.expected_detectable, mutant_id
            assert outcome.expectation_note, mutant_id
            assert not outcome.detected("FULL"), (
                f"{mutant_id} is now detected; its EXPECTATION_OVERRIDES "
                "entry is stale"
            )

    def test_skip_substitute_mutants_score_no_fire(self, campaign_report):
        """Dropping the only alternative of a single-substitute rule is an
        availability bug: generation cannot exercise the rule at all."""
        outcomes = {o.mutant_id: o for o in campaign_report.outcomes}
        for rule in SUBQUERY_RULES:
            outcome = outcomes[f"{rule}:skip-substitute"]
            assert outcome.status("FULL") == NO_FIRE, outcome.mutant_id
