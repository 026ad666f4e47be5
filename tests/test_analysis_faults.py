"""Locking tests: the analyzer must catch every statically detectable
injected fault from ``repro.rules.faults``.

Each fault is a plausible incorrect variant of a real rule.  These tests
pin down *which* diagnostic each one trips, so a future refactor that
silently blinds the verifier fails here rather than in production.
"""

import pytest

from repro.analysis import SubstitutionVerifier
from repro.analysis.verify import default_workloads
from repro.rules.faults import ALL_FAULTS
from repro.rules.registry import default_registry


@pytest.fixture(scope="module")
def workloads():
    return default_workloads(seed=1)


def _verify_fault(name, workloads):
    registry = default_registry().with_replaced_rule(ALL_FAULTS[name]())
    verifier = SubstitutionVerifier(
        registry, workloads, samples_per_workload=4
    )
    return verifier.check_rule(registry.rule(name))


# (fault name, expected diagnostic) for every *statically* detectable fault.
STATIC_FAULTS = [
    # Dropping the null-rejection precondition lets an IS NULL filter over a
    # LOJ rewrite to an inner join whose bounds are provably empty while the
    # original's are not.
    ("LojToJoinOnNullReject", "SV206"),
    # Pushing a filter below the preserved side of a LEFT OUTER join
    # NULL-extends the filtered rows: right-side columns lose their derived
    # non-null guarantee.
    ("SelectPushBelowJoinRight", "SV205"),
    # Removing Distinct without the key check loses the definitional
    # duplicate-free guarantee on the output column set.
    ("DistinctRemoveOnKey", "SV204"),
]


@pytest.mark.parametrize("fault_name,expected_code", STATIC_FAULTS)
def test_fault_produces_expected_diagnostic(
    fault_name, expected_code, workloads
):
    report = _verify_fault(fault_name, workloads)
    assert report.has_errors, f"{fault_name} produced no errors"
    assert expected_code in {d.code for d in report.errors}


@pytest.mark.parametrize("fault_name,expected_code", STATIC_FAULTS)
def test_fault_diagnostic_names_the_rule(
    fault_name, expected_code, workloads
):
    report = _verify_fault(fault_name, workloads)
    assert all(d.rule == fault_name for d in report.errors)


def test_eager_aggregation_fault_is_dynamic_only(workloads):
    """BuggyEagerAggregation swaps the global combiner (SUM of partial
    counts -> COUNT of groups).  That is a value-level bug: the tree it
    emits has the right schema, keys, nullability, and bounds, so no
    static check can flag it -- only the execution-based correctness
    harness (``repro correctness``) catches it.  This test documents the
    boundary of the static analyzer rather than a gap in it."""
    report = _verify_fault("GbAggEagerBelowJoin", workloads)
    assert not report.has_errors


def test_every_fault_is_classified(workloads):
    """Every entry in ALL_FAULTS must be accounted for above, so adding a
    new fault forces a decision about its static detectability."""
    classified = {name for name, _ in STATIC_FAULTS} | {"GbAggEagerBelowJoin"}
    assert classified == set(ALL_FAULTS)
