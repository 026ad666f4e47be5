"""Mutation testing for transformation rules (see docs/TESTING.md).

Auto-generates buggy rule variants (*mutants*) from the registry via
systematic mutation operators, runs each one through the paper's full
test pipeline (pattern generation -> compression -> differential
correctness oracle), and scores how many faults each suite variant
(FULL / SMC / TOPK) detects -- the empirical validation that compressed
suites keep the fault-detection power of the full suite.
"""

from repro.testing.mutation.campaign import (
    CRASHED,
    DETECTED_STATUSES,
    EQUIVALENT,
    KILLED,
    NO_FIRE,
    NOT_COVERED,
    SURVIVED,
    VARIANTS,
    MutantOutcome,
    MutationCampaign,
    MutationReport,
    VariantOutcome,
)
from repro.testing.mutation.operators import (
    DEFAULT_OPERATORS,
    EXPECTATION_OVERRIDES,
    EXPECTED_DESPITE_OPERATOR,
    OPERATOR_NAMES,
    Mutant,
    MutationOperator,
    generate_mutants,
)

__all__ = [
    "CRASHED",
    "DEFAULT_OPERATORS",
    "DETECTED_STATUSES",
    "EQUIVALENT",
    "EXPECTATION_OVERRIDES",
    "EXPECTED_DESPITE_OPERATOR",
    "KILLED",
    "Mutant",
    "MutantOutcome",
    "MutationCampaign",
    "MutationOperator",
    "MutationReport",
    "NO_FIRE",
    "NOT_COVERED",
    "OPERATOR_NAMES",
    "SURVIVED",
    "VARIANTS",
    "VariantOutcome",
    "generate_mutants",
]
