"""The testing framework: the paper's primary contribution.

Query generation (RANDOM / PATTERN / pattern composition), test-suite
construction, test-suite compression (BASELINE / SMC / TOPK / matching) and
correctness execution.
"""

from repro.testing.builders import GenerationFailure, TreeBuilder, column_origins
from repro.testing.composition import compose_patterns, substitution_compositions
from repro.testing.compression import (
    CompressionError,
    CompressionPlan,
    TopKStats,
    baseline_plan,
    matching_plan,
    set_multicover_plan,
    top_k_independent_plan,
)
from repro.testing.correctness import (
    ComparisonRecord,
    CorrectnessReport,
    CorrectnessRunner,
)
from repro.testing.coverage import CoverageCampaign, CoverageReport
from repro.testing.detection import (
    DetectionError,
    DetectionPlan,
    DetectionScore,
    KillMatrix,
    MutantRow,
    ParetoPoint,
    ParetoReport,
    cross_validated_scores,
    detection_plan,
    pareto_report,
    score_selection,
)
from repro.testing.generator import GenerationOutcome, QueryGenerator
from repro.testing.pattern_gen import (
    PatternInstantiator,
    add_random_operators,
    merge_hints,
)
from repro.testing.random_gen import RandomQueryGenerator
from repro.testing.report import CampaignResult, run_campaign
from repro.testing.suite import (
    CostOracle,
    RuleNode,
    SuiteQuery,
    TestSuite,
    TestSuiteBuilder,
    pair_nodes,
    singleton_nodes,
)

__all__ = [
    "CampaignResult",
    "ComparisonRecord",
    "CompressionError",
    "CompressionPlan",
    "CorrectnessReport",
    "CorrectnessRunner",
    "CostOracle",
    "CoverageCampaign",
    "CoverageReport",
    "DetectionError",
    "DetectionPlan",
    "DetectionScore",
    "GenerationFailure",
    "GenerationOutcome",
    "KillMatrix",
    "MutantRow",
    "ParetoPoint",
    "ParetoReport",
    "PatternInstantiator",
    "QueryGenerator",
    "RandomQueryGenerator",
    "RuleNode",
    "SuiteQuery",
    "TestSuite",
    "TestSuiteBuilder",
    "TopKStats",
    "TreeBuilder",
    "add_random_operators",
    "baseline_plan",
    "column_origins",
    "compose_patterns",
    "cross_validated_scores",
    "detection_plan",
    "matching_plan",
    "merge_hints",
    "pair_nodes",
    "pareto_report",
    "run_campaign",
    "score_selection",
    "set_multicover_plan",
    "singleton_nodes",
    "substitution_compositions",
    "top_k_independent_plan",
]
