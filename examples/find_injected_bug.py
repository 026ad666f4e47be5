#!/usr/bin/env python3
"""Fault injection: prove the framework catches real optimizer bugs.

Swaps a deliberately buggy variant of a transformation rule into the
optimizer (a missing precondition -- the classic way rule bugs happen),
generates a test suite for that rule, runs correctness testing, and shows
the harness flagging the result mismatch, including the failing SQL.
"""

from repro import default_registry, tpch_database
from repro.rules.faults import BuggyLojToJoin
from repro.testing import (
    CorrectnessRunner,
    CostOracle,
    TestSuiteBuilder,
    singleton_nodes,
    top_k_independent_plan,
)

RULE = "LojToJoinOnNullReject"


def main() -> None:
    database = tpch_database(seed=1)

    print(
        f"Injecting {BuggyLojToJoin.__name__}: the {RULE} rule without its "
        "null-rejection precondition.\n"
    )
    buggy_registry = default_registry().with_replaced_rule(BuggyLojToJoin())

    caught = False
    for seed in range(20, 40):
        builder = TestSuiteBuilder(
            database, buggy_registry, seed=seed, extra_operators=2
        )
        suite = builder.build(singleton_nodes([RULE]), k=10)
        oracle = CostOracle(database, buggy_registry)
        plan = top_k_independent_plan(suite, oracle)
        report = CorrectnessRunner(database, buggy_registry).run(plan, suite)
        if report.issues:
            print(f"Bug detected (suite seed {seed}):")
            for issue in report.issues:
                print(f"  rule(s): {' + '.join(issue.rule_node)}")
                print(f"  mismatch: {issue.detail}")
                print(f"  failing SQL:\n    {suite.query(issue.query_id).sql}")
            caught = True
            break
        print(f"  suite seed {seed}: no mismatch yet, regenerating ...")
    if not caught:
        raise SystemExit("expected the harness to catch the injected bug")

    print("\nSanity check: the *correct* rule library passes the same kind "
          "of suite.")
    clean_registry = default_registry()
    builder = TestSuiteBuilder(
        database, clean_registry, seed=20, extra_operators=2
    )
    suite = builder.build(singleton_nodes([RULE]), k=10)
    oracle = CostOracle(database, clean_registry)
    plan = top_k_independent_plan(suite, oracle)
    report = CorrectnessRunner(database, clean_registry).run(plan, suite)
    print(f"  clean library issues: {len(report.issues)} (expected 0)")


if __name__ == "__main__":
    main()
