"""Renderers for :class:`~repro.testing.mutation.campaign.MutationReport`.

Three formats, all derived from the same kill matrix:

* **dict/JSON** -- deterministic (no wall-clock fields, sorted keys), the
  artifact the determinism test asserts byte-identical across runs;
* **markdown**  -- the kill matrix as a table plus the per-variant scores,
  suitable for the campaign archive;
* **text**      -- a compact terminal summary for ``repro mutate``.
"""

from __future__ import annotations

import json
from typing import List

from repro.testing.mutation.campaign import VARIANTS


def _score(value) -> object:
    return None if value is None else round(value, 4)


def report_to_dict(report) -> dict:
    """JSON-ready form.  Deliberately timing-free: two runs with the same
    seed and configuration must serialize byte-identically."""
    return {
        "config": {
            "rules": list(report.rule_names),
            "operators": list(report.operators),
            "pool": report.pool,
            "k": report.k,
            "seed": report.seed,
            "seeds": list(report.seeds),
            "extra_operators": report.extra_operators,
            "differential_backends": list(report.differential_backends),
        },
        "summary": {
            variant: {
                "detection_score": _score(report.detection_score(variant)),
                "relative_to_full": _score(report.relative_score(variant)),
                "detected": report.detected_ids(variant),
                "survivors": report.surviving_ids(variant),
                "unexpected_detections": report.unexpected_detections(
                    variant
                ),
                "status_counts": dict(
                    sorted(report.status_counts(variant).items())
                ),
            }
            for variant in VARIANTS
        },
        "mutants": [
            {
                "id": outcome.mutant_id,
                "rule": outcome.rule_name,
                "operator": outcome.operator,
                "description": outcome.description,
                "expected_detectable": outcome.expected_detectable,
                "expectation_note": outcome.expectation_note,
                "pool_size": outcome.pool_size,
                # The mutant's kill-matrix row: per-pool-query verdicts
                # and costs (repro.testing.detection consumes these).
                "query_verdicts": [
                    [query_id, verdict]
                    for query_id, verdict in outcome.query_verdicts
                ],
                "query_costs": [
                    [query_id, cost]
                    for query_id, cost in outcome.query_costs
                ],
                "variants": {
                    variant: {
                        "status": result.status,
                        "queries": list(result.query_ids),
                        "detail": result.detail,
                    }
                    for variant, result in sorted(
                        outcome.variants.items()
                    )
                },
                # Only where the fleet raised, so a run whose fleet
                # reported (or that had none) serializes as it did before.
                **(
                    {"fleet_error": outcome.fleet_error}
                    if outcome.fleet_error else {}
                ),
            }
            for outcome in report.outcomes
        ],
    }


def report_to_json(report) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


def _format_score(value) -> str:
    return "n/a" if value is None else f"{value:.0%}"


def report_to_markdown(report) -> str:
    lines: List[str] = []
    lines.append("# Mutation campaign")
    lines.append("")
    lines.append(
        f"- rules under test: **{len(report.rule_names)}**, operators: "
        f"{', '.join(report.operators)}"
    )
    seeds = ", ".join(str(seed) for seed in report.seeds)
    lines.append(
        f"- suite: pool of {report.pool} regenerated queries per mutant "
        f"and seed, compressed suites select k={report.k} "
        f"(seeds: {seeds})"
    )
    lines.append(
        f"- mutants evaluated: **{len(report.outcomes)}** "
        f"({len(report.expected())} expected detectable)"
    )
    if report.service_stats:
        lines.append(
            f"- plan service: {report.service_stats.get('requests', 0)} "
            f"requests, {report.service_stats.get('memory_hits', 0)} cache "
            f"hits, {report.service_stats.get('computed', 0)} optimizations"
        )
    lines.append("")

    lines.append("## Detection scores")
    lines.append("")
    lines.append("| suite variant | detection score | relative to FULL |")
    lines.append("|---|---|---|")
    for variant in VARIANTS:
        lines.append(
            f"| {variant} | "
            f"{_format_score(report.detection_score(variant))} | "
            f"{_format_score(report.relative_score(variant))} |"
        )
    lines.append("")

    lines.append("## Kill matrix")
    lines.append("")
    lines.append("| mutant | expected | FULL | SMC | TOPK |")
    lines.append("|---|---|---|---|---|")
    for outcome in report.outcomes:
        expected = "yes" if outcome.expected_detectable else "no"
        cells = " | ".join(
            outcome.status(variant) for variant in VARIANTS
        )
        lines.append(f"| {outcome.mutant_id} | {expected} | {cells} |")
    lines.append("")
    unjudged = [o for o in report.outcomes if o.fleet_error]
    for outcome in unjudged:
        lines.append(
            f"- fleet error on `{outcome.mutant_id}` (not judged by the "
            f"differential oracle): {outcome.fleet_error}"
        )
    if unjudged:
        lines.append("")

    for variant in VARIANTS:
        survivors = report.surviving_ids(variant)
        if survivors:
            lines.append(f"## Survivors under {variant}")
            lines.append("")
            for mutant_id in survivors:
                outcome = next(
                    o for o in report.outcomes if o.mutant_id == mutant_id
                )
                detail = outcome.variants[variant].detail
                suffix = f" -- {detail}" if detail else ""
                lines.append(
                    f"- `{mutant_id}` "
                    f"({outcome.status(variant)}){suffix}"
                )
            lines.append("")

    notes = [
        outcome
        for outcome in report.outcomes
        if not outcome.expected_detectable and outcome.expectation_note
    ]
    if notes:
        lines.append("## Mutants not expected detectable")
        lines.append("")
        for outcome in notes:
            lines.append(
                f"- `{outcome.mutant_id}`: {outcome.expectation_note}"
            )
        lines.append("")
    return "\n".join(lines)


def report_to_text(report) -> str:
    lines: List[str] = []
    lines.append(
        f"mutation campaign: {len(report.outcomes)} mutants over "
        f"{len(report.rule_names)} rules "
        f"(pool={report.pool}, k={report.k}, "
        f"seeds={','.join(str(s) for s in report.seeds)})"
    )
    for variant in VARIANTS:
        counts = report.status_counts(variant)
        summary = ", ".join(
            f"{status}={count}" for status, count in sorted(counts.items())
        )
        lines.append(
            f"  {variant:<5} score {_format_score(report.detection_score(variant)):>5} "
            f"(vs FULL {_format_score(report.relative_score(variant))}): "
            f"{summary}"
        )
    for variant in VARIANTS:
        for mutant_id in report.surviving_ids(variant):
            lines.append(f"  SURVIVOR[{variant}]: {mutant_id}")
    for outcome in report.outcomes:
        if outcome.fleet_error:
            lines.append(
                f"  FLEET ERROR: {outcome.mutant_id}: {outcome.fleet_error}"
            )
    unexpected = report.unexpected_detections("FULL")
    for mutant_id in unexpected:
        lines.append(f"  UNEXPECTED DETECTION[FULL]: {mutant_id}")
    return "\n".join(lines)
