"""Detection-aware test-suite compression over the mutant kill matrix.

The paper's compression variants (Sections 4-5, 7) preserve *rule
coverage*: every rule node keeps ``k`` covering queries, chosen to
minimize execution cost.  The mutation campaign
(:mod:`repro.testing.mutation`) measures what that objective silently
gives up -- a ``k=2`` compressed suite keeps coverage but loses most of
the fault-*detection* redundancy of the full pool (EXPERIMENTS.md:
FULL 0.92 vs compressed 0.27 detection).

This module makes compression a detection-preserving optimization by
treating the campaign's kill matrix as ground truth the paper never had:

* :class:`KillMatrix` distills the campaign's one kill-matrix file, the
  ``repro mutate --format json`` artifact (a
  :class:`~repro.testing.mutation.campaign.MutationReport` as a dict),
  into mutant rows over per-rule query *slots*.  A slot is a generation recipe --
  position ``i`` of the pool regenerated from the campaign's seeds --
  so a selection of slots is executable against any future build by
  regenerating the same pools;
* :func:`detection_plan` runs a **weighted set-multicover greedy** over
  the matrix: pick, per step, the (rule, slot) with the highest marginal
  mutant kills per unit cost, deterministic tie-breaking, then fill any
  leftover budget with the cheapest slots so the paper's k-coverage
  guarantee is never lost;
* **adaptive per-rule k**: rules whose mutants survive the base budget
  get their budget raised automatically, one slot at a time, until the
  marginal detection gain flattens to zero (or a cap);
* :func:`score_selection` / :func:`cross_validated_scores` score a
  selection against the matrix.  Resubstitution (select and score on
  the same rows) is optimistic by construction, so the leave-one-out
  score -- each mutant scored by a selection computed *without* its own
  row -- is reported alongside it;
* :func:`pareto_report` sweeps budgets into a cost-vs-detection Pareto
  frontier (suite cost = the summed ``Cost(q)`` of selected slots),
  carries the adaptive plan it recommends, and renders both as text,
  markdown and deterministic JSON -- the one report ``repro compress``
  prints.

Everything here is a pure function of the kill matrix: no query
execution, byte-identical artifacts across fresh processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

#: Outcomes in a mutant's ``query_verdicts`` row that count as that query
#: killing the mutant (mirrors the campaign's KILLED/CRASHED folding).
KILLING_VERDICTS = frozenset({"mismatch", "error"})

#: Statuses that detect a mutant before any pool query is scored
#: (build crash, generation NO_FIRE) -- shared by every selection.
_UNIFORM_DETECTED = frozenset({"CRASHED", "NO_FIRE"})


class DetectionError(Exception):
    """Raised when a kill matrix cannot be built or scored."""


# ------------------------------------------------------------ the matrix


@dataclass(frozen=True)
class MutantRow:
    """One kill-matrix row: which slots of its rule's pool kill a mutant."""

    mutant_id: str
    rule: str
    operator: str
    expected_detectable: bool
    #: Detected at build/generation time (CRASHED with an empty pool or
    #: NO_FIRE): every selection detects this mutant for free.
    uniform_detected: bool
    #: Slots whose verdict alone kills the mutant (``mismatch``/``error``).
    killing_slots: FrozenSet[int]

    @property
    def coverable(self) -> bool:
        """Can any selection detect this mutant at all?"""
        return self.uniform_detected or bool(self.killing_slots)


@dataclass
class KillMatrix:
    """The mutant x (rule, slot) detection matrix of one campaign.

    ``slot_costs[rule]`` holds the mean observed ``Cost(q)`` per slot
    across the rule's mutants (each mutant's pool is regenerated against
    its own build, so costs vary slightly; the mean is the deterministic
    representative used by cost-aware selection).
    """

    rules: List[str]
    slot_costs: Dict[str, List[float]]
    rows: List[MutantRow]
    #: Campaign provenance (seeds, pool, backends), for the artifact.
    config: Dict[str, object] = field(default_factory=dict)

    # -------------------------------------------------------- construction

    @classmethod
    def from_report_dict(cls, payload: Mapping) -> "KillMatrix":
        """Build from the ``repro mutate --format json`` artifact."""
        mutants = payload.get("mutants")
        if not mutants:
            raise DetectionError("report has no mutants to build from")
        if all(not mutant.get("query_verdicts") for mutant in mutants):
            raise DetectionError(
                "report carries no per-query verdicts; regenerate it with "
                "a current `repro mutate --format json` run"
            )
        rules: List[str] = []
        cost_sums: Dict[str, Dict[int, List[float]]] = {}
        rows: List[MutantRow] = []
        for mutant in mutants:
            rule = mutant["rule"]
            if rule not in cost_sums:
                rules.append(rule)
                cost_sums[rule] = {}
            verdicts = {
                int(query_id): verdict
                for query_id, verdict in mutant.get("query_verdicts", [])
            }
            for query_id, cost in mutant.get("query_costs", []):
                cost_sums[rule].setdefault(int(query_id), []).append(
                    float(cost)
                )
            full = mutant["variants"]["FULL"]
            rows.append(MutantRow(
                mutant_id=mutant["id"],
                rule=rule,
                operator=mutant["operator"],
                expected_detectable=bool(mutant["expected_detectable"]),
                uniform_detected=(
                    full["status"] in _UNIFORM_DETECTED and not verdicts
                ),
                killing_slots=frozenset(
                    slot for slot, verdict in verdicts.items()
                    if verdict in KILLING_VERDICTS
                ),
            ))
        slot_costs = {
            rule: [
                round(sum(observed) / len(observed), 6)
                for _, observed in sorted(per_slot.items())
            ]
            for rule, per_slot in cost_sums.items()
        }
        config = dict(payload.get("config", {}))
        return cls(
            rules=rules, slot_costs=slot_costs, rows=rows, config=config
        )

    # ------------------------------------------------------------- queries

    def slot_count(self, rule: str) -> int:
        return len(self.slot_costs.get(rule, ()))

    def slot_cost(self, rule: str, slot: int) -> float:
        return self.slot_costs[rule][slot]

    def expected_rows(self) -> List[MutantRow]:
        return [row for row in self.rows if row.expected_detectable]

    def without(self, mutant_id: str) -> "KillMatrix":
        """A copy with one row removed (leave-one-out scoring)."""
        return KillMatrix(
            rules=list(self.rules),
            slot_costs=self.slot_costs,
            rows=[r for r in self.rows if r.mutant_id != mutant_id],
            config=self.config,
        )


# ----------------------------------------------------- greedy multicover


@dataclass
class DetectionPlan:
    """A detection-objective selection: per rule, the chosen slots."""

    base_k: int
    adaptive: bool
    budgets: Dict[str, int]
    selected: Dict[str, Tuple[int, ...]]
    #: Budget raises the adaptive stage performed, per rule.
    raises: Dict[str, int] = field(default_factory=dict)

    @property
    def total_queries(self) -> int:
        return sum(len(slots) for slots in self.selected.values())

    def cost(self, matrix: KillMatrix) -> float:
        return round(sum(
            matrix.slot_cost(rule, slot)
            for rule, slots in self.selected.items()
            for slot in slots
        ), 6)

    def to_json_dict(self) -> dict:
        return {
            "base_k": self.base_k,
            "adaptive": self.adaptive,
            "budgets": dict(sorted(self.budgets.items())),
            "selected": {
                rule: list(slots)
                for rule, slots in sorted(self.selected.items())
            },
            "raises": dict(sorted(self.raises.items())),
            "total_queries": self.total_queries,
        }


def detection_plan(
    matrix: KillMatrix,
    *,
    base_k: int = 2,
    adaptive: bool = True,
    max_k: Optional[int] = None,
) -> DetectionPlan:
    """Greedy weighted set-multicover over the kill matrix.

    Repeatedly selects the (rule, slot) with the highest marginal
    mutant-kill count per unit cost among rules with budget left; ties
    break toward the higher absolute gain, then the cheaper slot, then
    rule name / slot index order, so the selection is a deterministic
    function of the matrix.  Slots that kill nothing still fill each
    rule's remaining budget cheapest-first -- the k-coverage guarantee
    of the paper's objectives is preserved, never traded away.

    With ``adaptive=True``, any rule whose coverable mutants remain
    uncovered after the base pass gets its budget raised one slot at a
    time while the marginal gain is positive, up to ``max_k`` (default:
    the rule's pool size).
    """
    budgets = {
        rule: min(base_k, matrix.slot_count(rule))
        for rule in matrix.rules
    }
    selected: Dict[str, List[int]] = {rule: [] for rule in matrix.rules}
    uncovered: Dict[str, List[MutantRow]] = {
        rule: [] for rule in matrix.rules
    }
    for row in matrix.rows:
        if row.killing_slots and not row.uniform_detected:
            uncovered.setdefault(row.rule, []).append(row)

    def gain(rule: str, slot: int) -> int:
        return sum(
            1 for row in uncovered[rule] if slot in row.killing_slots
        )

    def take(rule: str, slot: int) -> None:
        selected[rule].append(slot)
        uncovered[rule] = [
            row for row in uncovered[rule]
            if slot not in row.killing_slots
        ]

    def best_candidate(rules: Sequence[str]):
        """Highest (gain/cost) open slot; first-seen wins exact ties in
        the deterministic (rule, slot) iteration order."""
        best = None  # (gain/cost, gain, -cost, rule, slot)
        for rule in rules:
            taken = set(selected[rule])
            for slot in range(matrix.slot_count(rule)):
                if slot in taken:
                    continue
                slot_gain = gain(rule, slot)
                cost = max(matrix.slot_cost(rule, slot), 1e-9)
                key = (slot_gain / cost, slot_gain, -cost)
                if best is None or key > best[0]:
                    best = (key, rule, slot, slot_gain)
        return best

    # Base pass: spend every rule's budget, kills-per-cost first.
    while True:
        open_rules = [
            rule for rule in matrix.rules
            if len(selected[rule]) < budgets[rule]
        ]
        if not open_rules:
            break
        found = best_candidate(open_rules)
        if found is None or found[3] == 0:
            break  # no open slot kills anything: fall to cheapest-fill
        _, rule, slot, _ = found
        take(rule, slot)

    # Coverage floor: leftover budget goes to the cheapest open slots.
    for rule in matrix.rules:
        while len(selected[rule]) < budgets[rule]:
            taken = set(selected[rule])
            remaining = [
                (matrix.slot_cost(rule, slot), slot)
                for slot in range(matrix.slot_count(rule))
                if slot not in taken
            ]
            if not remaining:
                break
            selected[rule].append(min(remaining)[1])

    # Adaptive stage: raise budgets while marginal detection is positive.
    raises: Dict[str, int] = {}
    if adaptive:
        for rule in matrix.rules:
            cap = min(
                max_k if max_k is not None else matrix.slot_count(rule),
                matrix.slot_count(rule),
            )
            while uncovered[rule] and budgets[rule] < cap:
                found = best_candidate([rule])
                if found is None or found[3] == 0:
                    break  # marginal detection flattened
                budgets[rule] += 1
                raises[rule] = raises.get(rule, 0) + 1
                _, _, slot, _ = found
                take(rule, slot)

    return DetectionPlan(
        base_k=base_k,
        adaptive=adaptive,
        budgets=budgets,
        selected={
            rule: tuple(sorted(slots))
            for rule, slots in selected.items()
        },
        raises=raises,
    )


# ------------------------------------------------------------- scoring


@dataclass(frozen=True)
class DetectionScore:
    """Detection of one selection, scored against a kill matrix."""

    detected: int
    expected: int
    survivors: Tuple[str, ...]

    @property
    def rate(self) -> Optional[float]:
        if not self.expected:
            return None
        return self.detected / self.expected

    def to_json_dict(self) -> dict:
        rate = self.rate
        return {
            "detected": self.detected,
            "expected": self.expected,
            "detection_rate": None if rate is None else round(rate, 4),
            "survivors": list(self.survivors),
        }


def _row_detected(row: MutantRow, slots: Sequence[int]) -> bool:
    return row.uniform_detected or any(
        slot in row.killing_slots for slot in slots
    )


def score_selection(
    matrix: KillMatrix,
    selected: Mapping[str, Sequence[int]],
) -> DetectionScore:
    """Score a per-rule slot selection over the expected-detectable rows.

    This is the *resubstitution* score when ``selected`` was derived from
    the same matrix -- optimistic by construction; pair it with
    :func:`cross_validated_scores` for the honest number.
    """
    expected = matrix.expected_rows()
    survivors = tuple(
        row.mutant_id for row in expected
        if not _row_detected(row, selected.get(row.rule, ()))
    )
    return DetectionScore(
        detected=len(expected) - len(survivors),
        expected=len(expected),
        survivors=survivors,
    )


def cross_validated_scores(
    matrix: KillMatrix,
    *,
    base_k: int = 2,
    adaptive: bool = True,
    max_k: Optional[int] = None,
) -> DetectionScore:
    """Leave-one-out detection: each expected-detectable mutant is scored
    by the selection computed from the matrix *without its own row*, so a
    slot must have proven itself on other mutants to count.  This is the
    generalization estimate for how the selection would fare against a
    fault it has never seen."""
    expected = matrix.expected_rows()
    survivors = []
    for row in expected:
        plan = detection_plan(
            matrix.without(row.mutant_id),
            base_k=base_k, adaptive=adaptive, max_k=max_k,
        )
        if not _row_detected(row, plan.selected.get(row.rule, ())):
            survivors.append(row.mutant_id)
    return DetectionScore(
        detected=len(expected) - len(survivors),
        expected=len(expected),
        survivors=tuple(survivors),
    )


# ------------------------------------------------------------- Pareto


@dataclass(frozen=True)
class ParetoPoint:
    """One (suite cost, detection rate) point of the sweep."""

    label: str
    objective: str
    base_k: int
    adaptive: bool
    queries: int
    cost: float
    detection_rate: Optional[float]
    survivors: Tuple[str, ...] = ()
    frontier: bool = False

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "objective": self.objective,
            "base_k": self.base_k,
            "adaptive": self.adaptive,
            "queries": self.queries,
            "cost": round(self.cost, 6),
            "detection_rate": (
                None if self.detection_rate is None
                else round(self.detection_rate, 4)
            ),
            "survivors": list(self.survivors),
            "frontier": self.frontier,
        }


def _percent(rate: Optional[float]) -> str:
    return "n/a" if rate is None else f"{rate:.0%}"


@dataclass
class ParetoReport:
    """The cost-vs-detection sweep, frontier marked, and the adaptive plan
    it recommends."""

    points: List[ParetoPoint]
    #: The adaptive point's selection and its resubstitution score.
    plan: DetectionPlan
    score: DetectionScore
    cross_validated: Optional[DetectionScore] = None
    config: Dict[str, object] = field(default_factory=dict)

    @property
    def frontier(self) -> List[ParetoPoint]:
        return [point for point in self.points if point.frontier]

    @property
    def plan_label(self) -> str:
        return f"detection-adaptive-k{self.plan.base_k}"

    def point(self, label: str) -> Optional[ParetoPoint]:
        for candidate in self.points:
            if candidate.label == label:
                return candidate
        return None

    def to_json_dict(self) -> dict:
        return {
            "config": dict(sorted(self.config.items())),
            "points": [point.to_json_dict() for point in self.points],
            "plan": {
                **self.plan.to_json_dict(), "score": self.score.to_json_dict()
            },
            "cross_validated": (
                None if self.cross_validated is None
                else self.cross_validated.to_json_dict()
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def _raises(self) -> str:
        return ", ".join(
            f"{rule}+{count}" for rule, count in sorted(self.plan.raises.items())
        ) or "none"

    def _slots(self, rule: str) -> str:
        return ", ".join(
            str(slot) for slot in self.plan.selected.get(rule, ())
        ) or "-"

    def to_text(self) -> str:
        lines = ["cost vs. detection sweep (* = Pareto frontier):"]
        for point in self.points:
            rate = (
                " n/a" if point.detection_rate is None
                else f"{point.detection_rate:>4.0%}"
            )
            marker = "*" if point.frontier else " "
            lines.append(
                f"  {marker} {point.label:<24} {point.queries:>3} queries  "
                f"cost {point.cost:>9.1f}  detection {rate}"
            )
        score = self.score
        lines.append(
            f"adaptive plan {self.plan_label}: detection "
            f"{_percent(score.rate)} ({score.detected}/{score.expected}), "
            f"budget raises: {self._raises()}"
        )
        for rule, budget in self.plan.budgets.items():
            lines.append(
                f"  {rule:<28} budget {budget:>2}  slots {self._slots(rule)}"
            )
        lines += [f"  SURVIVOR: {mutant_id}" for mutant_id in score.survivors]
        cross = self.cross_validated
        if cross is not None:
            lines.append(
                f"  leave-one-out detection of the adaptive plan: "
                f"{_percent(cross.rate)} ({cross.detected}/{cross.expected})"
            )
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [
            "# Cost vs. detection Pareto report",
            "",
            "Suite cost is the summed mean `Cost(q)` of the selected "
            "slots; detection is scored over the campaign's "
            "expected-detectable mutants.  `*` marks the Pareto "
            "frontier (no point is both cheaper and more detecting).",
            "",
            "| point | objective | queries | cost | detection | frontier |",
            "|---|---|---:|---:|---:|:---:|",
        ]
        for point in self.points:
            lines.append(
                f"| {point.label} | {point.objective} | {point.queries} "
                f"| {point.cost:.1f} | {_percent(point.detection_rate)} "
                f"| {'*' if point.frontier else ''} |"
            )
        score = self.score
        lines += [
            "",
            f"## Adaptive plan `{self.plan_label}`",
            "",
            f"Detection {_percent(score.rate)} "
            f"({score.detected}/{score.expected}); budget raises: "
            f"{self._raises()}.",
            "",
            "| rule | budget | selected slots |",
            "|---|---:|---|",
        ]
        lines += [
            f"| {rule} | {budget} | {self._slots(rule)} |"
            for rule, budget in self.plan.budgets.items()
        ]
        if score.survivors:
            lines += ["", "Survivors of the adaptive plan:", ""]
            lines += [f"- `{mutant_id}`" for mutant_id in score.survivors]
        if self.cross_validated is not None:
            cross = self.cross_validated
            lines += [
                "",
                f"Leave-one-out detection of the adaptive plan: "
                f"**{_percent(cross.rate)}** "
                f"({cross.detected}/{cross.expected}; each mutant scored by "
                "a selection computed without its own row).",
            ]
        survivors = sorted({
            mutant_id
            for point in self.points if point.frontier
            for mutant_id in point.survivors
        })
        if survivors:
            lines += ["", "Survivors on the frontier (never dropped):", ""]
            lines += [f"- `{mutant_id}`" for mutant_id in survivors]
        lines.append("")
        return "\n".join(lines)


def _mark_frontier(points: List[ParetoPoint]) -> List[ParetoPoint]:
    marked = []
    for point in points:
        dominated = any(
            other is not point
            and other.detection_rate is not None
            and point.detection_rate is not None
            and other.cost <= point.cost
            and other.detection_rate >= point.detection_rate
            and (
                other.cost < point.cost
                or other.detection_rate > point.detection_rate
            )
            for other in points
        )
        marked.append(ParetoPoint(
            label=point.label,
            objective=point.objective,
            base_k=point.base_k,
            adaptive=point.adaptive,
            queries=point.queries,
            cost=point.cost,
            detection_rate=point.detection_rate,
            survivors=point.survivors,
            frontier=not dominated and point.detection_rate is not None,
        ))
    return marked


def _coverage_points(payload: Mapping) -> List[ParetoPoint]:
    """SMC/TOPK of the campaign as (cost, detection) reference points.

    Each mutant's coverage selection lives in its own pool, so the
    point's cost is the mean per-mutant cost of the variant's selected
    queries, summed over rules -- the campaign-equivalent of 'run this
    variant everywhere'."""
    points = []
    campaign_k = int(payload["config"]["k"])
    for variant in ("SMC", "TOPK"):
        summary = payload["summary"][variant]
        per_rule: Dict[str, List[float]] = {}
        per_rule_queries: Dict[str, List[int]] = {}
        for mutant in payload["mutants"]:
            chosen = mutant["variants"][variant]["queries"]
            costs = {
                int(query_id): float(cost)
                for query_id, cost in mutant.get("query_costs", [])
            }
            per_rule.setdefault(mutant["rule"], []).append(
                sum(costs.get(int(query_id), 0.0) for query_id in chosen)
            )
            per_rule_queries.setdefault(mutant["rule"], []).append(
                len(chosen)
            )
        cost = sum(
            sum(observed) / len(observed)
            for observed in per_rule.values() if observed
        )
        queries = round(sum(
            sum(observed) / len(observed)
            for observed in per_rule_queries.values() if observed
        ))
        points.append(ParetoPoint(
            label=f"coverage-{variant.lower()}-k{campaign_k}",
            objective="coverage",
            base_k=campaign_k,
            adaptive=False,
            queries=queries,
            cost=round(cost, 6),
            detection_rate=summary["detection_score"],
            survivors=tuple(summary["survivors"]),
        ))
    return points


def pareto_report(
    matrix: KillMatrix,
    *,
    report: Optional[Mapping] = None,
    ks: Optional[Sequence[int]] = None,
    base_k: int = 2,
    max_k: Optional[int] = None,
    cross_validate: bool = True,
) -> ParetoReport:
    """Sweep detection budgets into a cost-vs-detection Pareto report.

    One non-adaptive detection point per ``k`` in ``ks`` (default 1, 2,
    3, 4 and 6), one adaptive point at ``base_k`` -- whose plan and score
    the report carries --, the FULL pool as the detection ceiling, and --
    when the originating ``repro mutate --format json`` artifact is
    supplied as ``report`` -- the campaign's coverage-objective SMC/TOPK
    variants as the contrast this objective closes.
    """
    max_slots = max(
        (matrix.slot_count(rule) for rule in matrix.rules), default=0
    )
    points: List[ParetoPoint] = []
    for k in (1, 2, 3, 4, 6) if ks is None else ks:
        if k > max_slots:
            continue
        plan = detection_plan(matrix, base_k=k, adaptive=False)
        score = score_selection(matrix, plan.selected)
        points.append(ParetoPoint(
            label=f"detection-k{k}",
            objective="detection",
            base_k=k,
            adaptive=False,
            queries=plan.total_queries,
            cost=plan.cost(matrix),
            detection_rate=score.rate,
            survivors=score.survivors,
        ))
    adaptive = detection_plan(
        matrix, base_k=base_k, adaptive=True, max_k=max_k
    )
    adaptive_score = score_selection(matrix, adaptive.selected)
    points.append(ParetoPoint(
        label=f"detection-adaptive-k{base_k}",
        objective="detection",
        base_k=base_k,
        adaptive=True,
        queries=adaptive.total_queries,
        cost=adaptive.cost(matrix),
        detection_rate=adaptive_score.rate,
        survivors=adaptive_score.survivors,
    ))
    full_selection = {
        rule: tuple(range(matrix.slot_count(rule)))
        for rule in matrix.rules
    }
    full_score = score_selection(matrix, full_selection)
    points.append(ParetoPoint(
        label="full",
        objective="full",
        base_k=max_slots,
        adaptive=False,
        queries=sum(matrix.slot_count(rule) for rule in matrix.rules),
        cost=round(sum(
            cost
            for rule in matrix.rules
            for cost in matrix.slot_costs.get(rule, ())
        ), 6),
        detection_rate=full_score.rate,
        survivors=full_score.survivors,
    ))
    if report is not None:
        points.extend(_coverage_points(report))
    points = _mark_frontier(points)
    cross = None
    if cross_validate:
        cross = cross_validated_scores(
            matrix, base_k=base_k, adaptive=True, max_k=max_k
        )
    return ParetoReport(
        points=points,
        plan=adaptive,
        score=adaptive_score,
        cross_validated=cross,
        config=dict(matrix.config),
    )
