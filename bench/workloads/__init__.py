"""The four campaign workloads (closed loop, one caller each).

A workload is set up from ``--seed``, then asked for rounds; one round is one
fixed unit of work.  Every call into ``repro`` is made through
:meth:`bench.harness.Meter.op` so it is timed, attributed to a layer and
checked.

**What the seed feeds.**  ``--seed`` is the seed of the test *data* of the
two suite workloads (``tpch_database(seed=...)``), in the manner of TPC-H
substitution parameters: the generated SQL changes in its constants and
every result bag changes, while the query *shapes*, and with them the
optimizer's work (259 optimisations a round on every seed), stay those of
the pinned generation seed.  The generator's own seed is pinned because
optimizer work per generated suite is heavy-tailed: across ten
``TestSuiteBuilder`` seeds the same 20-rule campaign varied by 0.32
(interquartile range over median) in memo expressions and from 2.5 s to
4.4 s in time, which no regression bound survives.  ``execute_scale`` pins
its database, whose selectivities decide the work of a round, and draws
the rows it inserts from the seed; ``mutation_sample`` pins its data too
(its recorded kill verdicts depend on the rows) and lets the seed rotate
the order in which the mutants are evaluated.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import NULL_TRACER, MetricsRegistry, Tracer

from bench.harness import Meter, OpTimes


@dataclass
class Observers:
    """What a round hands to the program's public observability arguments."""

    tracer: Tracer = NULL_TRACER
    metrics: Optional[MetricsRegistry] = None


#: One (query fingerprint, config token, cost, RuleSet) row of a plan digest.
DigestRow = Tuple[str, str, float, Sequence[str]]


def plan_digest(rows: Iterable[DigestRow]) -> str:
    """SHA-256 over the sorted rows, costs at six decimals.

    Informational: lets a later "byte-identical plans" claim compare two
    result files.  Not gated, because exploration work will change it.
    """
    lines = sorted(
        f"{fingerprint}|{token}|{cost:.6f}|{','.join(sorted(ruleset))}"
        for fingerprint, token, cost, ruleset in rows
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class Workload:
    """Base of the four workloads; see each subclass for what a round is."""

    name = ""
    #: Set-up repetitions per run (the reported ``setup_s`` is their median).
    setup_reps = 3
    #: The one op kind ``op_p50_ms`` is the median of.  One kind, because a
    #: median over mixed kinds falls between their clusters and moves with
    #: how many ops each cluster holds, not with how long an op takes.
    latency_op = ""

    def __init__(self, seed: int, workdir: Path, obs: Optional[Observers] = None):
        self.seed = seed
        self.workdir = workdir
        self.obs = obs or Observers()
        self.database = None
        self.registry = None

    def setup(self, meter: Meter) -> None:
        raise NotImplementedError

    def round(self, meter: Meter) -> Dict[str, float]:
        """One unit of work; returns the exact counts it read."""
        raise NotImplementedError

    def check_setup(self, meter: Meter) -> None:
        """Untimed output checks after set-up."""

    def finish(self, meter: Meter) -> None:
        """Untimed output checks after the last round."""

    def layer_values(self, rounds: OpTimes, setups: OpTimes) -> Dict[str, float]:
        """The per-layer timings this workload's own ops measure.

        Each per-layer metric has one producer: a round or set-up op named
        here, or the layer probe (``bench/probe.py``) for calls no round
        makes.  A metric the workload does not enter is absent (reads 0).
        """
        return {
            "datagen.build_db_s": setups.group_sum_s("datagen.build"),
            "rules.registry_build_ms": setups.median_ms("rules.registry"),
        }

    def pool(self) -> List:
        """Logical trees of this workload's queries, for the layer probe."""
        raise NotImplementedError

    def generated_sql(self) -> List[str]:
        """The SQL text of the generated inputs (what ``--seed`` changes)."""
        raise NotImplementedError

    def digest_rows(self) -> List[DigestRow]:
        raise NotImplementedError


def service_counts(counters: Dict[str, int]) -> Dict[str, float]:
    """``ServiceStats.as_dict()`` as this benchmark's per-layer count rows."""
    requests = counters.get("requests", 0)
    hits = counters.get("memory_hits", 0) + counters.get("disk_hits", 0)
    return {
        "service.requests": requests,
        "service.computed": counters.get("computed", 0),
        "service.memory_hits": counters.get("memory_hits", 0),
        "service.disk_hits": counters.get("disk_hits", 0),
        "service.hit_share": hits / requests if requests else 0.0,
    }


def load(name: str):
    """The workload class called ``name``."""
    from bench.workloads.campaign_rules import CampaignRules
    from bench.workloads.execute_scale import ExecuteScale
    from bench.workloads.mutation_sample import MutationSample
    from bench.workloads.warm_replay import WarmReplay

    classes = {
        cls.name: cls
        for cls in (CampaignRules, ExecuteScale, WarmReplay, MutationSample)
    }
    return classes[name]
