"""Persistent cross-run cache for plan-service results.

The disk cache stores one small JSON record per ``(tree fingerprint,
config)`` request: the plan cost, the exercised rule set, the derived rule
interactions and the memo search counters -- everything the framework's
*cost* traffic (``Cost(q, ¬R)``) needs.  Physical plans themselves are
deliberately **not** persisted: plans embed :class:`Column` objects whose
``cid`` values are process-local, so rehydrating a plan in a later run could
alias freshly bound columns.  Cost/metadata records carry no such identity.

Records live under ``<root>/<environment fingerprint>/``, where the
environment fingerprint hashes the rule registry, the catalog DDL and the
table statistics -- any change to rules, schema or data invalidates the
cache by construction (the key simply never matches again).

All set-valued fields (``rules_exercised``, ``rule_interactions``) are
serialized in sorted order so cache files are byte-stable run to run.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional

from repro.catalog.schema import Catalog
from repro.catalog.stats import StatsRepository
from repro.rules.registry import RuleRegistry


def default_cache_dir() -> Path:
    """The persistent cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/plans``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "plans"


def environment_fingerprint(
    catalog: Catalog, stats: StatsRepository, registry: RuleRegistry
) -> str:
    """Hash of everything that can change an optimization outcome besides
    the query tree and the config: registry, catalog and statistics."""
    digest = hashlib.sha256()
    digest.update(catalog.ddl().encode("utf-8"))
    for rule in registry.all_rules:
        # Module and qualified name: a candidate class from elsewhere may
        # share a registry class's bare name.
        cls = type(rule)
        digest.update(
            f"|{rule.name}:{cls.__module__}.{cls.__qualname__}".encode("utf-8")
        )
    for table_name in sorted(stats.table_names()):
        table_stats = stats.get(table_name)
        digest.update(f"|{table_name}={table_stats.row_count}".encode("utf-8"))
        for column_name in table_stats.column_names():
            column = table_stats.column(column_name)
            digest.update(
                f"|{column_name}:{column.distinct_count}:"
                f"{column.null_fraction!r}:{column.min_value!r}:"
                f"{column.max_value!r}".encode("utf-8")
            )
    return digest.hexdigest()[:20]


class PlanDiskCache:
    """One environment's directory of JSON result records."""

    def __init__(self, root: Path, environment: str) -> None:
        self.root = Path(root)
        self.directory = self.root / environment
        self._prefix = os.path.join(self.directory, "")

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[object]:
        """The parsed record, whatever JSON value it is, or ``None`` when
        there is no readable JSON file under ``key``.  On the path of every
        disk hit, hence one ``open``, one ``read``, one ``json.loads`` and
        no ``Path`` object."""
        try:
            with open(f"{self._prefix}{key}.json", "rb") as handle:
                return json.loads(handle.read())
        except (OSError, ValueError):
            return None

    def put(self, key: str, record: Dict) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(record, indent=2, sort_keys=True))
            tmp.replace(path)
        except OSError:
            # A read-only or full cache directory must never fail a request.
            pass


def cache_stats(root: Path) -> Dict:
    """Entry/size summary of a cache root, per environment directory."""
    root = Path(root)
    environments: Dict[str, Dict[str, int]] = {}
    total_entries = 0
    total_bytes = 0
    if root.is_dir():
        for env_dir in sorted(root.iterdir()):
            if not env_dir.is_dir():
                continue
            entries = 0
            size = 0
            for path in env_dir.glob("*.json"):
                entries += 1
                size += path.stat().st_size
            environments[env_dir.name] = {"entries": entries, "bytes": size}
            total_entries += entries
            total_bytes += size
    return {
        "root": str(root),
        "environments": environments,
        "entries": total_entries,
        "bytes": total_bytes,
    }


def clear_cache(root: Path) -> int:
    """Delete every record under ``root``; returns the number removed."""
    root = Path(root)
    removed = 0
    if not root.is_dir():
        return 0
    for env_dir in list(root.iterdir()):
        if not env_dir.is_dir():
            continue
        for path in list(env_dir.glob("*.json")) + list(env_dir.glob("*.tmp")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            env_dir.rmdir()
        except OSError:
            pass
    return removed
