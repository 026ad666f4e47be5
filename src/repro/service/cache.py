"""Persistent cross-run cache for plan-service results.

The disk cache stores one small JSON record per ``(tree fingerprint,
config)`` request, holding only what is read back: ``{config, cost |
error, fingerprint}`` -- the key, and the plan cost or the error the
optimization raised, which is all the framework's *cost* traffic
(``Cost(q, ¬R)``) needs.  Physical plans themselves are deliberately **not**
persisted: plans embed :class:`Column` objects whose ``cid`` values are
process-local, so rehydrating a plan in a later run could alias freshly
bound columns.  A record carries no such identity.  Records were once
written with the exercised rule set, the derived rule interactions and the
memo search counters beside the cost; a log written so is read as it is
(those fields are ignored) and slims only through ``repro cache --clear``.

Each environment is one append-only log,
``<root>/<environment fingerprint>/records.jsonl``, one record per line,
where the environment fingerprint hashes the rule registry, the catalog DDL
and the table statistics -- any change to rules, schema or data invalidates
the cache by construction (the key simply never matches again).  Lines
are written with sorted keys and compact separators, so a log is
byte-stable run to run.

A :class:`PlanDiskCache` reads its log once, into an index of what a
request needs back (the cost, or the error), and on a miss reads only the
bytes appended since: records another process wrote after the load are
still found.  A ``put`` is one ``write`` of one line in append mode, so
concurrent writers interleave whole lines.  A final line without its
newline (a torn write) is never consumed, and the next writer ends it
before appending.  A line that is not JSON or not a record is skipped and
counted; when a key appears more than once, its last valid line wins, so a
garbled record reads as a miss and is healed by the recomputed one.  A
``put`` whose answer the log already holds for its key appends nothing, so
a rerun that recomputes its plans leaves the log as it found it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Hashable, Optional, Tuple, Union

from repro.catalog.schema import Catalog
from repro.catalog.stats import StatsRepository
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rules.registry import RuleRegistry

#: The file name of an environment's record log.
LOG_NAME = "records.jsonl"

#: A writer reads the log's last byte, to end a torn line before its own.
_APPEND_FLAGS = os.O_RDWR | os.O_APPEND | os.O_CREAT

#: What a record answers: its cost, or the error its optimization raised.
Answer = Union[float, str]


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


def _answer_of(record: object) -> Optional[Answer]:
    """The error (a ``str``) or cost (a ``float``) ``record`` holds, or
    ``None`` when it is no record: any other JSON value is garbled."""
    if not isinstance(record, dict):
        return None
    error = record.get("error")
    if isinstance(error, str):
        return error
    cost = record.get("cost")
    if isinstance(cost, (int, float)) and not isinstance(cost, bool):
        return float(cost)
    return None


def _parse(line: bytes) -> Optional[Tuple[Tuple[str, str], Answer]]:
    """``((fingerprint, config token), answer)`` of one log line, or
    ``None`` when the line is no record."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    answer = _answer_of(record)
    if answer is None:
        return None
    fingerprint, token = record.get("fingerprint"), record.get("config")
    if not (isinstance(fingerprint, str) and isinstance(token, str)):
        return None
    return (fingerprint, token), answer


class PlanDiskCache:
    """One environment's append-only record log, indexed in memory."""

    def __init__(
        self, root: Path, environment: str, tracer: Tracer = NULL_TRACER
    ) -> None:
        self.root = Path(root)
        self.environment = environment
        self.directory = self.root / environment
        self.path = self.directory / LOG_NAME
        self.tracer = tracer
        #: ``(fingerprint, config token)`` -> the answer of its last valid
        #: line.
        self._index: Dict[Hashable, Answer] = {}
        #: Bytes of the log consumed so far: always the end of a line.
        self._offset = 0
        #: Complete lines read, and how many of them were no record.
        self.lines = 0
        self.garbled = 0

    def __len__(self) -> int:
        return len(self._index)

    def get(self, key: Hashable) -> Optional[Answer]:
        """The answer recorded under ``key``, or ``None``.  A hit is one
        dict lookup; a miss first reads what was appended since the last
        read (the whole log, the first time)."""
        answer = self._index.get(key)
        if answer is None:
            self.refresh()
            answer = self._index.get(key)
        return answer

    def refresh(self) -> None:
        """Index the complete lines appended since the last read."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
        except OSError:
            return
        end = data.rfind(b"\n") + 1  # a torn final line waits for its end
        if not end:
            return
        self._offset += end
        garbled = 0
        for line in data[:end].split(b"\n"):
            if not line:
                continue
            self.lines += 1
            parsed = _parse(line)
            if parsed is None:
                garbled += 1
            else:
                key, answer = parsed
                self._index[key] = answer
        if garbled:
            self.garbled += garbled
            self.tracer.event(
                "service.disk_garbled", cat="service",
                environment=self.environment, garbled=garbled,
            )

    def put(self, key: Hashable, record: Dict) -> None:
        """Append ``record`` as one line and index it under ``key``, unless
        the log already answers ``key`` the same way: a run that recomputes
        what it found on disk (a plan is never persisted) appends nothing.
        The service's records carry ``key`` as their ``fingerprint`` and
        ``config`` fields, which is what a later load indexes them by."""
        answer = _answer_of(record)
        if answer is not None and self.get(key) == answer:
            return
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        data = f"{line}\n".encode("utf-8")
        try:
            try:
                fd = os.open(self.path, _APPEND_FLAGS, 0o644)
            except FileNotFoundError:
                self.directory.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path, _APPEND_FLAGS, 0o644)
            try:
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    # End a torn line, so that it swallows no record.
                    data = b"\n" + data
                os.write(fd, data)
            finally:
                os.close(fd)
        except OSError:
            # A read-only or full cache directory must never fail a request.
            return
        if answer is not None:
            self._index[key] = answer


def _logs(root: Path):
    """``(environment, log)`` for every environment directory under
    ``root`` that holds a log, fully read, in name order."""
    root = Path(root)
    if not root.is_dir():
        return
    for env_dir in sorted(root.iterdir()):
        if (env_dir / LOG_NAME).is_file():
            log = PlanDiskCache(root, env_dir.name)
            log.refresh()
            yield env_dir.name, log


def cache_stats(root: Path) -> Dict:
    """Per environment and in total: ``entries`` (distinct keys),
    ``lines`` (complete lines), ``garbled`` (lines that are no record) and
    ``bytes`` (the log's size)."""
    fields = ("entries", "lines", "garbled", "bytes")
    environments: Dict[str, Dict[str, int]] = {}
    for name, log in _logs(root):
        environments[name] = {
            "entries": len(log),
            "lines": log.lines,
            "garbled": log.garbled,
            "bytes": log.path.stat().st_size,
        }
    return {
        "root": str(root),
        "environments": environments,
        **{
            field: sum(row[field] for row in environments.values())
            for field in fields
        },
    }


def clear_cache(root: Path) -> int:
    """Delete every log under ``root``, and any per-record ``*.json`` /
    ``*.tmp`` file an older layout left; returns the number of records
    removed: a log's distinct keys, and one per file of the older layout."""
    root = Path(root)
    if not root.is_dir():
        return 0
    removed = sum(len(log) for _, log in _logs(root))
    for env_dir in list(root.iterdir()):
        if not env_dir.is_dir():
            continue
        _unlink(env_dir / LOG_NAME)
        legacy = [*env_dir.glob("*.json"), *env_dir.glob("*.tmp")]
        removed += sum(map(_unlink, legacy))
        try:
            env_dir.rmdir()
        except OSError:
            pass
    return removed


def _unlink(path: Path) -> bool:
    try:
        path.unlink()
    except OSError:
        return False
    return True
