"""Tests for structural tree fingerprints (the plan-service cache key)."""

import copy
import dataclasses
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.logical import FingerprintError, fingerprint
from repro.logical.operators import GroupRef, Select
from repro.sql.binder import sql_to_tree
from repro.testing.random_gen import RandomQueryGenerator

SQL_A = (
    "SELECT o_orderkey, o_totalprice FROM orders "
    "WHERE o_totalprice > 100 ORDER BY o_orderkey"
)
SQL_B = (
    "SELECT o_orderkey, o_totalprice FROM orders "
    "WHERE o_totalprice > 101 ORDER BY o_orderkey"
)
SQL_JOIN = (
    "SELECT c_name FROM customer JOIN orders ON c_custkey = o_custkey "
    "WHERE o_totalprice > 500"
)


class TestEquality:
    def test_reparsed_tree_hashes_equal(self, tpch_db):
        """Two binds of the same SQL allocate fresh column ids, but the
        trees are structurally identical -- fingerprints must agree."""
        first = sql_to_tree(SQL_A, tpch_db.catalog)
        second = sql_to_tree(SQL_A, tpch_db.catalog)
        assert first.fingerprint() == second.fingerprint()

    def test_fingerprint_is_hex_sha256(self, tpch_db):
        value = sql_to_tree(SQL_A, tpch_db.catalog).fingerprint()
        assert len(value) == 64
        int(value, 16)  # hex-parseable

    def test_free_function_matches_method(self, tpch_db):
        tree = sql_to_tree(SQL_JOIN, tpch_db.catalog)
        assert fingerprint(tree) == tree.fingerprint()


class TestSensitivity:
    def test_literal_change_changes_hash(self, tpch_db):
        a = sql_to_tree(SQL_A, tpch_db.catalog)
        b = sql_to_tree(SQL_B, tpch_db.catalog)
        assert a.fingerprint() != b.fingerprint()

    def test_different_shapes_differ(self, tpch_db):
        a = sql_to_tree(SQL_A, tpch_db.catalog)
        b = sql_to_tree(SQL_JOIN, tpch_db.catalog)
        assert a.fingerprint() != b.fingerprint()

    def test_subtree_fingerprints_differ_from_root(self, tpch_db):
        tree = sql_to_tree(SQL_A, tpch_db.catalog)
        assert tree.fingerprint() != tree.children[0].fingerprint()

    def test_column_order_matters(self, tpch_db):
        a = sql_to_tree(
            "SELECT o_orderkey, o_totalprice FROM orders", tpch_db.catalog
        )
        b = sql_to_tree(
            "SELECT o_totalprice, o_orderkey FROM orders", tpch_db.catalog
        )
        assert a.fingerprint() != b.fingerprint()


class TestStability:
    def test_stable_across_hash_seeds(self, tpch_db):
        """The digest must not depend on PYTHONHASHSEED (i.e. not use the
        builtin ``hash``), or the cross-run disk cache would never hit."""
        script = (
            "from repro.workloads import tpch_database\n"
            "from repro.sql.binder import sql_to_tree\n"
            f"tree = sql_to_tree({SQL_A!r}, tpch_database(seed=1).catalog)\n"
            "print(tree.fingerprint())\n"
        )
        digests = set()
        for seed in ("0", "1", "31337"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1

    def test_in_process_matches_subprocess(self, tpch_db):
        local = sql_to_tree(SQL_A, tpch_db.catalog).fingerprint()
        script = (
            "from repro.workloads import tpch_database\n"
            "from repro.sql.binder import sql_to_tree\n"
            f"tree = sql_to_tree({SQL_A!r}, tpch_database(seed=1).catalog)\n"
            "print(tree.fingerprint())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "99"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == local


GOLDEN = Path(__file__).parent / "data" / "fingerprints.json"
BENCH_SQL = sorted((Path(__file__).parent.parent / "bench" / "sql").glob("*.sql"))


def _statement(path):
    """A curated file's statement: its lines that are not ``--`` comments."""
    return " ".join(
        line.strip() for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("--")
    )


def golden_fingerprints(catalog):
    """The fingerprints ``GOLDEN`` pins: every curated ``bench/sql`` tree,
    and four trees from a fresh generator for each of seeds 0-49.

    Re-record only for a deliberate format change, which orphans every
    persisted cache record: write ``golden_fingerprints`` of
    ``tpch_database(seed=1).catalog`` to ``GOLDEN`` as sorted, indented JSON.
    """
    pool = {}
    for seed in range(50):
        generator = RandomQueryGenerator(catalog, seed=seed)
        pool[str(seed)] = [generator.random_tree().fingerprint() for _ in range(4)]
    return {
        "bench_sql": {
            path.name: sql_to_tree(_statement(path), catalog).fingerprint()
            for path in BENCH_SQL
        },
        "random_pool": pool,
    }


class TestGolden:
    def test_fingerprints_are_the_recorded_ones(self, tpch_db):
        """A fingerprint is the persistent cache key, so it must hold
        across commits, not only within a process: a changed byte of the
        token stream turns every record on disk into a miss."""
        recorded = json.loads(GOLDEN.read_text())
        assert len(recorded["bench_sql"]) == len(BENCH_SQL) == 16
        assert golden_fingerprints(tpch_db.catalog) == recorded


class TestErrors:
    def test_memo_nodes_rejected(self, tpch_db):
        """Every time: only a successful hash is kept on the node, so
        asking twice must not turn the error into an answer."""
        tree = sql_to_tree(SQL_A, tpch_db.catalog)
        memoish = tree.with_children(
            tuple(GroupRef(group_id=0) for _ in tree.children)
        )
        for _ in range(2):
            with pytest.raises(FingerprintError):
                memoish.fingerprint()
        assert "_fingerprint" not in vars(memoish)


class TestMemo:
    """``tree.fingerprint()`` keeps its value on the node.  Nothing that
    compares, shows, rebuilds or ships a tree may notice."""

    def test_invisible_to_eq_hash_and_repr(self, tpch_db):
        tree = sql_to_tree(SQL_JOIN, tpch_db.catalog)
        twin = dataclasses.replace(tree)
        shown, hashed = repr(tree), hash(tree)
        tree.fingerprint()
        assert tree == twin and twin == tree
        assert hash(tree) == hashed == hash(twin)
        assert repr(tree) == shown == repr(twin)
        assert [f.name for f in dataclasses.fields(tree)] == [
            "child", "outputs",
        ]

    def test_rebuilt_tree_carries_no_stale_value(self, tpch_db):
        tree = sql_to_tree(SQL_A, tpch_db.catalog)
        other = sql_to_tree(SQL_B, tpch_db.catalog)
        stale = {node.fingerprint() for node in tree.walk()}

        select = next(n for n in tree.walk() if isinstance(n, Select))
        other_select = next(n for n in other.walk() if isinstance(n, Select))
        replaced = dataclasses.replace(
            select, predicate=other_select.predicate
        )
        rechilded = tree.with_children(other.children)
        for rebuilt in (replaced, rechilded):
            assert "_fingerprint" not in vars(rebuilt)
            assert rebuilt.fingerprint() == fingerprint(rebuilt)
            assert rebuilt.fingerprint() not in stale

    def test_copy_is_an_equal_tree_with_the_same_fingerprint(self, tpch_db):
        tree = sql_to_tree(SQL_JOIN, tpch_db.catalog)
        value = tree.fingerprint()
        for clone in (copy.copy(tree), copy.deepcopy(tree)):
            assert clone == tree
            assert clone.fingerprint() == value == fingerprint(clone)

    def test_pickled_memo_is_what_another_process_computes(self, tpch_db):
        """The ``workers=2`` path pickles trees, memo and all, into a
        process with its own hash seed: the value that travels must be the
        one that process would compute from scratch."""
        tree = sql_to_tree(SQL_JOIN, tpch_db.catalog)
        bare = pickle.dumps(tree)
        value = tree.fingerprint()
        shipped = pickle.dumps(tree)
        assert pickle.loads(shipped).fingerprint() == value
        script = (
            "import pickle, sys\n"
            "from repro.logical.fingerprint import fingerprint\n"
            "bare, shipped = (\n"
            "    pickle.loads(bytes.fromhex(line)) for line in sys.stdin\n"
            ")\n"
            "assert '_fingerprint' not in vars(bare)\n"
            "print(fingerprint(bare), shipped.fingerprint())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=f"{bare.hex()}\n{shipped.hex()}\n",
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "4242"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [value, value]

    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_memo_equals_the_pure_function(self, tpch_db, tpch_stats, seed):
        tree = RandomQueryGenerator(
            tpch_db.catalog, seed=seed, stats=tpch_stats,
            min_operators=2, max_operators=8,
        ).random_tree()
        subtrees = [node for node in tree.walk() if node is not tree]
        before = [node.fingerprint() for node in subtrees]
        assert tree.fingerprint() == tree.fingerprint() == fingerprint(tree)
        # Column numbering restarts at each root: hashing the parent must
        # leave every subtree's own fingerprint what it was.
        assert (
            [node.fingerprint() for node in subtrees]
            == before
            == [fingerprint(node) for node in subtrees]
        )
