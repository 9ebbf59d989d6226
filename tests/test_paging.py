"""Differential + stress tests for lazy mmap column paging.

The contract under test: a Database opened with ``page_budget_bytes``
is observationally identical to an eagerly-adopted one while keeping
only ``budget`` bytes of tracked columns resident.  The differential
suite runs eager and paged databases in lockstep — under a budget tiny
enough to force continuous evict/re-fault cycles — and compares
:func:`fragment_snapshot` column for column plus serialized query
results (all 20 XMark queries byte-identical under a budget below half
the catalog's column bytes).  The hypothesis stress test interleaves
queries, updates, checkpoints, forced evictions and cold reopens
against a purely in-memory oracle.  A subprocess RSS test pins down
the open-time memory story: eager adoption is single-copy (< 1.5× the
column bytes) and paged open touches almost nothing.
"""

import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import connect
from repro.api.database import Database
from repro.encoding.paging import NODE_RESIDENT_BYTES
from repro.errors import PathfinderError
from repro.xmark import XMARK_QUERIES, generate_document
from tests.reference_xml import serialize_tree
from tests.test_store import (
    _RANDOM_OPS,
    XML_A,
    XML_B,
    _apply,
    _snap,
    _store_dir,
    _text,
)
from tests.test_xml import _tree

#: a budget below any fragment's size: every query faults its document
#: back in and every scope exit evicts it again (continuous paging)
TINY_BUDGET = 64

QUERIES = (
    "count(//a)",
    "//a/@id",
    "/site/a[2]/text()",
    "//b",
    "/site/comment()",
    'doc("b.xml")/r/z',
)


def _seed_store(tmp_path) -> str:
    path = _store_dir(tmp_path)
    db = Database(store=path)
    db.load_document("a.xml", XML_A)
    db.load_document("b.xml", XML_B)
    return path


class TestPagingDifferential:
    def test_open_is_lazy(self, tmp_path):
        paged = Database.open(_seed_store(tmp_path), page_budget_bytes=TINY_BUDGET)
        status = paged.paging_status()
        assert status["fragments"] == 2
        assert status["resident_bytes"] == 0
        assert status["faults"] == 0
        assert status["cold_fragments"] == 2

    def test_snapshots_identical_under_continuous_eviction(self, tmp_path):
        path = _seed_store(tmp_path)
        eager = Database.open(path)
        paged = Database.open(path, page_budget_bytes=TINY_BUDGET)
        assert eager.paging_status() is None

        es, ps = eager.connect(), paged.connect()
        for query in QUERIES:
            assert es.execute(query).serialize() == ps.execute(query).serialize(), query
            for uri in ("a.xml", "b.xml"):
                assert _snap(paged, uri) == _snap(eager, uri), (query, uri)
        status = paged.paging_status()
        assert status["faults"] > 2  # re-faulted, not kept resident
        assert status["evictions"] > 0
        # the most recently read fragment may transiently overshoot the
        # budget (it is protected while being read); a trim clears it
        paged.arena.pager.evict_to_budget()
        assert paged.paging_status()["resident_bytes"] <= TINY_BUDGET

    def test_serialized_documents_identical(self, tmp_path):
        path = _seed_store(tmp_path)
        eager = Database.open(path)
        paged = Database.open(path, page_budget_bytes=TINY_BUDGET)
        for uri in ("a.xml", "b.xml"):
            assert _text(paged, uri) == _text(eager, uri)

    def test_catalog_snapshot_does_not_fault(self, tmp_path):
        paged = Database.open(_seed_store(tmp_path), page_budget_bytes=TINY_BUDGET)
        listing = {e["uri"]: e["nodes"] for e in paged.catalog_snapshot()}
        eager = Database.open(_seed_store(tmp_path / "eager"))
        assert listing == {e["uri"]: e["nodes"] for e in eager.catalog_snapshot()}
        assert paged.paging_status()["faults"] == 0

    def test_compile_statistics_do_not_fault(self, tmp_path):
        paged = Database.open(_seed_store(tmp_path), page_budget_bytes=TINY_BUDGET)
        paged.compile_query("count(//a)", use_optimizer=True)
        assert paged.paging_status()["faults"] == 0


class TestXMarkPaged:
    @pytest.fixture(scope="class")
    def xmark_store(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("xmark") / "db.pfstore")
        db = Database(store=path)
        db.load_document("auction.xml", generate_document(0.001, seed=7))
        return path

    def test_all_queries_byte_identical_under_half_budget(self, xmark_store):
        eager = Database.open(xmark_store)
        probe = Database.open(xmark_store, page_budget_bytes=1)
        tracked = probe.paging_status()["tracked_bytes"]
        budget = tracked // 3
        assert budget < tracked // 2  # the acceptance bound: under 50%
        paged = Database.open(xmark_store, page_budget_bytes=budget)

        es, ps = eager.connect(), paged.connect()
        for name, query in XMARK_QUERIES.items():
            assert (
                es.execute(query).serialize() == ps.execute(query).serialize()
            ), name
        status = paged.paging_status()
        assert status["faults"] > 0
        assert status["evictions"] > 0
        assert _snap(paged, "auction.xml") == _snap(eager, "auction.xml")

    def test_evict_all_then_requery(self, xmark_store):
        paged = Database.open(xmark_store, page_budget_bytes=1 << 30)
        session = paged.connect()
        first = session.execute(XMARK_QUERIES["Q1"]).serialize()
        faults = paged.paging_status()["faults"]
        assert paged.arena.pager.evict_all() == 1
        assert paged.paging_status()["resident_bytes"] == 0
        assert session.execute(XMARK_QUERIES["Q1"]).serialize() == first
        assert paged.paging_status()["faults"] > faults


class TestPagedUpdates:
    def test_updates_match_eager_and_survive_checkpoint(self, tmp_path):
        mem = Database()
        mem.load_document("a.xml", XML_A)
        path = _store_dir(tmp_path)
        dur = Database(store=path)
        dur.load_document("a.xml", XML_A)
        paged = Database.open(path, page_budget_bytes=TINY_BUDGET)

        for script in (
            'insert node <n why="new">text</n> into /site',
            "delete nodes //b",
            'replace node /site/a[1] with <na zip="02134">swapped<deep/></na>',
        ):
            assert _apply(mem, script) == _apply(paged, script), script
            assert _snap(paged, "a.xml") == _snap(mem, "a.xml"), script
        # the rebuilt fragment is pinned (untracked) until a checkpoint
        # re-registers its freshly written backing as evictable
        assert paged.paging_status()["fragments"] == 0
        paged.checkpoint()
        assert paged.paging_status()["fragments"] == 1
        assert paged.arena.pager.evict_all() == 1
        assert _snap(paged, "a.xml") == _snap(mem, "a.xml")

    def test_replace_and_unload_retire_tracking(self, tmp_path):
        paged = Database.open(_seed_store(tmp_path), page_budget_bytes=TINY_BUDGET)
        paged.replace_document("a.xml", "<site><only/></site>")
        assert _text(paged, "a.xml") == "<site><only/></site>"
        paged.unload_document("b.xml")
        status = paged.paging_status()
        # b's record retired with the document, a's replacement re-tracked
        assert status["fragments"] == 1
        session = paged.connect()
        assert session.execute("count(/site/only)").serialize() == "1"


class TestConnectWiring:
    def test_budget_requires_store(self):
        with pytest.raises(PathfinderError):
            Database(page_budget_bytes=1024)

    def test_connect_page_budget(self, tmp_path):
        path = _seed_store(tmp_path)
        session = connect(store=path, page_budget_bytes=TINY_BUDGET)
        assert session.database.paging_status()["fragments"] == 2
        assert session.execute("count(//a)").serialize() == "2"

    def test_connect_rejects_budget_with_database(self):
        with pytest.raises(PathfinderError):
            connect(database=Database(), page_budget_bytes=1)


#: stress operations: names keep hypothesis' shrunk output readable
_STRESS_OPS = (
    ("query-count", lambda db: db.connect().execute("count(//*)").serialize()),
    ("query-attrs", lambda db: db.connect().execute("//@*").serialize()),
    ("query-text", lambda db: db.connect().execute("string(/r)").serialize()),
    ("checkpoint", None),
    ("evict", None),
    ("reopen", None),
) + tuple((f"update:{op}", op) for op in _RANDOM_OPS)


class TestPagingStress:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.sampled_from([name for name, _ in _STRESS_OPS]),
            min_size=1,
            max_size=10,
        )
    )
    def test_random_interleavings_match_oracle(self, ops):
        """query/update/checkpoint/evict/reopen in any order stays in
        lockstep with an in-memory oracle database."""
        table = dict(_STRESS_OPS)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "db.pfstore")
            oracle = Database()
            oracle.load_document("r.xml", "<r><s>base</s></r>")
            seed = Database(store=path)
            seed.load_document("r.xml", "<r><s>base</s></r>")
            paged = Database.open(path, page_budget_bytes=TINY_BUDGET)
            for name in ops:
                if name == "checkpoint":
                    paged.checkpoint()
                elif name == "evict":
                    paged.arena.pager.evict_all()
                elif name == "reopen":
                    paged = Database.open(path, page_budget_bytes=TINY_BUDGET)
                elif name.startswith("update:"):
                    script = name.split(":", 1)[1]
                    assert _apply(oracle, script) == _apply(paged, script), name
                else:
                    run = table[name]
                    assert run(oracle) == run(paged), name
                assert _snap(paged, "r.xml") == _snap(oracle, "r.xml"), name

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_tree())
    def test_serialize_fixpoint_through_paging(self, tree):
        """shred → persist → paged reopen → serialize is the identity."""
        text = serialize_tree(tree)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "db.pfstore")
            db = Database(store=path)
            db.load_document("t.xml", text)
            paged = Database.open(path, page_budget_bytes=TINY_BUDGET)
            assert _text(paged, "t.xml") == text
            assert _snap(paged, "t.xml") == _snap(db, "t.xml")


#: child measures its own peak RSS via VmHWM, which (unlike
#: ``ru_maxrss``) is reset by exec — a child forked from a fat pytest
#: process would otherwise inherit the parent's resident set as its
#: starting "peak" and report a zero delta
_RSS_CHILD = """\
import sys

from repro.api.database import Database


def peak_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise SystemExit("no VmHWM")


path, mode = sys.argv[1], sys.argv[2]
before = peak_kib()
if mode == "paged":
    db = Database.open(path, page_budget_bytes=1)
else:
    db = Database.open(path)
print(before, peak_kib())
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="needs /proc VmHWM"
)
class TestOpenMemory:
    """Open-time RSS regression: adoption must be single-copy (the old
    path materialised every column through an int64 intermediate, ~1.9×
    the column bytes) and a paged open must touch almost nothing."""

    @pytest.fixture(scope="class")
    def big_store(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("rss") / "db.pfstore")
        db = Database(store=path)
        db.load_document("big.xml", "<r>" + "<v>x</v>" * 150_000 + "</r>")
        return path, db.arena.num_nodes * NODE_RESIDENT_BYTES

    def _open_rss(self, path: str, mode: str) -> tuple[int, int]:
        """(baseline, delta) peak-RSS bytes of one ``Database.open``."""
        out = subprocess.run(
            [sys.executable, "-c", _RSS_CHILD, path, mode],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        before, after = (int(v) * 1024 for v in out.stdout.split())
        return before, after - before

    def test_eager_open_is_single_copy(self, big_store):
        path, column_bytes = big_store
        before, delta = self._open_rss(path, "eager")
        # the column copy plus the memmapped source pages it reads from;
        # the old adoption path peaked a full set of int64 intermediates
        # on top (≈ 2.9× the column bytes)
        assert delta < 2.2 * column_bytes, (before, delta)

    def test_paged_open_touches_almost_nothing(self, big_store):
        path, column_bytes = big_store
        _, eager = self._open_rss(path, "eager")
        _, paged = self._open_rss(path, "paged")
        assert paged < 0.2 * column_bytes, (eager, paged)
        assert paged < eager, (eager, paged)
