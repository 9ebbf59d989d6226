"""Differential tests for the persistent document store.

The contract under test: a store-backed Database is observationally
identical to a plain in-memory one — persist → reopen reproduces every
fragment column for column (:func:`fragment_snapshot` decodes
surrogates, so different intern orders still compare equal), query
results match across the XMark suite, WAL replay reconstructs exactly
the updated tree, and shred → persist → reopen → serialize is a
fixpoint on hypothesis-generated documents.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import connect
from repro.api.database import Database
from repro.encoding.store import (
    FORMAT1_DTYPES,
    MANIFEST_NAME,
    DocumentStore,
    StoreError,
    fragment_dtypes,
    fragment_snapshot,
    narrowest_dtype,
)
from repro.errors import PathfinderError
from repro.xmark import XMARK_QUERIES, generate_document
from repro.xml.serializer import serialize_node

from tests.reference_xml import serialize_tree
from tests.test_xml import _tree

XML_A = (
    '<site x="1"><a id="a1">hello<b>world</b></a>'
    '<a id="a2">two</a><!--note--><?pi data?>tail</site>'
)
XML_B = "<r><z>zed</z><z>zed2</z></r>"


def _store_dir(tmp_path) -> str:
    return str(tmp_path / "db.pfstore")


def _snap(db: Database, uri: str) -> dict:
    return fragment_snapshot(db.arena, db.documents[uri])


def _text(db: Database, uri: str) -> str:
    return serialize_node(db.arena, db.documents[uri])


class TestPersistReopen:
    def test_reopen_snapshot_identical(self, tmp_path):
        db = Database(store=_store_dir(tmp_path))
        db.load_document("a.xml", XML_A)
        before = _snap(db, "a.xml")

        db2 = Database.open(_store_dir(tmp_path))
        assert sorted(db2.documents) == ["a.xml"]
        assert db2.doc_epochs == db.doc_epochs
        assert db2.default_document == "a.xml"
        assert _snap(db2, "a.xml") == before
        assert _text(db2, "a.xml") == _text(db, "a.xml")

    def test_reopen_multiple_documents_and_default(self, tmp_path):
        db = Database(store=_store_dir(tmp_path))
        db.load_document("a.xml", XML_A)
        db.load_document("b.xml", XML_B)
        db.set_default_document("b.xml")
        snaps = {uri: _snap(db, uri) for uri in db.documents}

        db2 = Database.open(_store_dir(tmp_path))
        assert sorted(db2.documents) == ["a.xml", "b.xml"]
        assert db2.default_document == "b.xml"
        for uri, snap in snaps.items():
            assert _snap(db2, uri) == snap, uri

    def test_unload_persists(self, tmp_path):
        db = Database(store=_store_dir(tmp_path))
        db.load_document("a.xml", XML_A)
        db.load_document("b.xml", XML_B)
        db.unload_document("b.xml")
        db2 = Database.open(_store_dir(tmp_path))
        assert sorted(db2.documents) == ["a.xml"]

    def test_replace_persists_new_content(self, tmp_path):
        db = Database(store=_store_dir(tmp_path))
        db.load_document("a.xml", XML_A)
        db.replace_document("a.xml", "<site><only/></site>")
        db2 = Database.open(_store_dir(tmp_path))
        assert _text(db2, "a.xml") == "<site><only/></site>"
        assert db2.doc_epochs == db.doc_epochs

    def test_reopen_empty_store(self, tmp_path):
        Database(store=_store_dir(tmp_path))
        db2 = Database.open(_store_dir(tmp_path))
        assert db2.documents == {}
        assert db2.default_document is None

    def test_queries_agree_after_reopen(self, tmp_path):
        db = Database(store=_store_dir(tmp_path))
        db.load_document("a.xml", XML_A)
        db2 = Database.open(_store_dir(tmp_path))
        for query in ("count(//a)", "//a/@id", "/site/a[2]/text()", "//b"):
            assert (
                db.connect().execute(query).serialize()
                == db2.connect().execute(query).serialize()
            ), query

    def test_fragment_files_are_memory_mapped(self, tmp_path):
        """Reopen must mmap the column files, not read-and-copy them."""
        db = Database(store=_store_dir(tmp_path))
        db.load_document("a.xml", XML_A)
        store = DocumentStore(_store_dir(tmp_path))
        import numpy as np

        frag = os.path.join(store.path, store.manifest["documents"]["a.xml"]["dir"])
        nodes = store.manifest["documents"]["a.xml"]["nodes"]
        mapped = store._mapped(os.path.join(frag, "kind.bin"), "u1", nodes)
        assert isinstance(mapped, np.memmap)


class TestXMarkDifferential:
    @pytest.fixture(scope="class")
    def doc_text(self):
        return generate_document(0.001, seed=7)

    def test_xmark_reopen_column_identical(self, tmp_path, doc_text):
        db = Database(store=_store_dir(tmp_path))
        db.load_document("auction.xml", doc_text)
        before = _snap(db, "auction.xml")
        db2 = Database.open(_store_dir(tmp_path))
        assert _snap(db2, "auction.xml") == before

    def test_xmark_queries_agree_after_reopen(self, tmp_path, doc_text):
        db = Database(store=_store_dir(tmp_path))
        db.load_document("auction.xml", doc_text)
        db2 = Database.open(_store_dir(tmp_path))
        mem, persisted = db.connect(), db2.connect()
        for name, query in XMARK_QUERIES.items():
            assert (
                mem.execute(query).serialize() == persisted.execute(query).serialize()
            ), name


#: update scripts that always apply against the XML_A default document;
#: each runs against an in-memory and a store-backed database in lockstep
UPDATE_SCRIPTS = (
    'insert node <n why="new">text</n> into /site',
    "insert node <first/> as first into /site",
    "insert node (<u/>, 'mixed', <v/>) as last into /site",
    "insert node <p/> before /site/*[1], insert node <q/> after /site/*[1]",
    'insert node attribute marked {"yes"} into /site/a[1]',
    "delete node /site/a[2]",
    "delete nodes //b",
    "delete node /site/a[1]/@id",
    'replace node /site/a[1] with <na zip="02134">swapped<deep/></na>',
    'replace value of node /site/a[1] with "flat"',
    'replace value of node /site/@x with "9"',
    'rename node /site/a[1] as "renamed"',
    'rename node /site/@x as "y"',
    "for $a in //a return insert node <tag/> into $a",
    'insert node /site/a[1] into /site',  # copy an existing subtree
    # several XML payloads (a comment, a PI, copies) and a text in one record
    "insert node (/site/comment(), /site/processing-instruction(), 'txt', /site/*)"
    " as first into /site",
)


def _apply(db: Database, script: str):
    try:
        db.connect().execute_update(script)
        return None
    except PathfinderError as exc:
        return type(exc).__name__


class TestUpdateDurability:
    def test_scripted_updates_replay_identically(self, tmp_path):
        """Every WAL-logged update replays to the in-memory result.

        An in-memory and a store-backed database run the same update
        scripts in lockstep; after each script the store is reopened
        into a *fresh* database (forcing WAL replay) and every column
        of the document must match the in-memory arena.
        """
        mem = Database()
        mem.load_document("a.xml", XML_A)
        dur = Database(store=_store_dir(tmp_path))
        dur.load_document("a.xml", XML_A)

        for i, script in enumerate(UPDATE_SCRIPTS):
            assert _apply(mem, script) == _apply(dur, script), script
            assert _snap(mem, "a.xml") == _snap(dur, "a.xml"), script
            reopened = Database.open(_store_dir(tmp_path))
            assert _snap(reopened, "a.xml") == _snap(mem, "a.xml"), script
            assert reopened.doc_epochs == dur.doc_epochs, script
            if i == len(UPDATE_SCRIPTS) // 2:
                # mid-sequence checkpoint: later replays start from the
                # rewritten fragment, not the original shred
                summary = dur.checkpoint()
                assert summary["wal_bytes"] == 0

    def test_replay_count_and_checkpoint_truncation(self, tmp_path):
        dur = Database(store=_store_dir(tmp_path))
        dur.load_document("a.xml", XML_A)
        dur.connect().execute_update("insert node <n/> into /site")
        dur.connect().execute_update("delete nodes //b")
        assert dur.store.wal_bytes > 0

        replayer = Database.open(_store_dir(tmp_path))
        assert replayer.store.replayed == 2

        dur.checkpoint()
        assert dur.store.wal_bytes == 0
        clean = Database.open(_store_dir(tmp_path))
        assert clean.store.replayed == 0
        assert _snap(clean, "a.xml") == _snap(dur, "a.xml")

    def test_multi_document_update_is_one_wal_record(self, tmp_path):
        dur = Database(store=_store_dir(tmp_path))
        dur.load_document("a.xml", XML_A)
        dur.load_document("b.xml", XML_B)
        dur.connect().execute_update(
            'insert node <xa/> into doc("a.xml")/site, '
            'insert node <xb/> into doc("b.xml")/r'
        )
        assert dur.store.wal_records == 1
        reopened = Database.open(_store_dir(tmp_path))
        # one atomic record, two per-document deltas replayed from it
        assert reopened.store.replayed == 2
        for uri in ("a.xml", "b.xml"):
            assert _snap(reopened, uri) == _snap(dur, uri), uri

    def test_auto_checkpoint_threshold(self, tmp_path):
        dur = Database(store=_store_dir(tmp_path), checkpoint_wal_bytes=1)
        dur.load_document("a.xml", XML_A)
        dur.connect().execute_update("insert node <n/> into /site")
        # the WAL grew past the (tiny) threshold, so the update itself
        # triggered a checkpoint and the log is already folded in
        assert dur.store.wal_bytes == 0
        assert dur.store.checkpoints == 1

    def test_epoch_monotonic_across_restart(self, tmp_path):
        dur = Database(store=_store_dir(tmp_path))
        dur.load_document("a.xml", XML_A)
        dur.connect().execute_update("insert node <n/> into /site")
        high = dur.doc_epochs["a.xml"]
        reopened = Database.open(_store_dir(tmp_path))
        reopened.connect().execute_update("insert node <m/> into /site")
        assert reopened.doc_epochs["a.xml"] > high


class TestConnectWiring:
    def test_connect_store_kwarg(self, tmp_path):
        session = connect(store=_store_dir(tmp_path))
        session.database.load_document("a.xml", XML_A)
        db2 = Database.open(_store_dir(tmp_path))
        assert sorted(db2.documents) == ["a.xml"]

    def test_connect_rejects_store_with_database(self, tmp_path):
        db = Database()
        with pytest.raises(PathfinderError):
            connect(database=db, store=_store_dir(tmp_path))

    def test_store_accepts_instance(self, tmp_path):
        store = DocumentStore(_store_dir(tmp_path))
        db = Database(store=store)
        assert db.store is store


class TestOpenErrors:
    """A store that cannot be opened raises StoreError, never a raw
    OSError or JSON error, so callers catching PathfinderError see it."""

    def test_regular_file_is_not_a_store(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("not a store")
        with pytest.raises(StoreError, match="cannot open store directory"):
            Database(store=str(path))

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ('{"format": 1,', "unreadable store manifest"),
            ("[1]", "unsupported store format"),
        ],
        ids=["truncated-json", "not-an-object"],
    )
    def test_corrupt_manifest(self, tmp_path, manifest, message):
        store = tmp_path / "db.pfstore"
        store.mkdir()
        (store / MANIFEST_NAME).write_text(manifest)
        with pytest.raises(StoreError, match=message):
            Database(store=str(store))


#: randomized update grammar: every op targets structure /r always has
_RANDOM_OPS = (
    'insert node <i a="1">t</i> into /r',
    "insert node <j/> as first into /r",
    "insert node 'txt' as last into /r",
    "delete nodes /r/*[1]",
    'rename node /r as "r"',
    'replace value of node /r with "leveled"',
    'insert node attribute k {"v"} into /r',
    "delete nodes /r/@*",
)


class TestPropertyDifferential:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_tree())
    def test_persist_reopen_serialize_fixpoint(self, tree):
        """shred → persist → reopen → serialize reproduces the input."""
        text = serialize_tree(tree)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "db.pfstore")
            db = Database(store=path)
            db.load_document("t.xml", text)
            db2 = Database.open(path)
            assert _text(db2, "t.xml") == _text(db, "t.xml") == text
            assert _snap(db2, "t.xml") == _snap(db, "t.xml")

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.tuples(st.sampled_from(_RANDOM_OPS), st.booleans()),
            min_size=1,
            max_size=6,
        )
    )
    def test_random_update_sequences_differential(self, steps):
        """Random update sequences with interleaved reopens stay in
        lockstep with a purely in-memory database."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "db.pfstore")
            mem = Database()
            mem.load_document("r.xml", "<r><s>base</s></r>")
            dur = Database(store=path)
            dur.load_document("r.xml", "<r><s>base</s></r>")
            for script, reopen in steps:
                assert _apply(mem, script) == _apply(dur, script), script
                if reopen:
                    dur = Database.open(path)
                assert _snap(dur, "r.xml") == _snap(mem, "r.xml"), script


# --------------------------------------------------------------------------
# narrow columns: per-fragment widths, exact byte counts, format 1
# --------------------------------------------------------------------------
def _fragment_dir_bytes(path: str) -> dict[str, int]:
    """uri → summed size of the files in its fragment directory."""
    store = DocumentStore(path)
    return {
        uri: sum(
            entry.stat().st_size
            for entry in os.scandir(os.path.join(store.path, meta["dir"]))
        )
        for uri, meta in store.manifest["documents"].items()
    }


def _assert_counters_measure_disk(path: str) -> None:
    """``store_status()["fragment_bytes"]``, each ``PagedFragment.disk_bytes``
    and the paging ``mapped_bytes`` all equal the bytes on disk (of a
    store whose WAL is folded in: a paged open tracks clean fragments)."""
    on_disk = _fragment_dir_bytes(path)
    eager = Database.open(path)
    assert eager.store_status()["fragment_bytes"] == sum(on_disk.values())
    paged = Database.open(path, page_budget_bytes=1)
    pager = paged.arena.pager
    for uri, root in paged.documents.items():
        assert pager.record_for_base(root).source.disk_bytes == on_disk[uri], uri
    assert paged.paging_status()["mapped_bytes"] == sum(on_disk.values())
    assert paged.store_status()["fragment_bytes"] == sum(on_disk.values())


def _dtypes(path: str, uri: str) -> dict:
    return DocumentStore(path).manifest["documents"][uri]["dtypes"]


def format1_store(path: str) -> None:
    """Rewrite a store in the format-1 layout: every fragment file at the
    fixed widths of ``FORMAT1_DTYPES`` (``<i8`` but ``kind`` u1 and
    ``level`` ``<i4``), manifest entries without ``dtypes``, format 1."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    for meta in manifest["documents"].values():
        frag = os.path.join(path, meta["dir"])
        for cname, dtype in fragment_dtypes(meta).items():
            file = os.path.join(frag, cname + ".bin")
            values = np.fromfile(file, dtype=dtype)
            values.astype(FORMAT1_DTYPES[cname]).tofile(file)
        del meta["dtypes"]
    manifest["format"] = 1
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)


#: the columns ``NodeArena.logical_column`` reads from cold paged spans
LOGICAL_COLUMNS = ("kind", "size", "level", "frag", "parent", "name", "value", "attr_owner")


def _logical(db: Database) -> dict:
    """Every arena column as read through ``logical_column`` (cold paged
    spans from their memmaps), surrogates decoded to strings."""
    arena = db.arena
    out = {
        name: arena.logical_column(name).tolist()
        for name in ("kind", "size", "level", "parent", "attr_owner")
    }
    for name in ("name", "value"):
        out[name] = [
            arena.pool.value(sid) if sid >= 0 else None
            for sid in arena.logical_column(name).tolist()
        ]
    return out


@pytest.mark.parametrize(
    "values, dtype",
    [
        ((), "<i1"),
        ((-1, 0), "<i1"),
        ((-(2**7), 2**7 - 1), "<i1"),
        ((2**7,), "<i2"),
        ((-(2**7) - 1,), "<i2"),
        ((-(2**15), 2**15 - 1), "<i2"),
        ((2**15,), "<i4"),
        ((-(2**15) - 1,), "<i4"),
        ((-(2**31), 2**31 - 1), "<i4"),
        ((2**31,), "<i8"),
        ((-(2**31) - 1,), "<i8"),
        ((-(2**63), 2**63 - 1), "<i8"),
    ],
)
def test_narrowest_dtype_holds_the_range(values, dtype):
    arr = np.asarray(values, dtype=np.int64)
    assert narrowest_dtype(arr) == dtype
    assert np.array_equal(arr.astype(dtype).astype(np.int64), arr)


class TestFragmentBytes:
    """The byte counters report what is on disk, whatever widths the
    fragment's values asked for."""

    @pytest.mark.parametrize("seed", [42, 43])
    def test_xmark_counters_measure_disk(self, tmp_path, seed):
        path = _store_dir(tmp_path)
        text = generate_document(0.005, seed=seed)
        db = Database(store=path)
        db.load_document("auction.xml", text)
        _assert_counters_measure_disk(path)
        dtypes = _dtypes(path, "auction.xml")
        assert dtypes["level"] == "<i1"
        assert {dtypes[c] for c in ("size", "parent", "name", "value")} == {"<i2"}
        if seed == 42:
            ratio = db.store_status()["fragment_bytes"] / len(text.encode("utf-8"))
            assert ratio <= 1.0, ratio

    def test_empty_bodied_document(self, tmp_path):
        path = _store_dir(tmp_path)
        db = Database(store=path)
        db.load_document("e.xml", "<e/>")
        _assert_counters_measure_disk(path)
        reopened = Database.open(path, page_budget_bytes=1)
        assert _snap(reopened, "e.xml") == _snap(db, "e.xml")

    @pytest.mark.parametrize(
        "children, size_dtype",
        [(126, "<i1"), (127, "<i2"), (32766, "<i2"), (32767, "<i4")],
    )
    def test_row_counts_on_the_width_edges(self, tmp_path, children, size_dtype):
        # the document node's size is children + 1: 127 fits a byte, 128
        # does not; 32 767 fits two bytes, 32 768 does not
        path = _store_dir(tmp_path)
        db = Database(store=path)
        db.load_document("r.xml", "<r>" + "<v/>" * children + "</r>")
        dtypes = _dtypes(path, "r.xml")
        assert dtypes["size"] == size_dtype
        # only elements: every value is the -1 sentinel, parents are 0/1
        assert dtypes["value"] == dtypes["parent"] == dtypes["level"] == "<i1"
        _assert_counters_measure_disk(path)
        for budget in (None, 1):
            reopened = Database.open(path, page_budget_bytes=budget)
            assert _snap(reopened, "r.xml") == _snap(db, "r.xml"), budget

    @pytest.mark.parametrize(
        "strings, sid_dtype", [(2**15, "<i2"), (2**15 + 1, "<i4")]
    )
    def test_pool_strings_on_the_width_edge(self, tmp_path, strings, sid_dtype):
        # "r" and "v", then one distinct text per element: the largest
        # local surrogate, strings - 1, is a text value
        path = _store_dir(tmp_path)
        db = Database(store=path)
        texts = "".join(f"<v>{i}</v>" for i in range(strings - 2))
        db.load_document("p.xml", f"<r>{texts}</r>")
        meta = DocumentStore(path).manifest["documents"]["p.xml"]
        assert meta["strings"] == strings
        assert meta["dtypes"]["value"] == sid_dtype
        assert meta["dtypes"]["pool_offsets"] == "<i4"
        # no attributes: empty columns take the narrowest width
        assert meta["dtypes"]["attr_owner"] == "<i1"
        _assert_counters_measure_disk(path)
        for budget in (None, 1):
            reopened = Database.open(path, page_budget_bytes=budget)
            assert _snap(reopened, "p.xml") == _snap(db, "p.xml"), budget


class TestFormat1:
    """A store written in the format-1 layout opens eager and paged,
    and an update + checkpoint turns it into a mixed-width store."""

    @pytest.fixture(scope="class")
    def xmark_text(self):
        return generate_document(0.002, seed=42)

    def test_format1_helper_writes_fixed_widths(self, tmp_path):
        path = _store_dir(tmp_path)
        Database(store=path).load_document("a.xml", XML_A)
        format1_store(path)
        store = DocumentStore(path)
        assert store.manifest["format"] == 1
        meta = store.manifest["documents"]["a.xml"]
        assert "dtypes" not in meta
        frag = os.path.join(path, meta["dir"])
        assert os.path.getsize(os.path.join(frag, "size.bin")) == 8 * meta["nodes"]
        assert os.path.getsize(os.path.join(frag, "level.bin")) == 4 * meta["nodes"]
        _assert_counters_measure_disk(path)

    def test_format1_opens_like_a_fresh_load(self, tmp_path, xmark_text):
        path = _store_dir(tmp_path)
        fresh = Database(store=path)
        fresh.load_document("auction.xml", xmark_text)
        format1_store(path)
        expected = _logical(fresh)
        answers = {
            name: fresh.connect().execute(query).serialize()
            for name, query in XMARK_QUERIES.items()
        }
        for budget in (None, 1):
            db = Database.open(path, page_budget_bytes=budget)
            assert _logical(db) == expected, budget  # cold, for a paged open
            session = db.connect()
            for name, query in XMARK_QUERIES.items():
                assert session.execute(query).serialize() == answers[name], (
                    budget, name,
                )
            assert _logical(db) == expected, budget

    @pytest.mark.parametrize("scale", [0.005, 0.02])
    @pytest.mark.parametrize("seed", [42, 43])
    def test_narrow_adoption_matches_format1_byte_for_byte(self, tmp_path, scale, seed):
        narrow, wide = str(tmp_path / "narrow"), str(tmp_path / "wide")
        text = generate_document(scale, seed=seed)
        for path in (narrow, wide):
            Database(store=path).load_document("auction.xml", text)
        format1_store(wide)
        assert sum(_fragment_dir_bytes(narrow).values()) < sum(
            _fragment_dir_bytes(wide).values()
        )
        for budget in (None, 1):
            a = Database.open(narrow, page_budget_bytes=budget)
            b = Database.open(wide, page_budget_bytes=budget)
            for name in LOGICAL_COLUMNS:
                assert np.array_equal(
                    a.arena.logical_column(name), b.arena.logical_column(name)
                ), (budget, name)
            assert _snap(a, "auction.xml") == _snap(b, "auction.xml"), budget

    def test_update_and_checkpoint_leave_mixed_widths(self, tmp_path):
        path = _store_dir(tmp_path)
        mem = Database()
        dur = Database(store=path)
        for db in (mem, dur):
            db.load_document("a.xml", XML_A)
            db.load_document("b.xml", XML_B)
        format1_store(path)
        dur = Database.open(path)
        for db in (mem, dur):
            db.connect().execute_update('insert node <n i="1">new</n> into doc("a.xml")/site')
        dur.checkpoint()
        store = DocumentStore(path)
        assert store.manifest["format"] == 2
        assert "dtypes" in store.manifest["documents"]["a.xml"]
        assert "dtypes" not in store.manifest["documents"]["b.xml"]
        _assert_counters_measure_disk(path)
        for budget in (None, 1):
            reopened = Database.open(path, page_budget_bytes=budget)
            for uri in ("a.xml", "b.xml"):
                assert _snap(reopened, uri) == _snap(mem, uri), (budget, uri)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(size="<f8"),
            lambda d: d.update(size=">i2"),
            lambda d: d.update(size="<u2"),
            lambda d: d.pop("pool_offsets"),
            lambda d: d.update(extra="<i1"),
        ],
        ids=["float", "big-endian", "unsigned", "missing-file", "unknown-file"],
    )
    def test_unsupported_dtype_raises(self, tmp_path, edit):
        path = _store_dir(tmp_path)
        Database(store=path).load_document("a.xml", XML_A)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        edit(manifest["documents"]["a.xml"]["dtypes"])
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        for budget in (None, 1):
            with pytest.raises(StoreError, match="unsupported column dtypes"):
                Database.open(path, page_budget_bytes=budget)
