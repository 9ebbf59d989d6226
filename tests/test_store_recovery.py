"""Crash-recovery fault injection for the persistent document store.

The store invokes its ``fault_hook`` at every file-system boundary
(fragment write/fsync, manifest write/replace, WAL append/fsync/
truncate, checkpoint begin/end).  The central test runs a fixed
workload once cleanly to enumerate every fault point and record each
consistent catalog state, then re-runs it once per fault point with an
injected crash there, reopens the store cold, and asserts the recovered
catalog — documents, epochs, default, full serialized content — equals
one of the recorded consistent states.  An update is therefore always
recovered to exactly its pre- or post-state, never a torn mix.  The
writer runs both as the one-shard open and as shard 1 of 2; the reopen
is always one-shard, so the second layout also crosses the other-layout
log fold.

Reshard tests crash a store under one worker count and reopen it under
another: every acknowledged update must be served by its new owner,
and a crash anywhere inside the open-time fold must recover too.

Torn-tail tests corrupt the WAL directly (garbage bytes, bad CRC,
half-written record) and assert recovery stops at the last intact
record and truncates the damage away.
"""

import json
import os
import shutil
import sys
import threading

import pytest

from repro.api.database import Database
from repro.encoding.store import DocumentStore, StoreCrash, StoreError, shard_of
from repro.xml.serializer import serialize_node

XML_A = (
    '<site x="1"><a id="a1">hello<b>world</b></a>'
    "<a id='a2'>two</a><!--note-->tail</site>"
)
XML_B = "<r><z>zed</z><z>zed2</z></r>"


class FaultInjector:
    """Raises :class:`StoreCrash` at the N-th fault point it sees."""

    def __init__(self, crash_at: int | None = None):
        self.crash_at = crash_at
        self.count = 0
        self.points: list[str] = []

    def __call__(self, point: str) -> None:
        self.count += 1
        self.points.append(point)
        if self.crash_at is not None and self.count == self.crash_at:
            raise StoreCrash(f"injected crash at fault #{self.count} ({point})")


def _uris_on(shard: tuple[int, int], k: int) -> list[str]:
    """The first ``k`` URIs ``doc<i>.xml`` that ``shard`` owns."""
    index, count = shard
    uris = (f"doc{i}.xml" for i in range(1000))
    return [u for u in uris if shard_of(u, count) == index][:k]


def _wal_files(path: str) -> list[str]:
    return sorted(f for f in os.listdir(path) if f.startswith("wal"))


def _steps(a: str = "a.xml", b: str = "b.xml"):
    """The workload: every store code path, in a deterministic order."""
    return [
        ("load a", lambda db: db.load_document(a, XML_A)),
        (
            "single-op update",
            lambda db: db.connect().execute_update(
                'insert node <n i="1">n</n> into /site'
            ),
        ),
        (
            "multi-op update",
            lambda db: db.connect().execute_update(
                "delete node /site/a[2], "
                "insert node <m/> as first into /site, "
                'rename node /site/a[1] as "aa"'
            ),
        ),
        ("checkpoint", lambda db: db.checkpoint()),
        (
            "post-checkpoint update",
            lambda db: db.connect().execute_update(
                'replace value of node /site/aa with "v2"'
            ),
        ),
        ("load b", lambda db: db.load_document(b, XML_B)),
        (
            "multi-document update",
            lambda db: db.connect().execute_update(
                f'insert node <xa/> into doc("{a}")/site, '
                f'insert node <xb/> into doc("{b}")/r'
            ),
        ),
        ("unload b", lambda db: db.unload_document(b)),
    ]


def _state(db: Database) -> dict:
    """The full observable catalog: uri → (epoch, serialized tree)."""
    return {
        "default": db.default_document,
        "docs": {
            uri: (db.doc_epochs[uri], serialize_node(db.arena, root))
            for uri, root in db.documents.items()
        },
    }


def _contents(db: Database) -> dict:
    """uri → (epoch, serialized tree) of the documents ``db`` serves."""
    return _state(db)["docs"]


@pytest.mark.parametrize(
    "page_budget,writer",
    [
        pytest.param(None, (0, 1), id="eager"),
        pytest.param(4096, (0, 1), id="paged"),
        pytest.param(None, (1, 2), id="eager-shard-1-of-2"),
        pytest.param(4096, (1, 2), id="paged-shard-1-of-2"),
    ],
)
def test_every_fault_point_recovers_to_a_consistent_state(
    tmp_path, page_budget, writer
):
    steps = _steps(*_uris_on(writer, 2))
    # pass 1, no crash: enumerate the fault points and record every
    # consistent state the workload moves through
    probe = FaultInjector()
    clean = Database(
        store=DocumentStore(
            str(tmp_path / "clean"), fault_hook=probe, shard=writer
        ),
        page_budget_bytes=page_budget,
    )
    states = [_state(clean)]
    for _label, step in steps:
        step(clean)
        states.append(_state(clean))
    total = probe.count
    assert total > 40  # sanity: the workload crosses many fault points

    # pass 2..N+1: crash at each fault point, reopen cold, compare
    for n in range(1, total + 1):
        path = str(tmp_path / f"crash-{n}")
        injector = FaultInjector(crash_at=n)
        db = Database(
            store=DocumentStore(path, fault_hook=injector, shard=writer),
            page_budget_bytes=page_budget,
        )
        crashed_at = None
        try:
            for _label, step in steps:
                step(db)
        except StoreCrash:
            crashed_at = injector.points[-1]
        assert crashed_at is not None, n  # every n <= total must fire

        recovered = Database.open(path, page_budget_bytes=page_budget)
        state = _state(recovered)
        assert state in states, (n, crashed_at, state)

        # recovery must also leave no unreferenced fragment directories
        manifest = recovered.store.manifest["documents"]
        live = {meta["dir"] for meta in manifest.values()}
        docs_dir = os.path.join(recovered.store.path, "docs")
        on_disk = {os.path.join("docs", entry) for entry in os.listdir(docs_dir)}
        assert on_disk == live, (n, crashed_at)

        # and a checkpoint leaves no log of either layout behind
        recovered.checkpoint()
        assert _wal_files(path) == [], (n, crashed_at)


#: documents spread over every shard of each layout the reshard tests use
RESHARD_DOCS = [f"r{i}.xml" for i in range(12)]


def _crash_under(path: str, count: int) -> dict:
    """Load and update every reshard document under ``count`` shards,
    then drop the databases unchecked; returns the acknowledged state."""
    expected = {}
    for index in range(count):
        db = Database.open(path, shard=(index, count), checkpoint_wal_bytes=None)
        session = db.connect()
        for uri in RESHARD_DOCS:
            if db.store.owns(uri):
                db.load_document(uri, "<a><b>old</b></a>")
                session.execute_update(
                    f'replace value of node doc("{uri}")/a/b with "{uri}"'
                )
                session.execute_update(f'insert node <c/> into doc("{uri}")/a')
        expected.update(_contents(db))
        assert db.store.wal_records == 2 * len(db.documents) > 0
        del db, session  # a crash: the updates live only in the WAL
    assert set(expected) == set(RESHARD_DOCS)
    return expected


@pytest.mark.parametrize(
    "old,new",
    [(2, 4), (4, 2), (2, 3), (1, 2), (2, 1)],
    ids=lambda count: str(count),
)
def test_reshard_after_crash_serves_every_update(tmp_path, old, new):
    path = str(tmp_path / "db")
    expected = _crash_under(path, old)

    reopened = [
        Database.open(path, shard=(index, new)) for index in range(new)
    ]
    for db in reopened:
        assert db.documents, db.store.shard
        served = _contents(db)
        assert served == {uri: expected[uri] for uri in served}
    assert sum(len(db.documents) for db in reopened) == len(RESHARD_DOCS)

    for db in reopened:
        db.checkpoint()
    assert _contents(Database.open(path)) == expected
    assert _wal_files(path) == []


def test_status_lists_other_layout_logs_until_folded(tmp_path):
    # a crash under 2 shards leaves both logs; shard 0 of 4 alone folds
    # only the records it owns, so both logs stay pending until every
    # new shard has opened and checkpointed
    path = str(tmp_path / "db")
    _crash_under(path, 2)
    first = Database.open(path, shard=(0, 4))
    pending = first.store_status()["pending_wal_logs"]
    assert sorted(pending) == ["wal-0-of-2.log", "wal-1-of-2.log"]
    assert all(size > 0 for size in pending.values())
    reopened = [first] + [Database.open(path, shard=(i, 4)) for i in range(1, 4)]
    for db in reopened:
        db.checkpoint()
    assert [db.store_status()["pending_wal_logs"] for db in reopened] == [{}] * 4


def test_concurrent_reshard_opens_fold_every_update(tmp_path):
    # the new layout's shards open at once, each folding and sweeping
    # the old logs under its own descriptor of the manifest lock
    path = str(tmp_path / "db")
    expected = _crash_under(path, 2)
    opened, errors = {}, []

    def open_shard(index):
        try:
            opened[index] = Database.open(path, shard=(index, 4))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=open_shard, args=(index,))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and sorted(opened) == [0, 1, 2, 3]
    served = {}
    for db in opened.values():
        served.update(_contents(db))
    assert served == expected
    # the last shard to commit saw every record covered
    assert _wal_files(path) == []
    assert _contents(Database.open(path)) == expected


@pytest.mark.parametrize("page_budget", [None, 4096], ids=["eager", "paged"])
def test_crash_during_open_time_fold_recovers(tmp_path, page_budget):
    # a shard-1-of-2 writer crashes with updates only in its log; the
    # one-shard open folds them, and is crashed at each of its own points
    template = str(tmp_path / "template")
    writer = Database.open(template, shard=(1, 2), checkpoint_wal_bytes=None)
    for _label, step in _steps(*_uris_on((1, 2), 2))[:3]:
        step(writer)
    writer.load_document(_uris_on((1, 2), 3)[2], XML_B)
    writer.connect().execute_update("insert node <last/> into /site")
    expected = _state(writer)
    del writer
    assert _wal_files(template) == ["wal-1-of-2.log"]

    probe_path = str(tmp_path / "probe")
    shutil.copytree(template, probe_path)
    probe = FaultInjector()
    folded = Database(
        store=DocumentStore(probe_path, fault_hook=probe),
        page_budget_bytes=page_budget,
    )
    assert _state(folded) == expected
    assert "wal:sweep" in probe.points and _wal_files(probe_path) == []

    for n in range(1, probe.count + 1):
        path = str(tmp_path / f"crash-{n}")
        shutil.copytree(template, path)
        injector = FaultInjector(crash_at=n)
        with pytest.raises(StoreCrash):
            Database(
                store=DocumentStore(path, fault_hook=injector),
                page_budget_bytes=page_budget,
            )
        crashed_at = injector.points[-1]
        recovered = Database.open(path, page_budget_bytes=page_budget)
        assert _state(recovered) == expected, (n, crashed_at)
        live = {m["dir"] for m in recovered.store.manifest["documents"].values()}
        on_disk = {
            os.path.join("docs", entry)
            for entry in os.listdir(os.path.join(path, "docs"))
        }
        assert on_disk == live, (n, crashed_at)
        recovered.checkpoint()
        assert _wal_files(path) == [], (n, crashed_at)


class TestTornWal:
    def _populate(self, path: str) -> tuple[str, dict, dict]:
        """A store with two un-checkpointed WAL records; returns the log's
        path and the consistent states after update 1 and update 2."""
        db = Database(store=path)
        db.load_document("a.xml", XML_A)
        db.connect().execute_update("insert node <one/> into /site")
        state1 = _state(db)
        db.connect().execute_update("delete nodes //b")
        state2 = _state(db)
        assert db.store.wal_records == 2
        return db.store.wal_path, state1, state2

    def test_garbage_tail_is_discarded_and_truncated(self, tmp_path):
        path = str(tmp_path / "db")
        wal, _state1, state2 = self._populate(path)
        intact = os.path.getsize(wal)
        with open(wal, "ab") as handle:
            handle.write(b'{"crc": 1, "rec"')  # a torn, newline-less append
        recovered = Database.open(path)
        assert _state(recovered) == state2
        assert os.path.getsize(wal) == intact  # damage truncated away

    def test_bad_crc_ends_the_log(self, tmp_path):
        path = str(tmp_path / "db")
        wal, _state1, state2 = self._populate(path)
        bogus = {"crc": 12345, "rec": {"seq": 3, "docs": []}}
        with open(wal, "ab") as handle:
            handle.write((json.dumps(bogus) + "\n").encode("utf-8"))
        recovered = Database.open(path)
        assert _state(recovered) == state2

    def test_half_written_record_recovers_to_previous_update(self, tmp_path):
        path = str(tmp_path / "db")
        wal, state1, _state2 = self._populate(path)
        with open(wal, "rb") as handle:
            raw = handle.read()
        first_line_end = raw.index(b"\n") + 1
        cut = first_line_end + (len(raw) - first_line_end) // 2
        with open(wal, "wb") as handle:
            handle.write(raw[:cut])  # record 2 torn mid-line
        recovered = Database.open(path)
        assert _state(recovered) == state1

    def test_updates_continue_after_truncated_recovery(self, tmp_path):
        path = str(tmp_path / "db")
        wal, state1, _state2 = self._populate(path)
        with open(wal, "rb") as handle:
            raw = handle.read()
        with open(wal, "wb") as handle:
            handle.write(raw[: raw.index(b"\n") + 1])
        recovered = Database.open(path)
        assert _state(recovered) == state1
        recovered.connect().execute_update("insert node <again/> into /site")
        final = _state(recovered)
        assert _state(Database.open(path)) == final


class TestStoreErrors:
    def test_unsupported_format_raises(self, tmp_path):
        path = str(tmp_path / "db")
        Database(store=path).load_document("a.xml", XML_A)
        manifest = os.path.join(path, "MANIFEST.json")
        with open(manifest, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["format"] = 99
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        with pytest.raises(StoreError):
            Database.open(path)

    def test_checkpoint_without_store_raises(self):
        from repro.errors import PathfinderError

        with pytest.raises(PathfinderError):
            Database().checkpoint()

    def test_load_fragment_unknown_uri_raises(self, tmp_path):
        store = DocumentStore(str(tmp_path / "db"))
        from repro.encoding.arena import NodeArena

        with pytest.raises(StoreError):
            store.load_fragment(NodeArena(), "nope.xml")
