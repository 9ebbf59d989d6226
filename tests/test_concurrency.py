"""Concurrency stress tests for the thread-safe Database layer.

The serving contract under test: many sessions on many threads share one
Database while documents are hot-replaced — queries must never see a
torn catalog (a result must always correspond to *some* complete
document version), replaces must keep the cached plans (which read the
new tree), and racing compilations of one query text must collapse into
a single front-end run (single-flight, owned by the plan cache).
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Database, connect
from repro.api.concurrency import RWLock
from repro.api.plan_cache import PlanCache

#: the document versions the replacer thread alternates between —
#: count(/r/v) must always be one of these, never anything in between
DOC_VERSIONS = {
    3: "<r><v>1</v><v>2</v><v>3</v></r>",
    5: "<r><v>1</v><v>2</v><v>3</v><v>4</v><v>5</v></r>",
}


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        entered = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read_locked():
                entered.wait()  # both readers inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        in_write = threading.Event()

        def writer():
            with lock.write_locked():
                in_write.set()
                order.append("write")

        lock.acquire_read()
        t = threading.Thread(target=writer)
        t.start()
        assert not in_write.wait(timeout=0.2)  # blocked behind the reader
        order.append("read-release")
        lock.release_read()
        t.join(timeout=5)
        assert order == ["read-release", "write"]

    def test_read_reentrant_while_writer_waits(self):
        """A reader may re-acquire even with a writer queued (this is what
        makes execute -> revalidate -> prepare safe)."""
        lock = RWLock()
        lock.acquire_read()
        t = threading.Thread(target=lock.acquire_write)
        t.start()
        # wait until the writer is registered as waiting
        for _ in range(100):
            if lock._writers_waiting:
                break
            threading.Event().wait(0.01)
        lock.acquire_read()  # must not deadlock
        lock.release_read()
        lock.release_read()
        t.join(timeout=5)
        assert not t.is_alive()
        lock.release_write()

    def test_write_preference_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer = threading.Thread(target=lock.acquire_write)
        writer.start()
        for _ in range(100):
            if lock._writers_waiting:
                break
            threading.Event().wait(0.01)
        got_read = threading.Event()

        def late_reader():
            lock.acquire_read()
            got_read.set()
            lock.release_read()

        reader = threading.Thread(target=late_reader)
        reader.start()
        assert not got_read.wait(timeout=0.2)  # queued behind the writer
        lock.release_read()
        writer.join(timeout=5)
        lock.release_write()
        reader.join(timeout=5)
        assert got_read.is_set()


def _entry(query: str = "1+1"):
    """A compiled plan reading no document: current in every catalog."""
    return Database().compile_query(query, use_optimizer=True)


class TestSingleFlight:
    """:meth:`PlanCache.get_or_compile` compiles a key once at a time."""

    def test_waiters_adopt_leader_result(self):
        cache = PlanCache()
        entry = _entry()
        barrier = threading.Barrier(8, timeout=5)
        calls = []
        results = []

        def compile_plan():
            calls.append(1)
            threading.Event().wait(0.05)  # hold the compilation open
            return entry

        def racer():
            barrier.wait()
            results.append(cache.get_or_compile("key", {}, None, compile_plan))

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1
        assert all(got is entry for got, _ in results)
        assert sum(not hit for _, hit in results) == 1  # one leader
        assert cache.stats.waits == 7
        assert len(cache) == 1

    def test_errors_propagate_to_waiters(self):
        cache = PlanCache()
        barrier = threading.Barrier(4, timeout=5)
        failures = []

        def compile_plan():
            threading.Event().wait(0.05)
            raise ValueError("boom")

        def racer():
            barrier.wait()
            try:
                cache.get_or_compile("key", {}, None, compile_plan)
            except ValueError as exc:
                failures.append(str(exc))

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
        assert failures == ["boom"] * 4
        assert len(cache) == 0  # the error is not cached
        entry = _entry()
        assert cache.get_or_compile("key", {}, None, lambda: entry) == (
            entry,
            False,
        )

    def test_next_call_after_landing_recomputes(self):
        cache = PlanCache()
        first, second = _entry("1"), _entry("2")
        assert cache.get_or_compile("k", {}, None, lambda: first) == (first, False)
        assert cache.get_or_compile("k", {}, None, lambda: second) == (first, True)
        cache.clear()
        assert cache.get_or_compile("k", {}, None, lambda: second) == (
            second,
            False,
        )

    def test_stress_every_key_compiles_once(self):
        """More threads than cores and a short switch interval: a miss
        raced against the leader's insert must still adopt its entry,
        never compile the key a second time."""
        cache = PlanCache()
        entries = [_entry(str(k)) for k in range(4)]
        compiles = {k: 0 for k in range(4)}
        compiles_lock = threading.Lock()
        lookups = 200

        def compile_for(k):
            def compile_plan():
                with compiles_lock:
                    compiles[k] += 1
                return entries[k]
            return compile_plan

        wrong = []

        def racer(offset):
            for i in range(lookups):
                k = (i + offset) % 4
                got, _ = cache.get_or_compile(k, {}, None, compile_for(k))
                if got is not entries[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=racer, args=(n,)) for n in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert compiles == {k: 1 for k in range(4)}
        stats = cache.stats
        assert stats.hits + stats.misses == 16 * lookups
        assert stats.misses - stats.waits == 4  # one leader per key


class TestUpgrade:
    """:meth:`PlanCache.get_or_compile` upgrades a stage-1 entry on its
    first reuse, at most once per key at a time, and never resurrects an
    entry that left the cache while its upgrade ran."""

    QUERY = "for $v in (1, 2, 3) where $v > 1 return $v * 10"

    def _blocked_upgrade(self, database):
        """``(upgrade_plan, started, release)``: an upgrade that parks
        until ``release`` is set."""
        started, release = threading.Event(), threading.Event()

        def upgrade_plan(entry):
            started.set()
            assert release.wait(timeout=5)
            return database.upgrade_plan(entry)

        return upgrade_plan, started, release

    def _upgrade_in_thread(self, cache, upgrade_plan):
        got = []
        thread = threading.Thread(
            target=lambda: got.append(
                cache.get_or_compile("k", {}, None, None, upgrade_plan)
            )
        )
        thread.start()
        return thread, got

    def test_hit_during_upgrade(self):
        """While one caller upgrades, a one-shot hitter runs the stage-1
        plan at once and a preparing hitter waits for the final plan."""
        database = Database()
        stage1 = database.compile_query(self.QUERY, True, one_shot=True)
        cache = PlanCache()
        assert cache.get_or_compile("k", {}, None, lambda: stage1) == (stage1, False)
        upgrade_plan, started, release = self._blocked_upgrade(database)
        thread, got = self._upgrade_in_thread(cache, upgrade_plan)
        assert started.wait(timeout=5)
        assert cache.get_or_compile(
            "k", {}, None, None, upgrade_plan, one_shot=True
        ) == (stage1, True)
        waiter = []
        waiting = threading.Thread(
            target=lambda: waiter.append(
                cache.get_or_compile("k", {}, None, None, upgrade_plan)
            )
        )
        waiting.start()
        threading.Event().wait(0.05)
        assert waiter == []  # parked on the upgrade, not served stage 1
        release.set()
        thread.join(timeout=5)
        waiting.join(timeout=5)
        assert not thread.is_alive() and not waiting.is_alive()
        (final, hit), = got
        assert hit and final.final and waiter == [(final, True)]
        assert cache.stats.upgrades == 1
        assert cache.get_or_compile("k", {}, None, None, upgrade_plan) == (final, True)

    @pytest.mark.parametrize("leave", ["clear", "evict"])
    def test_upgrade_of_a_departed_entry_is_dropped(self, leave):
        database = Database()
        stage1 = database.compile_query(self.QUERY, True, one_shot=True)
        cache = PlanCache(capacity=1)
        cache.get_or_compile("k", {}, None, lambda: stage1)
        upgrade_plan, started, release = self._blocked_upgrade(database)
        thread, got = self._upgrade_in_thread(cache, upgrade_plan)
        assert started.wait(timeout=5)
        if leave == "clear":
            cache.clear()
        else:
            other = database.compile_query("1", True)
            cache.get_or_compile("other", {}, None, lambda: other)
        release.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        (final, hit), = got
        assert hit and final.final  # the caller still runs the final plan
        if leave == "clear":
            assert len(cache) == 0
        else:
            assert cache.get_or_compile("k", {}, None, lambda: stage1)[1] is False

    def test_racing_executes_compile_once_and_upgrade_once(self, monkeypatch):
        """8 threads executing one fresh text: 1 compile, 1 upgrade, and
        the same answer everywhere."""
        db = Database()
        db.load_document("r.xml", DOC_VERSIONS[5])
        compiles, upgrades = [], []
        compile_query, upgrade_plan = Database.compile_query, Database.upgrade_plan

        def counting_compile(self, *args, **kwargs):
            compiles.append(kwargs.get("one_shot"))
            threading.Event().wait(0.05)  # widen the race window
            return compile_query(self, *args, **kwargs)

        def counting_upgrade(self, *args, **kwargs):
            upgrades.append(1)
            threading.Event().wait(0.05)
            return upgrade_plan(self, *args, **kwargs)

        monkeypatch.setattr(Database, "compile_query", counting_compile)
        monkeypatch.setattr(Database, "upgrade_plan", counting_upgrade)
        query = "for $v in /r/v where $v > 2 return <w>{$v/text()}</w>"
        barrier = threading.Barrier(8, timeout=5)
        results = []

        def racer():
            session = db.connect()
            barrier.wait()
            for _ in range(3):
                results.append(session.execute(query).serialize())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=racer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == ["<w>3</w><w>4</w><w>5</w>"] * 24
        assert compiles == [True] and len(upgrades) == 1
        assert db.plan_cache.stats.upgrades == 1


class TestConcurrentDatabase:
    def test_hot_replace_never_tears_reads(self):
        """Readers hammering count(/r/v) while a writer alternates the
        document must only ever see complete versions."""
        db = Database()
        db.load_document("r.xml", DOC_VERSIONS[3])
        bad = []
        stop = threading.Event()

        def reader():
            session = db.connect()
            while not stop.is_set():
                got = int(session.execute("count(/r/v)").serialize())
                if got not in DOC_VERSIONS:
                    bad.append(got)
                    return

        def replacer():
            for i in range(25):
                xml = DOC_VERSIONS[3 if i % 2 else 5]
                db.load_document("r.xml", xml, replace=True)

        readers = [threading.Thread(target=reader) for _ in range(6)]
        for t in readers:
            t.start()
        writer = threading.Thread(target=replacer)
        writer.start()
        writer.join(timeout=60)
        stop.set()
        for t in readers:
            t.join(timeout=60)
        assert not writer.is_alive() and not any(t.is_alive() for t in readers)
        assert bad == []

    def test_plans_stay_hot_across_concurrent_replaces(self):
        """A replace keeps the cached plan however far the document
        grows or shrinks: readers racing a writer that swaps a 7-node
        and a 161-node version are all served from the cache, and each
        read sees one complete version."""
        versions = {3: DOC_VERSIONS[3], 80: "<r>" + "<v>1</v>" * 80 + "</r>"}
        db = Database()
        db.load_document("r.xml", versions[3])
        assert db.connect().execute("count(/r/v)").serialize() == "3"
        bad = []
        stop = threading.Event()

        def reader():
            session = db.connect()
            while not stop.is_set():
                result = session.execute("count(/r/v)")
                got = int(result.serialize())
                if got not in versions or not result.from_cache:
                    bad.append((got, result.from_cache))
                    return

        def replacer():
            for i in range(21):  # ends on the big version
                xml = versions[3 if i % 2 else 80]
                db.load_document("r.xml", xml, replace=True)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        writer = threading.Thread(target=replacer)
        writer.start()
        writer.join(timeout=60)
        stop.set()
        for t in readers:
            t.join(timeout=60)
        assert not writer.is_alive() and not any(t.is_alive() for t in readers)
        assert bad == []
        result = db.connect().execute("count(/r/v)")
        assert result.serialize() == "80" and result.from_cache
        assert db.plan_cache.stats.misses == 1
        assert db.plan_cache.stats.invalidations == 0

    def test_single_flight_compilation(self, monkeypatch):
        """N sessions racing on one cold query text compile it once."""
        db = Database()
        db.load_document("r.xml", DOC_VERSIONS[3])
        compiles = []
        original = Database.compile_query

        def counting(self, *args, **kwargs):
            compiles.append(threading.get_ident())
            threading.Event().wait(0.05)  # widen the race window
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Database, "compile_query", counting)
        barrier = threading.Barrier(8, timeout=5)
        results = []

        def racer():
            session = db.connect()
            barrier.wait()
            results.append(session.execute("count(/r/v)").serialize())

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert results == ["3"] * 8
        assert len(compiles) == 1

    def test_concurrent_construction_keeps_fragments_intact(self):
        """Element constructors from many threads interleave safely: the
        arena mutation lock keeps each constructed fragment contiguous."""
        session0 = connect()
        db = session0.database
        db.load_document("r.xml", DOC_VERSIONS[3])
        query = "<wrap>{ for $v in /r/v return <item>{ $v/text() }</item> }</wrap>"
        expected = session0.execute(query).serialize()
        failures = []
        barrier = threading.Barrier(6, timeout=5)

        def constructor():
            session = db.connect()
            barrier.wait()
            for _ in range(10):
                got = session.execute(query).serialize()
                if got != expected:
                    failures.append(got)
                    return

        threads = [threading.Thread(target=constructor) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_sessions_share_no_mutable_state(self):
        """The isolation audit in miniature: bindings and stats on one
        session are invisible to another."""
        db = Database()
        db.load_document("r.xml", DOC_VERSIONS[3])
        s1, s2 = db.connect(), db.connect()
        s1.set_variable("n", 2)
        assert s2.variables == {}
        s1.execute("count(/r/v)")
        assert s2.stats.queries_executed == 0
        assert s1.stats.queries_executed == 1


@pytest.mark.parametrize("threads", [2, 8])
def test_stress_mixed_workload(threads):
    """Readers, a constructor and a hot-replacer all at once; every
    thread must finish and every observation must be a valid snapshot."""
    db = Database()
    db.load_document("r.xml", DOC_VERSIONS[3])
    db.load_document("s.xml", "<s><w>9</w></s>")
    errors = []
    stop = threading.Event()

    def reader():
        session = db.connect()
        try:
            while not stop.is_set():
                got = int(session.execute("count(/r/v)").serialize())
                if got not in DOC_VERSIONS:
                    errors.append(f"torn read: {got}")
                    return
                # s.xml is never replaced: its plans must stay valid
                if session.execute('count(doc("s.xml")/s/w)').serialize() != "1":
                    errors.append("unrelated document disturbed")
                    return
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(repr(exc))

    def replacer():
        try:
            for i in range(10):
                db.load_document(
                    "r.xml", DOC_VERSIONS[3 if i % 2 else 5], replace=True
                )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(repr(exc))

    workers = [threading.Thread(target=reader) for _ in range(threads)]
    workers.append(threading.Thread(target=replacer))
    for t in workers:
        t.start()
    workers[-1].join(timeout=120)
    stop.set()
    for t in workers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
