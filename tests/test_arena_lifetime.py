"""Arena lifetime: the fragment stack, its leases and its indices.

The arena is a stack of sealed fragments (documents below, constructed
fragments on top) that pops back when the last reader lets go.  These
tests pin down the contract from the outside:

* the three navigation indices, however they were pushed and popped,
  equal a from-scratch rebuild (:func:`_oracle_indices` — the full
  ``argsort`` the arena itself no longer contains);
* random interleavings of construction, lease release, updates, hot
  replace, unload, checkpoint, eviction and reopen — eager, store-backed
  and paged — keep every live document byte-identical to an in-memory
  oracle and to a fresh rebuild of its own text;
* a long-lived session does not grow: every XMark query ten times over,
  twenty updates on one document, and none of it builds reference
  cycles that only the cyclic garbage collector would free;
* leases: concurrent constructors, a result held open, a ``NodeHandle``
  outliving its result, typed errors after ``close()``;
* index maintenance is O(rows appended), counted in sorted elements.
"""

import gc
import os
import tempfile
import threading
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import connect
from repro.api.database import Database
from repro.compiler.serialize import iter_serialized_chunks
from repro.encoding.arena import NK_TEXT, NodeArena
from repro.encoding.shred import shred_text
from repro.errors import PathfinderError, ResultClosedError
from repro.relational.evaluate import EvalContext, evaluate
from repro.xmark import XMARK_QUERIES, generate_document

from tests.test_store import _apply, _text

TINY_BUDGET = 64


# --------------------------------------------------------------------------
# the oracle: what a full rebuild of the indices would produce
# --------------------------------------------------------------------------
def _oracle_indices(arena: NodeArena):
    """The navigation indices rebuilt from scratch with one global stable
    sort per key column — the code path the arena deleted."""

    def grouped(keys):
        rows = np.nonzero(keys >= 0)[0]
        order = rows[np.argsort(keys[rows], kind="stable")]
        return order, keys[order]

    return (
        *grouped(arena.logical_column("parent")),
        *grouped(arena.logical_column("attr_owner")),
        np.nonzero(arena.logical_column("kind") == NK_TEXT)[0],
    )


def assert_indices_match_oracle(arena: NodeArena) -> None:
    none = np.empty(0, dtype=np.int64)
    child_order, _, _ = arena.children_ranges(none)
    attr_order, _, _ = arena.attr_ranges(none)
    got = (
        child_order,
        arena._children.keys.view(),
        attr_order,
        arena._attrs.keys.view(),
        arena.text_rows(),
    )
    for name, mine, full in zip(
        ("child order", "child keys", "attr order", "attr keys", "text rows"),
        got,
        _oracle_indices(arena),
    ):
        assert np.array_equal(mine, full), name


# --------------------------------------------------------------------------
# (1) random operation sequences against an in-memory oracle
# --------------------------------------------------------------------------
DOCS = {
    "a.xml": '<r v="0"><s k="1">base</s><t/></r>',
    "b.xml": "<r><u>one</u><u>two<w/>three</u></r>",
}

#: constructing queries: element (copying a subtree with attributes),
#: text and attribute constructors — each operator builds all of its
#: iterations in one batch, with documents, text runs and empty text in
#: the content
_CONSTRUCT = (
    '<w a="1">{doc("a.xml")/r/*}</w>',
    'for $x in doc("b.xml")/r/* return <c n="{count($x/*)}">{$x}</c>',
    'text {"loose"}',
    'attribute k {"v"}',
    '<e>{attribute z {"9"}, doc("a.xml")/r/@*, "t"}</e>',
    'for $x in (doc("a.xml"), doc("a.xml")//*) return element c { $x/@*, $x, "t" }',
    'for $u in doc("b.xml")//text() return <m>{$u, "x", text {""}, $u}</m>',
)

_UPDATES = (
    'insert node <i a="1">t<j/>u</i> as last into doc("{uri}")/r',
    'insert node <f b="2"/> as first into doc("{uri}")/r',
    'delete nodes doc("{uri}")/r/*[last()]',
    'rename node doc("{uri}")/r/*[1] as "q"',
    'replace value of node doc("{uri}")/r/*[1] with "v2"',
    'insert node attribute n {{"1"}} into doc("{uri}")/r',
    'delete nodes doc("{uri}")/r/@*',
)

_REPLACEMENTS = (
    '<r v="9"><x y="1">new</x></r>',
    "<r/>",
    "<r><p>a<q/>b</p><p c='3'/></r>",
)

_OPS = (
    [f"construct:{i}" for i in range(len(_CONSTRUCT))]
    + ["release", "release-all", "handle"]
    + [f"update:{i}:{uri}" for i in range(len(_UPDATES)) for uri in DOCS]
    + [f"replace:{i}:{uri}" for i in range(len(_REPLACEMENTS)) for uri in DOCS]
    + ["unload:b.xml", "load:b.xml", "checkpoint", "evict", "reopen"]
)


class _Lockstep:
    """A database under test and an in-memory oracle driven in lockstep;
    the oracle drops every result at once, the database under test keeps
    some open across later operations."""

    def __init__(self, mode: str, path: str | None):
        self.mode, self.path = mode, path
        self.oracle = Database()
        self.db = Database(store=path) if path else Database()
        for uri, text in DOCS.items():
            self.oracle.load_document(uri, text)
            self.db.load_document(uri, text)
        if mode == "paged":
            self.db = self._open()
        #: (result or handle, the text it must keep serializing to)
        self.held: list = []

    def _open(self) -> Database:
        budget = TINY_BUDGET if self.mode == "paged" else None
        return Database.open(self.path, page_budget_bytes=budget)

    def step(self, op: str) -> None:
        kind, _, rest = op.partition(":")
        db, oracle = self.db, self.oracle
        if kind == "construct":
            query = _CONSTRUCT[int(rest)]
            try:
                expected = oracle.connect().execute(query).serialize()
            except PathfinderError:  # b.xml is unloaded right now
                with pytest.raises(PathfinderError):
                    db.connect().execute(query)
                return
            result = db.connect().execute(query)
            assert result.serialize() == expected
            self.held.append((result, expected))
        elif kind == "handle" and self.held:
            # swap a held result for one of its node handles: the handle
            # alone must keep the nodes alive
            held, _ = self.held.pop(0)
            values = held.values() if hasattr(held, "values") else []
            nodes = [v for v in values if hasattr(v, "serialize")]
            if nodes:
                self.held.append((nodes[0], nodes[0].serialize()))
        elif kind == "release" and self.held:
            held, _ = self.held.pop(0)
            if hasattr(held, "close"):
                held.close()
        elif kind == "release-all":
            self.held.clear()
        elif kind == "update":
            index, uri = rest.split(":")
            script = _UPDATES[int(index)].format(uri=uri)
            assert _apply(db, script) == _apply(oracle, script), script
        elif kind == "replace":
            index, uri = rest.split(":")
            for target in (db, oracle):
                target.load_document(uri, _REPLACEMENTS[int(index)], replace=True)
        elif kind == "unload" and rest in db.documents:
            for target in (db, oracle):
                target.unload_document(rest)
        elif kind == "load" and rest not in db.documents:
            for target in (db, oracle):
                target.load_document(rest, DOCS[rest])
        elif kind == "checkpoint" and self.path:
            db.checkpoint()
        elif kind == "evict" and self.mode == "paged":
            db.arena.pager.evict_all()
        elif kind == "reopen" and self.path:
            self.held.clear()  # results do not survive their database
            self.db = self._open()

    def check(self, op: str) -> None:
        db, oracle = self.db, self.oracle
        assert_indices_match_oracle(db.arena)
        assert sorted(db.documents) == sorted(oracle.documents), op
        for uri in db.documents:
            text = _text(db, uri)
            assert text == _text(oracle, uri), (op, uri)
            rebuilt = Database()
            rebuilt.load_document(uri, text)
            assert _text(rebuilt, uri) == text, (op, uri)
        for held, expected in self.held:
            assert held.serialize() == expected, op
        report = db.arena_report()
        assert report["dead_persistent_rows"] >= 0, op
        assert report["rows"] == db.arena.num_nodes
        if not self.held:
            assert report["live_leases"] == 0, op
            assert report["transient_rows"] == 0, op


@pytest.mark.parametrize("mode", ["memory", "store", "paged"])
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(ops=st.lists(st.sampled_from(_OPS), min_size=1, max_size=14))
def test_random_sequences_keep_indices_and_documents(mode, ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = None if mode == "memory" else os.path.join(tmp, "db.pfstore")
        lockstep = _Lockstep(mode, path)
        lockstep.check("setup")
        for op in ops:
            lockstep.step(op)
            lockstep.check(op)
        lockstep.held.clear()
        lockstep.check("released")


# --------------------------------------------------------------------------
# (2) a long-lived session does not grow and does not drift
# --------------------------------------------------------------------------
def test_xmark_queries_repeat_byte_identical_at_the_watermark():
    session = connect()
    session.database.load_document(
        "auction.xml", generate_document(0.0005, seed=3)
    )
    arena = session.database.arena
    watermark = arena.num_nodes
    first = {}
    for _ in range(10):
        for name, query in XMARK_QUERIES.items():
            text = session.execute(query).serialize()
            assert first.setdefault(name, text) == text, name
            # the result was dropped: its constructed nodes are gone
            assert arena.num_nodes == watermark, name
    assert arena.lifetime_report()["live_leases"] == 0
    assert_indices_match_oracle(arena)


# --------------------------------------------------------------------------
# (3) leases across threads
# --------------------------------------------------------------------------
def test_no_pop_under_an_open_lease_then_exactly_one():
    session = connect()
    database = session.database
    database.load_document("d.xml", "<r><a>1</a><a>2</a><a>3</a></r>")
    arena = database.arena
    watermark = arena.num_nodes
    held = session.execute("for $a in /r/a return <h>{$a}</h>")
    expected = "<h><a>1</a></h><h><a>2</a></h><h><a>3</a></h>"
    pops = arena.pops
    errors: list = []

    def construct():
        mine = database.connect()
        try:
            for _ in range(30):
                text = mine.execute("for $a in /r/a return <c>{$a/text()}</c>").serialize()
                assert text == "<c>1</c><c>2</c><c>3</c>"
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=construct) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert arena.pops == pops  # nothing was popped under the held result
    assert arena.num_nodes > watermark
    assert held.serialize() == expected
    held.close()
    assert arena.pops == pops + 1
    assert arena.num_nodes == watermark
    assert_indices_match_oracle(arena)


# --------------------------------------------------------------------------
# (4) handles and typed use-after-close
# --------------------------------------------------------------------------
def test_node_handle_outlives_its_result():
    session = connect()
    session.database.load_document("d.xml", "<r><a>1</a></r>")
    arena = session.database.arena
    watermark = arena.num_nodes
    handle = session.execute("<k>{/r/a}</k>").values()[0]
    # the QueryResult is gone; the handle alone holds the lease
    assert arena.lifetime_report()["live_leases"] == 1
    session.execute("<other/>").serialize()
    assert handle.serialize() == "<k><a>1</a></k>"
    assert handle.string_value() == "1"
    del handle
    assert arena.num_nodes == watermark


def test_use_after_close_is_a_typed_error():
    session = connect()
    session.database.load_document("d.xml", "<r><a>1</a></r>")
    with session.execute("<k>{/r/a}</k>") as result:
        handle = result.values()[0]
        assert handle.serialize() == "<k><a>1</a></k>"
    assert result.closed
    with pytest.raises(ResultClosedError):
        result.serialize()
    with pytest.raises(ResultClosedError):
        list(result)
    with pytest.raises(ResultClosedError):
        handle.serialize()
    with pytest.raises(ResultClosedError):
        handle.string_value()
    assert issubclass(ResultClosedError, PathfinderError)
    assert len(result) == 1  # the table itself is still there

    cached = session.execute("<k>{/r/a}</k>")
    text = cached.serialize()
    cached.close()
    assert cached.serialize() == text  # already cached: no arena read
    assert "".join(cached.iter_serialized()) == text


def test_atomic_results_hold_no_lease():
    session = connect()
    session.database.load_document("d.xml", "<r><a>1</a><a>2</a></r>")
    result = session.execute("count(<x>{/r/a}</x>/a)")
    assert session.database.arena.lifetime_report()["live_leases"] == 0
    assert result.serialize() == "2"


def test_leaseless_evaluate_is_valid_until_the_next_pop():
    """Bare ``evaluate()`` (what ``perf/layers.py`` drives) takes no
    lease: the table serializes until some lease closes last."""
    session = connect()
    database = session.database
    database.load_document("d.xml", "<r><a>1</a></r>")
    plan = session.prepare("<k>{/r/a}</k>").plan
    table = evaluate(plan, EvalContext(database.arena, documents=database.documents))
    watermark = database.arena.persistent_rows
    assert database.arena.num_nodes > watermark
    assert "".join(iter_serialized_chunks(table, database.arena)) == "<k><a>1</a></k>"
    # the serializer's own scope was the last live lease: popped now
    assert database.arena.num_nodes == watermark


# --------------------------------------------------------------------------
# (5) updates reclaim the copy they supersede
# --------------------------------------------------------------------------
def _twenty_updates(database: Database) -> None:
    session = database.connect()
    for i in range(20):
        session.execute_update(
            f'insert node <n i="{i}">t</n> as last into /site/regions'
        )
        assert session.execute("count(/site/regions/n)").serialize() == str(i + 1)


def _live_nodes(database: Database) -> int:
    return sum(
        database.arena.subtree_nodes(root) for root in database.documents.values()
    )


def test_twenty_updates_in_memory_stay_under_two_copies():
    database = Database()
    database.load_document("auction.xml", generate_document(0.0005, seed=5))
    _twenty_updates(database)
    assert database.arena.num_nodes <= 2 * _live_nodes(database)
    assert database.arena_report()["dead_persistent_rows"] == 0
    assert_indices_match_oracle(database.arena)


def test_queries_and_updates_build_no_reference_cycles():
    """Compiling (loop-lifting scopes), executing and updating (the
    arena's splice) free what they allocate when it is dropped, not when
    the cyclic garbage collector next happens to run — which is later the
    less the rest of the program allocates."""
    text = generate_document(0.0005, seed=5)

    def work():
        database = Database()
        database.load_document("auction.xml", text)
        session = database.connect()
        for name in sorted(XMARK_QUERIES):
            session.execute(XMARK_QUERIES[name]).serialize()
        _twenty_updates(database)

    def ours(obj) -> bool:
        module = obj.__module__ if isinstance(obj, types.FunctionType) else (
            type(obj).__module__
        )
        return (module or "").startswith("repro")

    work()  # libraries may build cyclic state once, on first use
    gc.collect()
    gc.disable()
    try:
        work()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage if ours(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not leaked


@pytest.mark.parametrize("budget", [None, TINY_BUDGET])
def test_twenty_updates_store_backed_across_a_reopen(tmp_path, budget):
    path = str(tmp_path / "db.pfstore")
    seed = Database(store=path)
    seed.load_document("auction.xml", generate_document(0.0005, seed=5))
    database = Database.open(path, page_budget_bytes=budget)
    _twenty_updates(database)
    assert database.arena.num_nodes <= 2 * _live_nodes(database)
    text = _text(database, "auction.xml")
    # reopen replays 20 WAL records: each replayed copy settles too
    reopened = Database.open(path, page_budget_bytes=budget)
    assert reopened.arena.num_nodes <= 2 * _live_nodes(reopened)
    assert _text(reopened, "auction.xml") == text
    assert_indices_match_oracle(reopened.arena)


def test_a_held_result_defers_the_reclaim():
    session = connect()
    database = session.database
    database.load_document("d.xml", "<r><a>1</a></r>")
    held = session.execute("/r/a")  # references the document's own rows
    session.execute_update("insert node <b/> into /r")
    assert database.arena_report()["dead_persistent_rows"] > 0
    assert held.serialize() == "<a>1</a>"  # the old copy is still there
    del held
    session.execute_update("insert node <c/> into /r")  # nobody holds it now
    assert database.arena_report()["dead_persistent_rows"] == 0
    assert database.arena.num_nodes == _live_nodes(database)
    assert _text(database, "d.xml") == "<r><a>1</a><b/><c/></r>"


# --------------------------------------------------------------------------
# (6) index work is linear in the rows appended
# --------------------------------------------------------------------------
def test_index_work_is_linear_in_constructed_rows():
    arena = NodeArena()
    root = shred_text(arena, generate_document(0.0005, seed=1))
    name = arena.pool.intern("e")
    leaf = int(np.nonzero(arena.attr_owner >= 0)[0][0])
    source = int(arena.attr_owner[leaf])  # an element carrying an attribute
    arena.attrs_in_span(root, root + 1)  # index the document once
    none = np.empty(0, dtype=np.int64)
    arena.children_ranges(none)
    sorted_before, nodes_before, attrs_before = (
        arena.index_sorted, arena.num_nodes, arena.num_attrs,
    )
    for _ in range(2000):
        arena.new_element(name, [], [("copy", source)])
        arena.children_ranges(none)  # force all three indices every time
        arena.text_rows()
    appended = (arena.num_nodes - nodes_before) + (arena.num_attrs - attrs_before)
    # every appended row is sorted at most once, in its own tail — a
    # global re-sort would be ~2000 × the document
    assert arena.index_sorted - sorted_before <= appended
    assert_indices_match_oracle(arena)


# --------------------------------------------------------------------------
# batch string values and the cache that must not outlive its rows
# --------------------------------------------------------------------------
def test_batch_string_values_match_the_per_node_definition():
    arena = NodeArena()
    shred_text(
        arena,
        "<r><a>one</a><b>x<c>y</c>z</b><d/><!--note--><?pi data?>tail</r>",
    )
    nodes = np.arange(arena.num_nodes, dtype=np.int64)

    def definition(node: int) -> str:
        kind = int(arena.kind[node])
        if kind in (2, 3, 4):  # text, comment, PI carry their own value
            return arena.pool.value(int(arena.value[node]))
        span = range(node + 1, node + int(arena.size[node]) + 1)
        return "".join(
            arena.pool.value(int(arena.value[r]))
            for r in span
            if int(arena.kind[r]) == NK_TEXT
        )

    got = arena.pool.values(arena.string_value_ids(nodes))
    assert got == [definition(int(n)) for n in nodes]
    assert arena.pool.value(arena.string_value_id(0)) == "onexyztail"


def test_string_value_cache_entries_go_with_their_rows():
    database = Database()
    database.load_document("d.xml", "<r><m>a<i/>b</m></r>")
    session = database.connect()
    assert session.execute("string(/r/m)").serialize() == "ab"
    assert database.arena._strvalue_cache  # the multi-text <m> is cached
    session.execute_update('replace value of node /r/m with "fresh"')
    # the old copy was popped and the new one sits on the same rows
    assert all(row < database.arena.num_nodes for row in database.arena._strvalue_cache)
    assert session.execute("string(/r/m)").serialize() == "fresh"
    # constructed (transient) multi-text nodes are never cached
    before = dict(database.arena._strvalue_cache)
    assert session.execute("string(<m>{/r/m/text()}<i/>more</m>)").serialize() == "freshmore"
    assert database.arena._strvalue_cache == before
