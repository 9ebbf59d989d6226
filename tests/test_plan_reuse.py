"""Plan reuse across updates is exact.

A cached plan reads its documents through ``DocRoot`` leaves resolved at
run time, so it stays valid while every document it reads is loaded
(:mod:`repro.api.plan_cache`) — updates do not recompile it, and no plan
depends on how large a document is (checked first, on every XMark
query at two scales).  These tests run seeded rounds of the four update kinds
(insert, replace value, delete, rename) on an XMark document and check,
after every update, that each read served from the cache returns bytes
identical to two references:

* a fresh plan from :meth:`Database.compile_query` (no cache) on the
  same database, and
* a new in-memory database rebuilt from the serialized document and
  queried with unoptimized plans,

in three setups: in memory, on a paged store whose budget is a quarter
of the fragment bytes, and on a store reopened with a WAL tail to
replay.  The reads are first compiled one-shot (stage 1) and upgraded on
their first reuse, in the first round; a separate test holds every XMark
upgrade to the plan and statistics of a one-step compile.  The updates add names the document never had before (element,
attribute and rename targets), so a cached plan whose name tests were
resolved at compile time would be caught answering from stale ids.
"""

from __future__ import annotations

import random

import pytest

from repro.api.database import Database
from repro.api.prepared import PreparedQuery
from repro.relational import algebra as alg
from repro.relational.dot import to_ascii
from repro.xmark import XMARK_QUERIES, generate_document
from repro.xmark.xmlgen import scaled_counts
from repro.xml.serializer import serialize_node

SCALE = 0.001  # ~2 000 nodes: the update targets below all exist at it
SEED = 11
URI = "auction.xml"
#: updates per setup (three of each kind), each followed by every read
ROUNDS = 12
#: updates applied before the reopen of the replay setup (left in the WAL)
REPLAYED = 8
KINDS = ("insert", "replace_value", "delete", "rename")

READS = {
    name: XMARK_QUERIES[name] for name in ("Q1", "Q2", "Q5", "Q8", "Q17", "Q18")
} | {
    # names the updates introduce: absent from the pool at compile time
    "pinned": "for $p in //pinned return string($p/@tag)",
    "memo": "count(//memo), //memo/text()",
    "fullname": "count(//fullname), //person[fullname]/@id",
    "prices": "sum(/site/closed_auctions/closed_auction/price)",
}
#: the query a PreparedQuery is held for across every update
HELD = "held"
READS[HELD] = (
    "for $p in /site/people/person "
    "return <p id='{$p/@id}' n='{count($p/*)}'>{$p/(name | fullname)/text()}</p>"
)

_compile_query = Database.compile_query


def _updates(seed: int, rounds: int) -> list[tuple[str, str]]:
    """``(kind, text)`` updates, the four kinds in turn, on distinct
    targets that exist at :data:`SCALE`."""
    rng = random.Random(seed)
    counts = scaled_counts(SCALE)
    per_kind = -(-rounds // len(KINDS))
    persons = rng.sample(range(1, counts.people + 1), 2 * per_kind)
    opens = rng.sample(range(1, counts.open_auctions + 1), per_kind)
    closed = rng.sample(range(1, counts.closed_auctions + 1), per_kind)
    updates = []
    for r in range(rounds):
        kind, i = KINDS[r % len(KINDS)], r // len(KINDS)
        if kind == "insert":
            text = (
                f'insert node <pinned tag="t{seed}-{r}"><memo>m{r}</memo>'
                f"</pinned> into /site/people/person[{persons[i]}]"
            )
        elif kind == "replace_value":
            price = f"{rng.randint(5, 400)}.{rng.randint(0, 99):02d}"
            text = (
                "replace value of node /site/closed_auctions/"
                f'closed_auction[{closed[i]}]/price with "{price}"'
            )
        elif kind == "delete":
            text = f"delete node /site/open_auctions/open_auction[{opens[i]}]/bidder[1]"
        else:
            text = (
                f"rename node /site/people/person[{persons[per_kind + i]}]"
                '/name as "fullname"'
            )
        updates.append((kind, text))
    return updates


#: one sequence on distinct targets: the replay setup logs the first
#: REPLAYED before its reopen, every setup then checks the ROUNDS after
#: them, and a held PreparedQuery sees all twenty
UPDATES = _updates(SEED, REPLAYED + ROUNDS)


@pytest.fixture
def compiles(monkeypatch):
    """``compiles(database)``: the texts of every cache-filling
    compilation on ``database`` so far, in order."""
    calls: list[tuple[Database, str]] = []

    def counting(self, query, *args, **kwargs):
        calls.append((self, query))
        return _compile_query(self, query, *args, **kwargs)

    monkeypatch.setattr(Database, "compile_query", counting)
    return lambda database: [q for db, q in calls if db is database]


def _fresh(session, text: str) -> str:
    """The answer of a fresh, uncached plan on the same database."""
    entry = _compile_query(session.database, text, use_optimizer=True)
    with PreparedQuery(session, entry, from_cache=False).execute() as result:
        return result.serialize()


def _rebuilt_answers(database: Database) -> dict[str, str]:
    """Every read on a new in-memory database holding the serialized
    document — nothing the updates left in the arena can leak in — with
    unoptimized plans, so no rewrite is shared with the cached plans."""
    with database.read_locked():
        text = serialize_node(database.arena, database.documents[URI])
    fresh = Database()
    fresh.load_document(URI, text)
    session = fresh.connect(use_optimizer=False)
    return {name: session.execute(q).serialize() for name, q in READS.items()}


def _in_memory(tmp_path) -> Database:
    database = Database()
    database.load_document(URI, generate_document(SCALE, seed=SEED))
    return database


def _paged(tmp_path) -> Database:
    path = str(tmp_path / "store")
    database = Database(store=path)
    database.load_document(URI, generate_document(SCALE, seed=SEED))
    database.checkpoint()
    budget = database.store_status()["fragment_bytes"] // 4
    del database
    return Database.open(path, page_budget_bytes=budget)


def _replayed(tmp_path) -> Database:
    path = str(tmp_path / "store")
    database = Database(store=path, checkpoint_wal_bytes=None)
    database.load_document(URI, generate_document(SCALE, seed=SEED))
    session = database.connect()
    for _kind, text in UPDATES[:REPLAYED]:
        session.execute_update(text)
    del session, database
    reopened = Database.open(path, checkpoint_wal_bytes=None)
    assert reopened.store_status()["replayed_deltas"] == REPLAYED
    return reopened


def test_plans_do_not_depend_on_document_size():
    """The premise of plan reuse across updates: every XMark plan is
    byte-identical when compiled against a tenfold larger document."""
    plans = []
    for scale in (0.0005, 0.005):
        database = Database()
        database.load_document(URI, generate_document(scale, seed=SEED))
        session = database.connect()
        plans.append(
            {name: session.explain(q).plan_ascii for name, q in XMARK_QUERIES.items()}
        )
    small, large = plans
    for name in XMARK_QUERIES:
        assert small[name] == large[name], name


def test_upgrade_of_the_stage_one_plan_is_the_one_step_plan():
    """A one-shot compile runs the local rules only; its upgrade on reuse
    must be exactly the plan — and the statistics, bar seconds — of
    compiling the text in one step, for every XMark query."""
    database = Database()
    database.load_document(URI, generate_document(0.0005, seed=SEED))

    def counts(stats):
        return (
            stats.ops_before,
            stats.ops_after,
            stats.passes,
            [
                (p.name, p.runs, p.rewrites, p.ops_before, p.ops_after, p.est_rows)
                for p in stats.pass_stats
            ],
        )

    for name, query in XMARK_QUERIES.items():
        stage1 = _compile_query(database, query, True, one_shot=True)
        assert not stage1.final and stage1.stats.estimated_rows is None, name
        upgraded = database.upgrade_plan(stage1)
        one_step = _compile_query(database, query, True)
        assert upgraded.final and one_step.final, name
        assert to_ascii(upgraded.plan) == to_ascii(one_step.plan), name
        assert alg.op_count(upgraded.plan) == alg.op_count(one_step.plan), name
        assert counts(upgraded.stats) == counts(one_step.stats), name
        assert upgraded.compile_seconds > stage1.compile_seconds, name


SETUPS = {"in-memory": _in_memory, "paged": _paged, "replayed": _replayed}


@pytest.mark.parametrize("setup", list(SETUPS))
def test_cached_reads_match_fresh_plans_after_every_update(setup, tmp_path, compiles):
    database = SETUPS[setup](tmp_path)
    session = database.connect()
    for text in READS.values():
        session.execute(text).close()
    held = session.prepare(READS[HELD])
    assert held.from_cache
    assert len(compiles(database)) == len(READS)

    for r, (kind, text) in enumerate(UPDATES[REPLAYED:]):
        applied = session.execute_update(text)["applied"]
        assert applied == {kind: 1}, (r, text)
        rebuilt = _rebuilt_answers(database)
        for name, query in READS.items():
            if name == HELD:
                result = held.execute()
            else:
                result = session.execute(query)
            with result:
                got = result.serialize()
                assert result.from_cache, (r, name)
            assert got == rebuilt[name], (setup, r, kind, name)
            assert got == _fresh(session, query), (setup, r, kind, name)

    assert len(compiles(database)) == len(READS)  # not one recompile
    assert database.plan_cache.stats.invalidations == 0


def test_held_prepared_query_never_recompiles(tmp_path, compiles):
    database = _in_memory(tmp_path)
    session = database.connect()
    session.prepare(READS[HELD])
    held = session.prepare(READS[HELD])
    before = held.execute().serialize()
    for _kind, text in UPDATES:
        session.execute_update(text)
        with held.execute() as result:
            assert result.from_cache
            answer = result.serialize()
        assert answer == _fresh(session, READS[HELD])
    assert answer != before  # the renames and inserts show in the answer
    assert compiles(database) == [READS[HELD]]
    assert held.from_cache and session.stats.plan_cache_misses == 1
