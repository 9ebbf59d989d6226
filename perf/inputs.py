"""Seeded inputs: documents, query lists, request and update sequences.

Everything a workload feeds the program under test is derived from
``--seed`` here — the same seed gives the same documents, the same
request order and the same updates.  The sizes come from a probe on the
2-core box the benchmark was written on (see ``perf/README.md``).
"""

from __future__ import annotations

import random

from repro.xmark import XMARK_QUERIES, generate_document
from repro.xmark.xmlgen import scaled_counts

#: XMark scale factor per workload (``--smoke`` replaces all by SMOKE_SCALE)
SCALES = {
    "xmark-cold": 0.005,  # ~10k nodes: compiling costs more than executing
    "xmark-prepared": 0.02,  # ~42k nodes: execution dominates
    "serve-single": 0.005,  # per catalog document (4 documents)
    "serve-cluster": 0.005,
    "store-update": 0.005,
}
SMOKE_SCALE = 0.0005

#: one pass of both xmark workloads: every query but Q10
XMARK_PASS = tuple(f"Q{i}" for i in range(1, 21) if i != 10)
#: Q10 (grouping, constructor-bound, roughly quadratic) is as long as the
#: 19 others together at the cold scale and 7.7 s at the prepared one, and
#: its cost swings +-13 % with the seed's interest/category draw.
#: ``xmark-cold`` times it after every pass as a kind of its own, so it
#: counts in ``query_geomean_ms`` (one of 20) but not in ``pass_s``
COLD_ALONE = "Q10"

SERVE_DOCS = 4
#: the parameterised query binds one of the first 32 persons of a document:
#: 128 distinct requests for the library to answer when it checks a run
SERVE_PERSONS = 32
#: requests of one client whose wall time is one ``pass_s`` sample
SERVE_BLOCK = 40
SERVE_CHEAP = ("Q1", "Q5", "Q6", "Q18")
SERVE_LARGE = "Q17"
SERVE_KINDS = SERVE_CHEAP + ("param", SERVE_LARGE)
PARAM_QUERY = (
    "declare variable $id external; "
    'for $p in doc("{uri}")/site/people/person[@id = $id] '
    'return <hit id="{{$id}}">{{ $p/name/text() }}</hit>'
)

STORE_READS = ("Q1", "Q2", "Q5", "Q6", "Q17", "Q18")
UPDATE_KINDS = ("insert", "replace_value", "delete", "rename")
#: rounds of {1 update + 2 reads}: in one store-update block (checkpoint
#: every 10); at the end of every xmark pass, on the pass's database (taken
#: in turn from a cycle of 8); and at the end of every serve segment.
#: They are why ``update_p50_ms`` and ``read_after_update_p50_ms`` mean
#: the same thing on every workload
STORE_ROUNDS = 20
PASS_ROUNDS = 2
ROUND_CYCLE = 8
SEGMENT_ROUNDS = 8


def scale_for(workload: str, smoke: bool) -> float:
    return SMOKE_SCALE if smoke else SCALES[workload]


def xmark_queries(workload: str) -> tuple[str, ...]:
    """Every query an xmark workload times and checks."""
    return XMARK_PASS + ((COLD_ALONE,) if workload == "xmark-cold" else ())


def document(scale: float, seed: int) -> str:
    return generate_document(scale, seed=seed)


def serve_uri(k: int) -> str:
    return f"auction-{k}.xml"


def on_document(query_name: str, uri: str) -> str:
    """An XMark query rewritten to name its document explicitly."""
    return XMARK_QUERIES[query_name].replace("/site", f'doc("{uri}")/site')


def request_stream(seed: int, client: int, scale: float):
    """The endless request sequence of one closed-loop client: tuples
    ``(kind, query text, bindings)``.  Every ``SERVE_BLOCK`` consecutive
    requests hold exactly 70 % cheap reads (each of the four equally
    often), 20 % one parameterised query with per-request bindings and
    10 % large-body Q17, in seeded order on seeded documents — so a block
    is the same amount of work wherever it falls."""
    rng = random.Random(f"{seed}:client{client}")
    people = min(SERVE_PERSONS, scaled_counts(scale).people)
    block = (
        list(SERVE_CHEAP) * (SERVE_BLOCK * 7 // 10 // len(SERVE_CHEAP))
        + ["param"] * (SERVE_BLOCK * 2 // 10)
        + [SERVE_LARGE] * (SERVE_BLOCK // 10)
    )
    while True:
        rng.shuffle(block)
        for kind in block:
            uri = serve_uri(rng.randrange(SERVE_DOCS))
            if kind == "param":
                person = f"person{rng.randrange(people)}"
                yield kind, PARAM_QUERY.format(uri=uri), {"id": person}
            else:
                yield kind, on_document(kind, uri), None


def update_rounds(seed: int, scale: float, rounds: int,
                  uri: str | None = None) -> list[tuple[str, str]]:
    """``rounds`` updates as ``(kind, update text)``, the four kinds in
    turn.  Targets are distinct and exist at every seed (every person has
    a name, every open auction a bidder, every closed auction a price),
    so no update fails.  ``uri`` names the document explicitly (the
    serve catalog has four)."""
    rng = random.Random(f"{seed}:updates")
    counts = scaled_counts(scale)
    per_kind = -(-rounds // len(UPDATE_KINDS))
    persons = rng.sample(range(1, counts.people + 1), 2 * per_kind)
    opens = rng.sample(range(1, counts.open_auctions + 1), per_kind)
    closed = rng.sample(range(1, counts.closed_auctions + 1), per_kind)
    site = f'doc("{uri}")/site' if uri else "/site"
    updates = []
    for r in range(rounds):
        kind = UPDATE_KINDS[r % len(UPDATE_KINDS)]
        i = r // len(UPDATE_KINDS)
        if kind == "insert":
            text = (
                f'insert node <watch open="yes"><note>perf {r}</note>'
                f"</watch> into {site}/people/person[{persons[i]}]"
            )
        elif kind == "replace_value":
            price = f"{rng.randint(5, 400)}.{rng.randint(0, 99):02d}"
            text = (
                f"replace value of node {site}/closed_auctions/"
                f'closed_auction[{closed[i]}]/price with "{price}"'
            )
        elif kind == "delete":
            text = (
                f"delete node {site}/open_auctions/"
                f"open_auction[{opens[i]}]/bidder[1]"
            )
        else:
            text = (
                f"rename node {site}/people/person[{persons[per_kind + i]}]"
                '/name as "fullname"'
            )
        updates.append((kind, text))
    return updates


def round_reads(rounds: int) -> list[tuple[str, str]]:
    """Two read queries per round, cycling through STORE_READS — the same
    schedule at every seed: which rounds read Q2, which slows as the
    arena grows, decides what the rounds cost."""
    n = len(STORE_READS)
    return [
        (STORE_READS[2 * r % n], STORE_READS[(2 * r + 1) % n])
        for r in range(rounds)
    ]
