"""Plan-equivalence corpus: every optimizer pass preserves semantics.

Runs a corpus of XMark and regression queries in three optimizer
configurations — fully on, each rewrite pass individually disabled, and
fully off — and asserts identical serialized results.  This is the guard
rail for every new rewrite: a pass that changes any query's output at
any configuration fails here, including order-sensitive differences
(serialization fixes the sequence order).

The same corpus also runs, fully optimized, under the other session
modes: without the compiler's loop-lifting join recognition (a different
plan shape for every equi-join ``where``) and with the tree-unaware
naive axis steps instead of the staircase kernels (the same plan on a
different evaluator path).  Neither may change an answer.
"""

from __future__ import annotations

import pytest

from repro.api.database import Database
from repro.relational.optimizer import PASS_NAMES
from repro.xmark import XMARK_QUERIES, generate_document

#: regression queries exercising plan shapes the XMark set misses
REGRESSION_QUERIES = {
    "positional-predicate": "/site/a[2]/text()",
    "where-eq": 'for $a in /site/a where $a/@i = "z" return $a',
    "where-range": "for $v in (1,2,3,4,5) where $v >= 2 return $v * 10",
    "nested-flwor": (
        "for $a in /site/a for $b in /site/b "
        'where $a/@i = "z" return ($a/text(), $b/text())'
    ),
    "quantifier": "some $a in /site//a satisfies $a = '2'",
    "order-by": "for $a in /site//a order by $a descending return $a/text()",
    "if-else": "for $v in (1,2,3) return if ($v > 1) then $v else -$v",
    "distinct-values": "distinct-values(/site//a)",
    "count-filter": "count(/site//a[. >= '2'])",
    "constructor": '<r>{ for $a in /site/a return <x v="{$a/@i}">{$a/text()}</x> }</r>',
    "union-paths": "(/site/a, /site/b)",
    "empty-where": "for $a in /site/a where empty($a/@q) return $a/text()",
}

REGRESSION_XML = (
    '<site><a i="z">1</a><a>2</a><b f="q">x</b>'
    "<nest><a>3</a><deep><a>4</a></deep></nest></site>"
)

#: every configuration under test: the full pipeline, each pass knocked
#: out individually, and the optimizer fully off
CONFIGS = [("all", frozenset())] + [
    (f"no-{name}", frozenset({name})) for name in PASS_NAMES
]

#: the session modes besides the pass list, each with the full optimizer
MODE_CONFIGS = [
    ("no-join-recognition", {"use_join_recognition": False}),
    ("naive-steps", {"use_staircase": False}),
]


@pytest.fixture(scope="module")
def xmark_db():
    db = Database()
    db.load_document("auction.xml", generate_document(0.0005, seed=7))
    return db


@pytest.fixture(scope="module")
def small_db():
    db = Database()
    db.load_document("doc.xml", REGRESSION_XML)
    return db


def _run(
    db: Database,
    query: str,
    disabled: frozenset,
    optimizer: bool = True,
    **options,
) -> str:
    session = db.connect(use_optimizer=optimizer, disabled_passes=disabled, **options)
    return session.execute(query).serialize()


@pytest.mark.parametrize("query", sorted(XMARK_QUERIES))
def test_xmark_equivalence(xmark_db, query):
    text = XMARK_QUERIES[query]
    reference = _run(xmark_db, text, frozenset(), optimizer=False)
    for label, disabled in CONFIGS:
        assert _run(xmark_db, text, disabled) == reference, (
            f"{query} differs with optimizer config {label}"
        )


@pytest.mark.parametrize("query", sorted(REGRESSION_QUERIES))
def test_regression_equivalence(small_db, query):
    text = REGRESSION_QUERIES[query]
    reference = _run(small_db, text, frozenset(), optimizer=False)
    for label, disabled in CONFIGS:
        assert _run(small_db, text, disabled) == reference, (
            f"{query} differs with optimizer config {label}"
        )


@pytest.mark.parametrize("query", sorted(XMARK_QUERIES))
def test_xmark_mode_equivalence(xmark_db, query):
    text = XMARK_QUERIES[query]
    reference = _run(xmark_db, text, frozenset(), optimizer=False)
    for label, options in MODE_CONFIGS:
        assert _run(xmark_db, text, frozenset(), **options) == reference, (
            f"{query} differs in session mode {label}"
        )


@pytest.mark.parametrize("query", sorted(REGRESSION_QUERIES))
def test_regression_mode_equivalence(small_db, query):
    text = REGRESSION_QUERIES[query]
    reference = _run(small_db, text, frozenset(), optimizer=False)
    for label, options in MODE_CONFIGS:
        assert _run(small_db, text, frozenset(), **options) == reference, (
            f"{query} differs in session mode {label}"
        )
