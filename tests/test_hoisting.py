"""Dependency-scoped loop-lifting: hoisting is exact and keeps plans small.

The compiler evaluates every sub-expression in the outermost scope that
binds its free variables (``compiler/loop_lifting.py``).  These tests
hold that mechanism against the nested-loop baseline interpreter:

* hoisted expressions raise exactly the errors nested loops raise — none
  for iterations that never reach the consumer (the consumer
  restriction), the same ``err:`` code when they do;
* context-dependent expressions (``.``, relative paths, zero-argument
  ``position()``/``last()``/``string()``) are never mistaken for
  loop-invariant ones;
* generated nested FLWORs whose parts ignore, half-use or fully use the
  outer variable agree in every optimizer mode;
* timing-free complexity checks: XMark Q11's path steps see one context
  row per person or per auction, never one per (person, auction) pair;
  the θ-join of Q11/Q12 outputs its matches, not the product; and no
  ``//`` of the corpus is a ``descendant-or-self`` step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.database import Database
from repro.baseline import Interpreter
from repro.encoding.axes import Axis
from repro.errors import PathfinderError
from repro.relational import algebra as alg
from repro.relational import evaluate as ev
from repro.xmark import XMARK_QUERIES, generate_document
from repro.xquery.core import desugar_module
from repro.xquery.parser import parse_query
from tests.conftest import run_plan

DOC = (
    '<a><b m="1"><c k="1">x</c><c k="2">y</c></b>'
    '<b m="2"><c k="2">z</c></b></a>'
)

#: numeric texts, for generated queries that compute with them — plus a
#: non-numeric ``@n`` and a ``NaN`` text, which compare false except by ``!=``
NUM_DOC = (
    '<a><b m="1" n="20"><c k="1">10</c><c k="2">20</c></b>'
    '<b m="2" n="15"><c k="2">30</c></b><b m="3" n="5"/>'
    '<b m="4" n="x"><c k="3">NaN</c><c k="1">20</c></b></a>'
)

#: :func:`tests.conftest.run_plan` options of every configuration a query
#: must agree in
CONFIGS = [{}, {"use_optimizer": False}, {"use_join_recognition": False}]


def _db(xml: str) -> Database:
    db = Database()
    db.load_document("d.xml", xml)
    return db


def _outcome(run):
    """The serialized result, or the error's code."""
    try:
        return run()
    except PathfinderError as exc:
        return ("error", exc.code)


def _baseline(db: Database, query: str):
    def run():
        interp = Interpreter(db.arena, db.documents, db.default_document)
        return interp.serialize(interp.execute(desugar_module(parse_query(query))))

    return _outcome(run)


def _numpy(db: Database, query: str, **options):
    return _outcome(lambda: run_plan(db, query, **options))


@pytest.fixture(scope="module")
def db():
    return _db(DOC)


# --------------------------------------------------------------------------
# hoisting preserves errors
# --------------------------------------------------------------------------
#: (query, outcome): a hoisted expression over iterations that never reach
#: its consumer must not raise; over live iterations it raises as usual
ERROR_CASES = [
    # 1 div 0 hoisted out of a loop over an empty range
    ("for $x in () return 1 div 0", ""),
    ('for $x in doc("d.xml")//zz return 1 div 0', ""),
    ("for $x in (1, 2) return 1 div 0", ("error", "err:FOAR0001")),
    # 1 idiv 0 after a where that drops every tuple
    ("for $x in (1, 2) where $x > 5 return 1 idiv 0", ""),
    ("for $x in (1, 2) where $x > 1 return 1 idiv 0", ("error", "err:FOAR0001")),
    # exactly-one(...) in a for with an empty independent range
    (
        "for $p in (1, 2) let $l := for $i in () return exactly-one(1 idiv 0) "
        "return ($p, $l)",
        "1 2",
    ),
    (
        "for $p in (1, 2) let $l := for $i in (7) return exactly-one(1 idiv 0) "
        "return ($p, $l)",
        ("error", "err:FOAR0001"),
    ),
    # an independent range that is itself hoisted, under an empty loop
    (
        'for $p in () return for $i in doc("d.xml")//c return $i/text() idiv 0',
        "",
    ),
    (
        'for $p in (1) return for $i in doc("d.xml")//c return $i/text() idiv 0',
        ("error", "err:FOAR0001"),
    ),
    # 5000 * $i/text() over non-numeric text nodes, empty outer loop
    (
        'for $p in doc("d.xml")//zz let $l := for $i in doc("d.xml")//c '
        "where $p/@m > 5000 * $i/text() return $i return count($l)",
        "",
    ),
    (
        'for $p in doc("d.xml")//b let $l := for $i in doc("d.xml")//c '
        "return 5000 * $i/text() return count($l)",
        "3 3",
    ),
    # the where-side of a recognised join only runs for tuples with partners
    (
        "for $p in (1, 2) return for $i in () where $i = 1 idiv 0 return $i",
        "",
    ),
    (
        "for $p in (1, 2) return for $i in (3) where $i = 1 idiv 0 return $i",
        ("error", "err:FOAR0001"),
    ),
    # a where-filtered loop nested in a conditional branch
    (
        "for $x in (1, 2) return if ($x > 5) then (for $y in (1, 2) return 1 idiv 0) else $x",
        "1 2",
    ),
]


@pytest.mark.parametrize(
    "query, expected", ERROR_CASES, ids=[f"e{i}" for i in range(len(ERROR_CASES))]
)
def test_hoisting_preserves_errors(db, query, expected):
    assert _baseline(db, query) == expected
    for options in CONFIGS:
        assert _numpy(db, query, **options) == expected, options


# --------------------------------------------------------------------------
# context dependence is a free variable
# --------------------------------------------------------------------------
CONTEXT_CASES = [
    ('doc("d.xml")/a/b/(for $x in c where $x/@k = @m return $x/text())', "xz"),
    ('doc("d.xml")/a/b[for $x in c where $x/@k = @m return $x]/@m/string()', "1 2"),
    ('doc("d.xml")/a/b/(for $x in (1, 2) return string())', "xy xy z z"),
    ('doc("d.xml")/a/b/(for $x in (1, 2) return string-length())', "2 2 1 1"),
    ('doc("d.xml")/a/b[1]/c[for $x in (1, 2) return position() = 2]/text()', "y"),
    ('doc("d.xml")/a/b[1]/c[for $x in (1, 2) where $x = last() return .]/@k/string()', "1 2"),
    ('(doc("d.xml")//c)[for $x in (1, 2, 3) where $x = last() return $x = position()]/text()', "z"),
]


@pytest.mark.parametrize(
    "query, expected", CONTEXT_CASES, ids=[f"c{i}" for i in range(len(CONTEXT_CASES))]
)
def test_context_dependent_loops(db, query, expected):
    assert _baseline(db, query) == expected
    for options in CONFIGS:
        assert _numpy(db, query, **options) == expected, options


# --------------------------------------------------------------------------
# nested-FLWOR differential
# --------------------------------------------------------------------------
#: per part of the inner FLWOR: templates that ignore, half-use or fully
#: use the outer variable $a ($b is the inner variable, $pb its position)
_RANGES = [
    'doc("d.xml")//c',
    'doc("d.xml")//b',
    'doc("d.xml")/a/zz',
    'doc("d.xml")//c[@k = $a/@m]',
    "($a/c, doc(\"d.xml\")/a/b[1]/c)",
    "$a/c",
    "$a/following-sibling::b/c",
]
_LETS = [
    "string($b/@k)",
    "concat($b/@k, '-', $a/@m)",
    "string($a/@m)",
    "count(doc(\"d.xml\")//c[@k = $a/@m])",
]
_WHERES = [
    None,
    "$b/@k != '3'",
    "$b/@k = $a/@m",
    "$a/@m = $b/@k and $b/text() != '20'",
    "$b/text() > $a/@n",
    "$a/@n > 2 * $b/text()",
    # θ-joins: every ordering comparison, and != between values
    "$b/text() < $a/@n",
    "$b/text() <= $a/@n",
    "$a/@n >= $b/text()",
    "$b/text() != $a/@n",
    "$b/@k < $a/@m",
    # string-valued on both sides
    "string($b/@k) >= string($a/@m)",
    "concat($b/text(), 'x') < $a/@n",
    # multi-valued sides
    "$b/c/text() > $a/@n",
    "$a/c/text() <= $b/text()",
    "$b/c/@k != $a/c/@k",
    "$a/@m != '2'",
    "$pb > 1",
]
_ORDERS = [None, "$b/text() descending", "concat($a/@m, $b/text())", "$a/@m"]
_RETURNS = [
    "$b/text()",
    "($a/@m/string(), $b/text())",
    "string($a/@m)",
    '<r k="{$b/@k}">{$a/@m/string()}</r>',
    "($pb, $t)",
]
_OUTER_RANGES = ['doc("d.xml")/a/b', 'doc("d.xml")/a/b[@m != "2"]', 'doc("d.xml")/a/zz']
_OUTER_RETURNS = [
    "($a/@m/string(), count($l))",
    "<o>{ $l }</o>",
    "$l",
    "sum(for $v in $l return string-length(string($v)))",
]


@st.composite
def _nested_flwor(draw):
    where = draw(st.sampled_from(_WHERES))
    order = draw(st.sampled_from(_ORDERS))
    second = draw(st.sampled_from([None] + _RANGES))
    inner = f"for $b at $pb in {draw(st.sampled_from(_RANGES))} "
    if second is not None:
        inner += f"for $e in {second} "
    inner += f"let $t := {draw(st.sampled_from(_LETS))} "
    if where is not None:
        inner += f"where {where} "
    if order is not None:
        inner += f"order by {order} "
    inner += f"return {draw(st.sampled_from(_RETURNS))}"
    outer_let = draw(st.sampled_from(["", "let $n := count($a/c) "]))
    return (
        f"for $a in {draw(st.sampled_from(_OUTER_RANGES))} {outer_let}"
        f"let $l := {inner} "
        f"return {draw(st.sampled_from(_OUTER_RETURNS))}"
    )


_NUM_DB = _db(NUM_DOC)


@settings(max_examples=60, deadline=None)
@given(_nested_flwor())
def test_nested_flwor_differential(query):
    expected = _baseline(_NUM_DB, query)
    for options in CONFIGS:
        assert _numpy(_NUM_DB, query, **options) == expected, (query, options)


# --------------------------------------------------------------------------
# complexity: no intermediate as large as the product
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def auction():
    """A database over the seed-42 XMark instance at scale 0.02, with its
    person and open-auction ``initial`` counts."""
    db = Database()
    db.load_document("auction.xml", generate_document(0.02, seed=42))
    session = db.connect()
    persons = int(session.execute("count(/site/people/person)").serialize())
    initials = int(
        session.execute("count(/site/open_auctions/open_auction/initial)").serialize()
    )
    return db, persons, initials


def _outputs(monkeypatch, session, query: str) -> list:
    """(operator, input tables, output rows) of every operator the
    evaluator runs for ``query``."""
    seen = []
    dispatch = ev._dispatch

    def counting(node, inputs, ctx):
        out = dispatch(node, inputs, ctx)
        seen.append((node, inputs, out.num_rows))
        return out

    monkeypatch.setattr(ev, "_dispatch", counting)
    session.execute(query).serialize()
    monkeypatch.undo()
    return seen


def test_q11_steps_see_no_product(monkeypatch, auction):
    """XMark Q11 at scale 0.02: the inner range and ``$i/text()`` are
    stepped once per auction and ``$p/profile/@income`` once per person —
    no staircase join ever receives |person| × |initial| context rows."""
    db, persons, initials = auction
    seen = _outputs(monkeypatch, db.connect(), XMARK_QUERIES["Q11"])
    widest = [inputs[0].num_rows for node, inputs, _ in seen if isinstance(node, alg.StepJoin)]
    assert widest and max(widest) <= max(persons, initials)
    assert persons * initials > 100 * max(persons, initials)


@pytest.mark.parametrize("name", ["Q11", "Q12"])
def test_theta_join_builds_no_product(monkeypatch, auction, name):
    """The where-clause θ-join of Q11/Q12 builds only the pairs that
    satisfy it: no operator of the plan outputs more rows than
    max(|person|, |initial|, matches), where × then σ emitted all
    |person| × |initial| pairs."""
    db, persons, initials = auction
    seen = _outputs(monkeypatch, db.connect(), XMARK_QUERIES[name])
    matches = [rows for node, _, rows in seen if isinstance(node, alg.ThetaJoin)]
    assert len(matches) == 1
    bound = max(persons, initials, matches[0])
    assert max(rows for _, _, rows in seen) <= bound
    assert persons * initials > 10 * bound


def test_corpus_has_no_descendant_or_self_step():
    """Every ``//`` of the XMark corpus compiles to one ``descendant``
    step: none of its predicates observes position, so no
    ``descendant-or-self::node()`` step materialises the whole document.
    (A positional predicate keeps the two steps — ``tests/test_paths.py``.)"""
    db = _db("<site/>")
    for name, query in XMARK_QUERIES.items():
        plan = db.compile_query(query, use_optimizer=True).plan
        axes = [op.axis for op in alg.walk(plan) if isinstance(op, alg.StepJoin)]
        assert Axis.DESCENDANT_OR_SELF not in axes, name
        if "//" in query:
            assert Axis.DESCENDANT in axes, name
