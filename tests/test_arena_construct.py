"""Tests for runtime node construction in the arena (ε/τ semantics).

* the one-node calls (``new_element``, ``new_text_node``,
  ``new_attribute``) on hand-written content;
* the bulk builder :meth:`NodeArena.new_elements` against
  :func:`_oracle_new_elements` — per-element, row-at-a-time construction,
  the code path the arena replaced — on random content, with copy
  sources eager and in cold paged fragments;
* the element content rules (XQuery 1.0 §3.7.1.3) and the two
  constructor errors, with expected literals on both engines (they share
  the builder, so a differential test could not catch a mistake here)
  and over HTTP.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.api.database import Database
from repro.encoding.arena import CONTENT_TAGS, NK_DOC, NK_ELEM, NK_TEXT, NodeArena
from repro.encoding.shred import shred_text
from repro.errors import DynamicError, PathfinderError, TypeError_
from repro.server import QueryService
from repro.xml.serializer import serialize_node

from tests.conftest import live_server, open_session, run_baseline, run_pf
from tests.test_server import post_query

TINY_BUDGET = 64


@pytest.fixture
def arena():
    return NodeArena()


class TestTextAndAttributeConstruction:
    def test_new_text_node(self, arena):
        sid = arena.pool.intern("hello")
        row = arena.new_text_node(sid)
        assert arena.kind[row] == NK_TEXT
        assert arena.parent[row] == -1
        assert serialize_node(arena, row) == "hello"

    def test_new_attribute_is_parentless(self, arena):
        aid = arena.new_attribute(arena.pool.intern("k"), arena.pool.intern("v"))
        assert arena.attr_owner[aid] == -1

    def test_each_construction_is_a_new_fragment(self, arena):
        r1 = arena.new_text_node(arena.pool.intern("a"))
        r2 = arena.new_text_node(arena.pool.intern("b"))
        assert arena.frag[r1] != arena.frag[r2]
        assert r2 > r1  # document order follows creation order

    def test_bulk_text_nodes_are_one_fragment_each(self, arena):
        sids = [arena.pool.intern(s) for s in ("a", "b", "c")]
        rows = arena.new_text_nodes(sids)
        assert rows.tolist() == [0, 1, 2]
        assert arena.frag_base.tolist() == [0, 1, 2]
        assert arena.frag[rows].tolist() == [0, 1, 2]
        assert [serialize_node(arena, r) for r in rows] == ["a", "b", "c"]

    def test_empty_batches_append_nothing(self, arena):
        assert len(arena.new_text_nodes([])) == 0
        assert len(arena.new_attributes([], [])) == 0
        assert len(arena.new_elements([], [], [], [])) == 0
        assert arena.mark() == (0, 0, 0)
        assert arena.lifetime_report()["transient_rows"] == 0


class TestElementConstruction:
    def test_empty_element(self, arena):
        row = arena.new_element(arena.pool.intern("e"), [], [])
        assert serialize_node(arena, row) == "<e/>"
        assert arena.size[row] == 0 and arena.level[row] == 0

    def test_text_content(self, arena):
        row = arena.new_element(
            arena.pool.intern("e"), [], [("text", arena.pool.intern("hi"))]
        )
        assert serialize_node(arena, row) == "<e>hi</e>"

    def test_attributes(self, arena):
        row = arena.new_element(
            arena.pool.intern("e"),
            [(arena.pool.intern("a"), arena.pool.intern("1"))],
            [],
        )
        assert serialize_node(arena, row) == '<e a="1"/>'

    def test_deep_copy_subtree(self, arena):
        doc = shred_text(arena, '<src><x p="q">t<y/></x></src>')
        x_row = doc + 2
        row = arena.new_element(arena.pool.intern("wrap"), [], [("copy", x_row)])
        assert serialize_node(arena, row) == '<wrap><x p="q">t<y/></x></wrap>'
        # the copy is a distinct node with consistent structure
        assert row != x_row
        assert arena.size[row] == arena.size[x_row] + 1
        copied_x = row + 1
        assert arena.parent[copied_x] == row
        assert arena.level[copied_x] == 1

    def test_copy_preserves_surrogates(self, arena):
        doc = shred_text(arena, "<src><x>shared-text</x></src>")
        x_row = doc + 2
        before_pool = len(arena.pool)
        arena.new_element(arena.pool.intern("w"), [], [("copy", x_row)])
        # 'w' may be new, but the copied text/tag surrogates are shared
        assert len(arena.pool) <= before_pool + 1

    def test_attr_copy_content(self, arena):
        aid = arena.new_attribute(arena.pool.intern("k"), arena.pool.intern("v"))
        row = arena.new_element(arena.pool.intern("e"), [], [("attr", aid)])
        assert serialize_node(arena, row) == '<e k="v"/>'

    def test_mixed_content_order(self, arena):
        doc = shred_text(arena, "<src><y/></src>")
        y_row = doc + 2
        row = arena.new_element(
            arena.pool.intern("e"),
            [],
            [("text", arena.pool.intern("a")), ("copy", y_row),
             ("text", arena.pool.intern("b"))],
        )
        assert serialize_node(arena, row) == "<e>a<y/>b</e>"

    def test_string_value_of_constructed(self, arena):
        row = arena.new_element(
            arena.pool.intern("e"),
            [],
            [("text", arena.pool.intern("ab")), ("text", arena.pool.intern("cd"))],
        )
        assert arena.pool.value(arena.string_value_id(row)) == "abcd"

    def test_indices_refresh_after_construction(self, arena):
        doc = shred_text(arena, "<src><y/></src>")
        row = arena.new_element(
            arena.pool.intern("e"), [], [("copy", doc + 2)]
        )
        # children_ranges must see the new rows
        order, lo, hi = arena.children_ranges(np.asarray([row]))
        kids = [int(k) for k in order[int(lo[0]): int(hi[0])]]
        assert kids == [row + 1]

    def test_bad_tag_is_a_typed_error(self, arena):
        with pytest.raises(DynamicError):
            arena.new_element(arena.pool.intern("e"), [], [("comment", 0)])


class TestConstructionThroughQueries:
    def test_nested_constructors(self):
        session = open_session("d", "<r><v>1</v></r>")
        out = session.execute("<a>{<b>{/r/v}</b>}</a>").serialize()
        assert out == "<a><b><v>1</v></b></a>"

    def test_construction_does_not_disturb_documents(self):
        session = open_session("d", "<r><v>1</v></r>")
        before = session.execute("count(//v)").serialize()
        session.execute("<x>{/r/v}</x>")
        # constructed copies live in new fragments, not under doc roots
        assert session.execute("count(//v)").serialize() == before

    def test_one_operator_builds_every_iteration_in_order(self):
        session = open_session("d", "<r><v a='1'>x</v><v/><v>y</v></r>")
        query = "for $v in /r/v return <c>{$v/@a, $v/text(), 2, $v}</c>"
        assert run_pf(session, query) == (
            '<c a="1">x2<v a="1">x</v></c><c>2<v/></c><c>y2<v>y</v></c>'
        )
        assert run_baseline(session, query) == run_pf(session, query)


# --------------------------------------------------------------------------
# the bulk builder against a row-at-a-time oracle
# --------------------------------------------------------------------------
def _copy_subtree(arena, src, new_parent, attr_ids, attr_counts):
    """Deep-copy rows ``src..src+size`` under ``new_parent``, one slice
    per column."""
    count = len(attr_counts)
    dest = arena.num_nodes
    rows = slice(src, src + count)
    levels = arena.level[rows] + (
        int(arena.level[new_parent]) + 1 - int(arena.level[src])
    )
    parents = arena.parent[rows] + (dest - src)
    parents[0] = new_parent
    arena.append_nodes(
        arena.kind[rows], arena.size[rows], levels, parents,
        arena.name[rows], arena.value[rows],
    )
    if len(attr_ids):
        arena.append_attrs(
            np.repeat(np.arange(dest, dest + count), attr_counts),
            arena.attr_name[attr_ids],
            arena.attr_value[attr_ids],
        )


def _resolved_content(arena, content):
    """One element's content entries after the content rules, entry by
    entry; returns ``(entries, error codes)``."""
    pool = arena.pool
    entries = []
    for tag, payload in content:
        if tag == "copy" and int(arena.kind[payload]) == NK_DOC:
            order, lo, hi = arena.children_ranges(np.asarray([payload]))
            entries += [("copy", int(c)) for c in order[int(lo[0]) : int(hi[0])]]
        else:
            entries.append((tag, payload))
    merged: list = []
    for tag, payload in entries:
        if tag == "copy" and int(arena.kind[payload]) == NK_TEXT:
            tag, payload = "text", int(arena.value[payload])
        if tag == "text":
            text = pool.value(payload)
            if merged and merged[-1][0] == "text":
                merged[-1] = ("text", merged[-1][1] + text)
                continue
            payload = text
        merged.append((tag, payload))
    entries = [
        ("text", pool.intern(p)) if t == "text" else (t, p)
        for t, p in merged
        if not (t == "text" and p == "")
    ]
    errors = set()
    seen_content, seen_names = False, set()
    for tag, payload in entries:
        if tag != "attr":
            seen_content = True
            continue
        if seen_content:
            errors.add("err:XQTY0024")
        name = int(arena.attr_name[payload])
        if name in seen_names:
            errors.add("err:XQDY0025")
        seen_names.add(name)
    return entries, errors


def _oracle_new_elements(arena, names, contents):
    """Per-element, row-at-a-time construction — the builder the arena
    replaced, plus the content rules: every element its own transient
    fragment, appended one row, one attribute and one copied subtree at
    a time."""
    resolved = [_resolved_content(arena, content) for content in contents]
    errors = set().union(*(codes for _, codes in resolved))
    if errors:
        return errors
    roots = []
    for name, (entries, _) in zip(names, resolved):
        copies = [p for t, p in entries if t == "copy"]
        spans = [arena.attrs_in_span(r, r + int(arena.size[r]) + 1) for r in copies]
        total = (
            1 + sum(len(c) for _, c in spans) + sum(t == "text" for t, _ in entries)
        )
        arena._enter_transient()
        arena._frag_base.append(arena.num_nodes)
        arena._frag_abase.append(arena.num_attrs)
        root = arena.append_nodes([NK_ELEM], [total - 1], [0], [-1], [name], [-1])
        spans = iter(spans)
        for tag, payload in entries:
            if tag == "attr":
                arena.append_attrs(
                    [root], [int(arena.attr_name[payload])],
                    [int(arena.attr_value[payload])],
                )
            elif tag == "text":
                arena.append_nodes([NK_TEXT], [0], [1], [root], [-1], [payload])
            else:
                _copy_subtree(arena, payload, root, *next(spans))
        roots.append(root)
    return roots


def _bulk_new_elements(arena, names, contents):
    owner = [i for i, content in enumerate(contents) for _ in content]
    tags = [CONTENT_TAGS[t] for content in contents for t, _ in content]
    payloads = [p for content in contents for _, p in content]
    try:
        return arena.new_elements(names, owner, tags, payloads).tolist()
    except PathfinderError as exc:
        return exc.code


def _snapshot(arena) -> dict:
    """Every column, both fragment tables and both key indices, with
    surrogates decoded (the two arenas' pools intern independently)."""
    arena.ensure_all()
    pool = arena.pool

    def text(column):
        return [pool.value(int(v)) if v >= 0 else None for v in column]

    rows = np.arange(arena.num_nodes)
    order, lo, hi = arena.children_ranges(rows)
    a_order, a_lo, a_hi = arena.attr_ranges(rows)
    return {
        **{
            c: getattr(arena, c).tolist()
            for c in ("kind", "size", "level", "frag", "parent", "attr_owner")
        },
        **{c: text(getattr(arena, c)) for c in ("name", "value", "attr_name", "attr_value")},
        "frag_base": arena.frag_base.tolist(),
        "frag_abase": arena._frag_abase.view().tolist(),
        "children": [order[a:b].tolist() for a, b in zip(lo, hi)],
        "attrs": [a_order[a:b].tolist() for a, b in zip(a_lo, a_hi)],
        "transient_rows": arena.lifetime_report()["transient_rows"],
    }


STORE_DOCS = {
    "a.xml": '<r v="0"><s k="1" j="2">base<i/>x</s><t/><u a="3">y</u></r>',
    "b.xml": "<r><u>one</u>two<!--c--><?p d?><w z='9'/></r>",
}


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("construct") / "db.pfstore")
    seed = Database(store=path)
    for uri in sorted(STORE_DOCS):
        seed.load_document(uri, STORE_DOCS[uri])
    return path


def _opened(path: str, paged: bool):
    """A database over the store, plus constructed rows and loose
    attributes to copy: eager, or with every fragment cold."""
    database = Database.open(path, page_budget_bytes=TINY_BUDGET if paged else None)
    arena = database.arena
    intern = arena.pool.intern
    arena.new_text_nodes([intern(s) for s in ("", "t", "u")])
    arena.new_attributes([intern(n) for n in "kkv"], [intern(v) for v in "123"])
    arena.new_element(intern("m"), [], [("attr", 0), ("text", intern("in"))])
    if paged:
        arena.pager.evict_all()
    return database


_COPY = st.tuples(st.just("copy"), st.integers(0, 10**6))
_TEXT = st.tuples(st.just("text"), st.sampled_from(["", "a", "bc", " "]))
_ATTR = st.tuples(st.just("attr"), st.integers(0, 10**6))
#: an element: leading attributes, content, rarely a late attribute
_ELEMENT = st.tuples(
    st.sampled_from(["e", "f"]),
    st.one_of(st.just([]), st.lists(_ATTR, min_size=1, max_size=2)),
    st.lists(st.one_of(_COPY, _COPY, _TEXT), max_size=6),
    st.one_of(*[st.just([])] * 5, st.lists(_ATTR, min_size=1, max_size=1)),
)


@pytest.mark.parametrize("paged", [False, True], ids=["eager", "cold-paged"])
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(elements=st.lists(_ELEMENT, max_size=5))
def test_bulk_builder_matches_the_row_at_a_time_oracle(store_path, paged, elements):
    """Copies of subtrees with attributes, of documents, text, comment
    and PI nodes and of constructed rows; text and attribute entries
    (late ones and duplicates included); elements with no content;
    duplicate copy sources — the bulk builder appends exactly what the
    oracle appends, or raises one of the errors it finds."""
    bulk_db = _opened(store_path, paged)
    oracle_db = _opened(store_path, False)
    bulk, oracle = bulk_db.arena, oracle_db.arena
    assert _snapshot(bulk) == _snapshot(oracle)
    rows, attrs = bulk.num_nodes, bulk.num_attrs

    def content(arena, parts):
        out = []
        for tag, value in parts:
            if tag == "copy":
                out.append((tag, value % rows))
            elif tag == "attr":
                out.append((tag, value % attrs))
            else:
                out.append((tag, arena.pool.intern(value)))
        return out

    results = []
    for arena, build in ((bulk, _bulk_new_elements), (oracle, _oracle_new_elements)):
        names = [arena.pool.intern(name) for name, *_ in elements]
        contents = [content(arena, lead + body + late) for _, lead, body, late in elements]
        results.append(build(arena, names, contents))
    got, expected = results
    event("raised" if isinstance(expected, set) else "built")
    if isinstance(expected, set):
        assert got in expected
        assert bulk.mark() == (rows, attrs, len(bulk.frag_base))
    else:
        assert got == expected
    assert _snapshot(bulk) == _snapshot(oracle)


# --------------------------------------------------------------------------
# the content rules and the constructor errors, on both engines
# --------------------------------------------------------------------------
CONTENT_RULES = [
    # a copied document node contributes its children
    ('count(element e { doc("d.xml") }/r)', "1"),
    ('element e { doc("d.xml") }', "<e><r><x/></r></e>"),
    ('count(element e { doc("d.xml") }/node())', "1"),
    # adjacent text nodes merge
    ('count(element e { text{"a"}, text{"b"} }/text())', "1"),
    ('string(element e { text{"a"}, text{"b"} }/text()[1])', "ab"),
    ('count(element e { "a", text{"b"}, 1 }/text())', "1"),
    ('element e { "a", text{"b"}, 1 }', "<e>ab1</e>"),
    ("count(<e>a{1}b</e>/text())", "1"),
    # zero-length text nodes are dropped
    ('count(element e { "" }/node())', "0"),
    ('element e { text{""} }', "<e/>"),
    ('count(element e { text{"a"}, text{""}, <x/> }/node())', "2"),
    # dropped before the attribute check: not an attribute after content
    ('element e { "", attribute z {1} }', '<e z="1"/>'),
]


@pytest.mark.parametrize("query,expected", CONTENT_RULES)
def test_content_rules_on_both_engines(query, expected):
    session = open_session("d.xml", "<r><x/></r>")
    assert run_pf(session, query) == expected
    assert run_baseline(session, query) == expected


CONSTRUCTOR_ERRORS = [
    ('<e x="1">{attribute x {2}}</e>', DynamicError, "err:XQDY0025"),
    ("element e { attribute a {1}, attribute a {2} }", DynamicError, "err:XQDY0025"),
    (
        "for $i in (1, 2) return element e "
        "{ attribute z {$i}, if ($i = 2) then attribute z {3} else () }",
        DynamicError,
        "err:XQDY0025",
    ),
    ("element e { 1, attribute z {1} }", TypeError_, "err:XQTY0024"),
    ("element e { <x/>, attribute z {1} }", TypeError_, "err:XQTY0024"),
    ('element e { text{"t"}, attribute z {1} }', TypeError_, "err:XQTY0024"),
]


@pytest.mark.parametrize("query,error,code", CONSTRUCTOR_ERRORS)
def test_constructor_errors_on_both_engines(query, error, code):
    session = open_session("d.xml", "<r><x/></r>")
    watermark = session.database.arena.num_nodes
    with pytest.raises(error) as exc:
        run_pf(session, query)
    assert exc.value.code == code
    # nothing the failed execution constructed stays behind
    assert session.database.arena.num_nodes == watermark
    with pytest.raises(error) as exc:
        run_baseline(session, query)
    assert exc.value.code == code


def test_constructor_errors_over_http():
    """``POST /query`` answers a constructor error with the status and
    body shape of any other dynamic error."""
    database = Database()
    database.load_document("d.xml", "<r/>")
    service = QueryService(database, workers=1, deadline_seconds=10.0)
    with live_server(service) as netloc:
        base = f"http://{netloc}"
        ref_status, reference = post_query(base, {"query": "1 div 0"})
        for query, error, code in CONSTRUCTOR_ERRORS[:1] + CONSTRUCTOR_ERRORS[3:4]:
            status, body = post_query(base, {"query": query})
            assert status == ref_status == 400
            assert set(body) == set(reference)
            assert body["kind"] == error.__name__
            assert code in body["error"]
