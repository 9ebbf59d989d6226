"""Oracle tests for the update splice, :meth:`NodeArena.rebuild_with_delta`.

Random documents (elements, attributes, text, comments, PIs) meet random
:class:`TreeDelta` values that fill every field — content copied from
another depth, from another document and from a document node
included — and the rebuilt fragment is held against three oracles:

1. :func:`_reference`, a row-at-a-time emitter (the shape the splice
   replaced), column for column, whenever the delta leaves no adjacent
   or empty text nodes (the one place the two differ by design);
2. the shred of the rebuilt document's own serialization, for every
   delta — so the XDM text rules hold: adjacent text merged, empty text
   dropped;
3. the same delta on a cold-paged store, and the delta's WAL record
   replayed by a reopen.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import connect
from repro.api.database import Database
from repro.encoding.arena import (
    NK_COMMENT,
    NK_DOC,
    NK_ELEM,
    NK_PI,
    NK_TEXT,
    NodeArena,
    TreeDelta,
)
from repro.encoding.shred import shred_text
from repro.encoding.store import fragment_snapshot, serialize_delta
from repro.xml.serializer import serialize_node

TINY_BUDGET = 64

_VALUE = st.sampled_from(["t", "uv", " ", "w x"])
_LEAF = st.one_of(
    _VALUE,
    st.sampled_from(["<!--c-->", "<!--d e-->", "<?p d?>", "<?q?>"]),
)


@st.composite
def _element(draw, depth=3):
    tag = draw(st.sampled_from("abc"))
    names = draw(st.lists(st.sampled_from("pqr"), max_size=3, unique=True))
    attrs = "".join(f' {n}="{draw(_VALUE)}"' for n in names)
    kinds = [_LEAF, _LEAF] + ([_element(depth - 1)] * 2 if depth else [])
    body = draw(st.lists(st.one_of(*kinds), max_size=4))
    return f"<{tag}{attrs}>{''.join(body)}</{tag}>"


# ----------------------------------------------------------------- deltas
_ROW_CONTENT = ("insert_before", "insert_after", "insert_first", "insert_last", "replace")
_NEW_TEXT = st.sampled_from(["", "k", "l m"])


def _pick(data, candidates, most=2) -> list[int]:
    if not len(candidates):
        return []
    return data.draw(
        st.lists(st.sampled_from([int(c) for c in candidates]), max_size=most, unique=True)
    )


def _span(arena, root):
    """The rows and attribute ids of the fragment at ``root`` (without
    faulting a cold paged one in)."""
    stop = root + arena.subtree_nodes(root)
    return np.arange(root, stop), arena.attrs_in_span(root, stop)[0]


def _draw_spec(data, arena, root, source) -> dict:
    """A delta over the document at ``root`` as relative rows, attribute
    positions and strings, so it applies to any arena holding the same
    two documents (``source`` is the other one)."""
    rows, attrs = _span(arena, root)
    kinds = arena.kind[rows]
    rel = rows - root
    inner = (kinds == NK_ELEM) | (kinds == NK_DOC)
    copies = [("d", int(r)) for r in rel] + [
        ("s", int(r)) for r in _span(arena, source)[0] - source
    ]
    entry = st.one_of(
        st.tuples(st.just("text"), _NEW_TEXT),
        st.tuples(st.just("copy"), st.sampled_from(copies)),
    )

    def content(targets):
        return {t: data.draw(st.lists(entry, max_size=3)) for t in targets}

    spec = {field: content(_pick(data, rel[1:])) for field in _ROW_CONTENT}
    spec["insert_first"] = content(_pick(data, rel[inner]))
    spec["insert_last"] = content(_pick(data, rel[inner]))
    spec["delete"] = _pick(data, rel[1:])
    elements = rel[kinds == NK_ELEM]
    spec["insert_attrs"] = {
        t: [(f"n{j}", "v") for j in range(data.draw(st.integers(1, 2)))]
        for t in _pick(data, elements)
    }
    spec["replace_content"] = {
        t: data.draw(_NEW_TEXT) for t in _pick(data, elements)
    }
    spec["rename"] = {
        t: "z" if kinds[t] == NK_ELEM else "pz"
        for t in _pick(data, rel[(kinds == NK_ELEM) | (kinds == NK_PI)])
    }
    spec["replace_value"] = {
        t: data.draw(_NEW_TEXT if kinds[t] == NK_TEXT else st.just("k"))
        for t in _pick(data, rel[(kinds == NK_TEXT) | (kinds == NK_COMMENT) | (kinds == NK_PI)], 3)
    }
    positions = range(len(attrs))
    spec["delete_attrs"] = _pick(data, positions)
    spec["replace_attr"] = {
        a: [(f"s{a}x{j}", "v") for j in range(data.draw(st.integers(0, 2)))]
        for a in _pick(data, positions)
    }
    spec["replace_attr_value"] = {a: "y" for a in _pick(data, positions)}
    spec["rename_attr"] = {a: f"r{a}" for a in _pick(data, positions)}
    return spec


def _delta(spec, arena, root, source) -> TreeDelta:
    """Materialise a :func:`_draw_spec` spec against ``arena``."""
    intern = arena.pool.intern
    attrs = _span(arena, root)[1]
    bases = {"d": root, "s": source}

    def entries(parts):
        return [
            ("text", intern(p)) if tag == "text" else ("copy", bases[p[0]] + p[1])
            for tag, p in parts
        ]

    def pairs(items):
        return [(intern(n), intern(v)) for n, v in items]

    delta = TreeDelta()
    for field in _ROW_CONTENT:
        setattr(delta, field, {root + t: entries(e) for t, e in spec[field].items()})
    delta.delete = {root + t for t in spec["delete"]}
    delta.insert_attrs = {root + t: pairs(p) for t, p in spec["insert_attrs"].items()}
    for field in ("replace_content", "rename", "replace_value"):
        setattr(delta, field, {root + t: intern(v) for t, v in spec[field].items()})
    delta.delete_attrs = {int(attrs[a]) for a in spec["delete_attrs"]}
    delta.replace_attr = {int(attrs[a]): pairs(p) for a, p in spec["replace_attr"].items()}
    for field in ("replace_attr_value", "rename_attr"):
        setattr(delta, field, {int(attrs[a]): intern(v) for a, v in spec[field].items()})
    return delta


# ---------------------------------------------------------------- oracles
def _children(arena, row) -> list[int]:
    order, lo, hi = arena.children_ranges(np.asarray((row,), dtype=np.int64))
    return [int(c) for c in order[lo[0] : hi[0]]]


def _reference(arena, root, delta):
    """Rebuild row by row: ``(rows, attrs)`` with rows ``[kind, size,
    level, parent offset, name, value]`` and attrs ``(owner offset, name,
    value)``.  Adjacent and empty text nodes are kept as they come."""
    rows: list[list[int]] = []
    attrs: list[tuple[int, int, int]] = []

    def row(kind, level, parent, name, value) -> int:
        rows.append([kind, 0, level, parent, name, value])
        return len(rows) - 1

    def copy(src, level, parent) -> None:
        at = row(int(arena.kind[src]), level, parent, int(arena.name[src]), int(arena.value[src]))
        for aid in arena.attrs_in_span(src, src + 1)[0]:
            attrs.append((at, int(arena.attr_name[aid]), int(arena.attr_value[aid])))
        for child in _children(arena, src):
            copy(child, level + 1, at)
        rows[at][1] = len(rows) - at - 1

    def entry(item, level, parent) -> None:
        tag, payload = item
        if tag == "text":
            row(NK_TEXT, level, parent, -1, payload)
        elif arena.kind[payload] == NK_DOC:
            for child in _children(arena, payload):
                copy(child, level, parent)
        else:
            copy(payload, level, parent)

    def emit(src, level, parent) -> None:
        if src in delta.delete:
            return
        if src in delta.replace:
            for item in delta.replace[src]:
                entry(item, level, parent)
            return
        kind = int(arena.kind[src])
        at = row(
            kind,
            level,
            parent,
            delta.rename.get(src, int(arena.name[src])),
            delta.replace_value.get(src, int(arena.value[src])),
        )
        if kind == NK_ELEM:
            for aid in arena.attrs_in_span(src, src + 1)[0]:
                aid = int(aid)
                if aid in delta.delete_attrs:
                    continue
                if aid in delta.replace_attr:
                    attrs.extend((at, n, v) for n, v in delta.replace_attr[aid])
                    continue
                name = delta.rename_attr.get(aid, int(arena.attr_name[aid]))
                value = delta.replace_attr_value.get(aid, int(arena.attr_value[aid]))
                attrs.append((at, name, value))
            attrs.extend((at, n, v) for n, v in delta.insert_attrs.get(src, ()))
        if kind in (NK_ELEM, NK_DOC):
            if src in delta.replace_content:
                entry(("text", delta.replace_content[src]), level + 1, at)
            else:
                for item in delta.insert_first.get(src, ()):
                    entry(item, level + 1, at)
                for child in _children(arena, src):
                    for item in delta.insert_before.get(child, ()):
                        entry(item, level + 1, at)
                    emit(child, level + 1, at)
                    for item in delta.insert_after.get(child, ()):
                        entry(item, level + 1, at)
                for item in delta.insert_last.get(src, ()):
                    entry(item, level + 1, at)
        rows[at][1] = len(rows) - at - 1

    emit(root, 0, -1)
    return rows, attrs


def _normal(arena, rows) -> bool:
    """No two sibling text nodes are adjacent and none is empty."""
    empty = arena.pool.lookup("")
    last: dict[int, int] = {}
    for kind, _, _, parent, _, value in rows:
        if kind == NK_TEXT and (value == empty or last.get(parent) == NK_TEXT):
            return False
        last[parent] = kind
    return True


def _columns(arena, root, attrs_from):
    """The fragment at ``root`` (the arena's top) as reference output."""
    top = slice(root, arena.num_nodes)
    parent = arena.parent[top] - root
    parent[0] = -1
    rows = np.column_stack(
        (
            arena.kind[top], arena.size[top], arena.level[top], parent,
            arena.name[top], arena.value[top],
        )
    ).tolist()
    table = slice(attrs_from, arena.num_attrs)
    attrs = list(
        zip(
            (arena.attr_owner[table] - root).tolist(),
            arena.attr_name[table].tolist(),
            arena.attr_value[table].tolist(),
        )
    )
    return rows, attrs


def _image(arena, top) -> dict:
    """The content below ``top`` with strings decoded, relative to it."""
    rows, attrs = _span(arena, top)
    rows = rows[1:]
    decode = arena.pool.value
    return {
        "kind": arena.kind[rows].tolist(),
        "size": arena.size[rows].tolist(),
        "level": (arena.level[rows] - arena.level[top]).tolist(),
        "parent": (arena.parent[rows] - top).tolist(),
        "name": [decode(int(n)) if n >= 0 else None for n in arena.name[rows]],
        "value": [decode(int(v)) if v >= 0 else None for v in arena.value[rows]],
        "attrs": [
            (
                int(arena.attr_owner[a]) - top,
                decode(int(arena.attr_name[a])),
                decode(int(arena.attr_value[a])),
            )
            for a in attrs
        ],
    }


def _reshred(arena, doc) -> dict:
    """:func:`_image` of the document's serialization, shredded again
    (inside a wrapper, so top-level text and siblings parse)."""
    fresh = NodeArena()
    wrapped = shred_text(fresh, "<w>" + serialize_node(arena, doc) + "</w>")
    return _image(fresh, wrapped + 1)


# ------------------------------------------------------------------ tests
_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_SETTINGS
@given(doc=_element(), other=_element(2), data=st.data())
def test_splice_matches_the_row_at_a_time_reference_and_its_own_reshred(doc, other, data):
    arena = NodeArena()
    root = shred_text(arena, doc)
    source = shred_text(arena, other)
    delta = _delta(_draw_spec(data, arena, root, source), arena, root, source)
    expected = _reference(arena, root, delta)
    attrs_from = arena.num_attrs
    new_root = arena.rebuild_with_delta(root, delta)
    assert new_root == arena.frag_base[-1]
    if _normal(arena, expected[0]):
        event("reference: no text to merge or drop")
        assert _columns(arena, new_root, attrs_from) == expected
    else:
        event("reference: text merged or dropped")
    assert _image(arena, new_root) == _reshred(arena, new_root)
    assert arena.kind[new_root] == NK_DOC and arena.level[new_root] == 0
    assert arena.size[new_root] == arena.num_nodes - new_root - 1


#: ``(document, edit, serialization after it)``: the ways text meets
#: text at a piece boundary, and a copied element that merges nothing;
#: rows are offsets from the document node (``<a>`` is row 1) and
#: ``("copy", r)`` copies row ``r``
TEXT_BOUNDARIES = [
    ("<a>t<b/></a>", ("insert_before", 3, [("text", "k")]), "<a>tk<b/></a>"),
    ("<a><b/>t</a>", ("insert_after", 2, [("text", "k")]), "<a><b/>kt</a>"),
    ("<a>t<b/>u</a>", ("delete", 3), "<a>tu</a>"),
    ("<a>t<b/>u</a>", ("replace", 3, [("text", "")]), "<a>tu</a>"),
    ("<a>t<b/>u</a>", ("replace", 3, [("copy", 2), ("copy", 4)]), "<a>ttuu</a>"),
    ("<a>t<b/><c/>u</a>", ("insert_first", 1, [("copy", 2)]), "<a>tt<b/><c/>u</a>"),
    ("<a>t<b/><c/>u</a>", ("insert_last", 1, [("text", "v")]), "<a>t<b/><c/>uv</a>"),
    ("<a><b/>t<c/></a>", ("replace_value", 3, ""), "<a><b/><c/></a>"),
    ("<a>t<b>u</b></a>", ("insert_before", 3, [("copy", 3)]), "<a>t<b>u</b><b>u</b></a>"),
]


@pytest.mark.parametrize("xml, edit, expected", TEXT_BOUNDARIES)
def test_text_meeting_at_a_piece_boundary_merges(xml, edit, expected):
    arena = NodeArena()
    root = shred_text(arena, xml)
    field, target, *payload = edit
    delta = TreeDelta()
    if field == "delete":
        delta.delete.add(root + target)
    elif field == "replace_value":
        delta.replace_value[root + target] = arena.pool.intern(payload[0])
    else:
        getattr(delta, field)[root + target] = [
            ("text", arena.pool.intern(p)) if tag == "text" else ("copy", root + p)
            for tag, p in payload[0]
        ]
    new_root = arena.rebuild_with_delta(root, delta)
    assert serialize_node(arena, new_root) == expected
    assert _image(arena, new_root) == _reshred(arena, new_root)


def test_the_updated_document_follows_the_xdm_text_rules():
    """What an update leaves equals what reloading its serialization
    gives: no adjacent, no empty text nodes."""
    session = connect()
    session.database.load_document("a.xml", "<a>t1<b/>t2<c>x</c></a>")

    def answer(query):
        return session.execute(query).serialize()

    session.execute_update("delete node /a/b")
    assert answer("count(/a/text())") == "1"
    assert answer("string(/a/text())") == "t1t2"
    session.execute_update("replace value of node /a/c/text() with ''")
    assert answer("count(/a/c/text())") == "0"
    session.execute_update('insert node ("u", text {""}) after /a/c')
    session.execute_update('insert node "s" as first into /a')
    assert answer("count(/a/text())") == "2"
    assert answer("string(/a/text()[1])") == "st1t2"
    assert answer("/a") == "<a>st1t2<c/>u</a>"


# ----------------------------------------------------- paged and replayed
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(doc=_element(), other=_element(2), data=st.data())
def test_cold_paged_and_wal_replay_equal_the_live_splice(doc, other, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.pfstore")
        seed = Database(store=path)
        seed.load_document("d.xml", doc)
        seed.load_document("s.xml", other)

        # opened before the WAL record exists: it sees what ``live`` sees
        paged = Database.open(path, page_budget_bytes=TINY_BUDGET)
        live = Database.open(path)
        root, source = live.documents["d.xml"], live.documents["s.xml"]
        spec = _draw_spec(data, live.arena, root, source)
        delta = _delta(spec, live.arena, root, source)
        live.store.append_wal(
            {
                "docs": [
                    {
                        "uri": "d.xml",
                        "base_epoch": live.doc_epochs["d.xml"],
                        "new_epoch": max(live.doc_epochs.values()) + 1,
                        "delta": serialize_delta(live.arena, root, delta),
                    }
                ]
            }
        )
        expected = fragment_snapshot(live.arena, live.arena.rebuild_with_delta(root, delta))

        arena = paged.arena
        arena.pager.evict_all()
        paged_root, paged_source = paged.documents["d.xml"], paged.documents["s.xml"]
        with arena.page_scope():
            new_root = arena.rebuild_with_delta(
                paged_root, _delta(spec, arena, paged_root, paged_source)
            )
            assert fragment_snapshot(arena, new_root) == expected

        replayed = Database.open(path)
        assert replayed.store.replayed == 1
        assert fragment_snapshot(replayed.arena, replayed.documents["d.xml"]) == expected
