"""Round-trip and differential tests for the vectorised document I/O path.

The scan serializer and the streaming shredder are the two ends of the
document fast path; this suite pins them to the row-at-a-time and
tree-walking oracles kept below:

* parse → shred → scan-serialize → reparse is identity-preserving (the
  serialized form is a fixpoint) over XMark output and hand-written
  documents with CDATA, PIs, comments, numeric character references and
  empty elements;
* the column-at-a-time scan emits exactly the parts of the row-at-a-time
  scan it replaced (:func:`reference_scan_parts`) on **every row** of
  generated documents (every node kind, escaping in text and attribute
  values, nested empty elements) and of XMark documents, and matches the
  recursive serializer on every row of the hand-written ones;
* the columnar shredder builds the same arena as the DOM path
  (:mod:`tests.reference_xml`) and, on well-formed text, neither builds
  a tree nor runs the event scanner;
* the batched result scan (``iter_serialized_chunks``: one scan per
  block of consecutive node items) equals the recursive oracle item by
  item, joined by the atomic-separator rule, and cuts its chunks where a
  part-at-a-time chunker would.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import serialize as result_serializer
from repro.compiler.serialize import _item_parts, iter_serialized_chunks, ordered_items
from repro.encoding.arena import NK_COMMENT, NK_DOC, NK_ELEM, NK_PI, NK_TEXT, NodeArena
from repro.encoding import shred
from repro.encoding.shred import shred_text
from repro.errors import XMLSyntaxError
from repro.relational import items as it
from repro.relational.items import K_ATTR, K_INT, K_NODE, K_STR, ItemColumn
from repro.relational.kernels import multi_arange
from repro.relational.table import Table
from repro.xml.escape import escape_attr, escape_text, escape_texts, resolve_entities
from repro.xml.parser import XMLEventHandler
from repro.xml.serializer import scan_parts, serialize_attribute, serialize_node
from repro.xmark import generate_document

from tests.conftest import open_session
from tests.reference_xml import (
    XMLComment,
    XMLElement,
    XMLPi,
    XMLText,
    parse_document,
    serialize_tree,
    shred_tree,
)
from tests.test_xml import _tree

# --------------------------------------------------------------------------
# the oracles: the row-at-a-time scan the column-at-a-time one replaced,
# and the recursive tree walk before it
# --------------------------------------------------------------------------


def reference_scan_parts(arena: NodeArena, nodes) -> list[str]:
    """The markup of the subtrees of rows ``nodes``, one after the
    other, as one list of string parts.

    This is the vectorised core behind :func:`serialize_node` and the
    chunked result streaming in :mod:`repro.compiler.serialize`: callers
    either join the parts into one string or flush them downstream in
    bounded chunks without ever assembling the full text.  The rows of
    all subtrees are gathered with one ``multi_arange`` (a single
    subtree is sliced) and scanned as one; a subtree ends exactly where
    the next begins, so the close-tag stack is empty at every node
    boundary.
    """
    starts = np.asarray(nodes, dtype=np.int64)
    arena.ensure_rows(starts)
    widths = arena.size[starts] + 1
    stops = starts + widths
    if len(starts) == 1:
        # one subtree is one row range: sliced (views), not gathered, and
        # its attributes are one slice of the attribute index
        start, stop = int(starts[0]), int(stops[0])
        rows = slice(start, stop)
        attr_ids, attr_counts = arena.attrs_in_span(start, stop)
    else:
        rows = multi_arange(starts, stops)
        attr_ids, owners, per_node = arena.attrs_in_spans(starts, stops)
        # an attribute's position in ``rows``: its owner's offset in its
        # subtree plus where that subtree starts in ``rows``
        offsets = np.cumsum(widths) - widths - starts
        attr_counts = np.bincount(
            owners + np.repeat(offsets, per_node), minlength=len(rows)
        )
    attr_counts = attr_counts.tolist()
    kinds = arena.kind[rows].tolist()
    sizes = arena.size[rows].tolist()
    pool = arena.pool
    # one batched decode for every surrogate the rows can reference;
    # nameless/valueless rows carry -1, clipped to 0 and never read
    decode = pool.values
    if len(pool):
        names = decode(np.maximum(arena.name[rows], 0).tolist())
        values = decode(np.maximum(arena.value[rows], 0).tolist())
    else:  # an arena with no interned strings holds no named/valued rows
        names = values = [""] * len(kinds)
    # all attributes rendered to ready-to-concatenate ` name="value"`
    # parts in one pass
    attr_strs = [
        f' {n}="{escape_attr(v)}"'
        for n, v in zip(
            decode(arena.attr_name[attr_ids].tolist()),
            decode(arena.attr_value[attr_ids].tolist()),
        )
    ]

    out: list[str] = []
    append = out.append
    # stack of (end offset, close tag): popped when the scan passes the
    # subtree's last row — the pre/size form of closing on level deltas
    open_tags: list[tuple[int, str]] = []
    ap = 0  # cursor into the flattened attribute arrays
    for i, kind in enumerate(kinds):
        while open_tags and open_tags[-1][0] <= i:
            append(open_tags.pop()[1])
        if kind == NK_ELEM:
            name = names[i]
            count = attr_counts[i]
            if count:
                attrs = "".join(attr_strs[ap : ap + count])
                ap += count
            else:
                attrs = ""
            size = sizes[i]
            if size == 0:
                append(f"<{name}{attrs}/>")
            else:
                append(f"<{name}{attrs}>")
                open_tags.append((i + size + 1, f"</{name}>"))
        elif kind == NK_TEXT:
            append(escape_text(values[i]))
        elif kind == NK_COMMENT:
            append(f"<!--{values[i]}-->")
        elif kind == NK_PI:
            data = values[i]
            append(f"<?{names[i]} {data}?>" if data else f"<?{names[i]}?>")
        # NK_DOC contributes no markup of its own
    while open_tags:
        append(open_tags.pop()[1])
    return out


def serialize_node_recursive(arena: NodeArena, node: int) -> str:
    """Serialise row ``node``'s subtree by recursive tree walk.

    The original node-at-a-time post-processor (one ``children_ranges`` /
    ``attr_ranges`` call per node), the oracle of the scan serializer.
    """
    out: list[str] = []
    _serialize_into(arena, node, out)
    return "".join(out)


def _serialize_into(arena: NodeArena, node: int, out: list[str]) -> None:
    pool = arena.pool
    arena.ensure_rows((node,))
    kind = int(arena.kind[node])
    if kind == NK_TEXT:
        out.append(escape_text(pool.value(int(arena.value[node]))))
        return
    if kind == NK_COMMENT:
        out.append(f"<!--{pool.value(int(arena.value[node]))}-->")
        return
    if kind == NK_PI:
        target = pool.value(int(arena.name[node]))
        data = pool.value(int(arena.value[node]))
        out.append(f"<?{target} {data}?>" if data else f"<?{target}?>")
        return
    if kind == NK_DOC:
        for child in _child_rows(arena, node):
            _serialize_into(arena, child, out)
        return
    # element
    name = pool.value(int(arena.name[node]))
    out.append(f"<{name}")
    order, lo, hi = arena.attr_ranges(_single(node))
    for j in order[int(lo[0]) : int(hi[0])]:
        aname = pool.value(int(arena.attr_name[j]))
        avalue = pool.value(int(arena.attr_value[j]))
        out.append(f' {aname}="{escape_attr(avalue)}"')
    children = _child_rows(arena, node)
    if not children:
        out.append("/>")
        return
    out.append(">")
    for child in children:
        _serialize_into(arena, child, out)
    out.append(f"</{name}>")


def _single(node: int) -> np.ndarray:
    return np.asarray([node], dtype=np.int64)


def _child_rows(arena: NodeArena, node: int) -> list[int]:
    order, lo, hi = arena.children_ranges(_single(node))
    rows = sorted(int(r) for r in order[int(lo[0]) : int(hi[0])])
    return rows


#: hand-written documents covering every node kind and markup edge the
#: dialect supports
HAND_DOCS = {
    "empty-elements": "<r><a/><b></b><c x='1'/></r>",
    "attributes": '<r a="1" b="two &amp; three"><x y="&lt;&gt;"/></r>',
    "mixed-content": "<r>before<x>in</x>after<y/>tail</r>",
    "cdata": "<r>x<![CDATA[<raw> & ]]]>y</r>",
    "comments": "<r><!--note--><a><!-- spaced --></a></r>",
    "pis": '<r><?target some data?><?bare?><a><?p d="v"?></a></r>',
    "charrefs": "<r>&#65;&#x42;&#10;&#x1F600;</r>",
    "deep": "<a><b><c><d><e>leaf</e></d></c></b></a>",
    "whitespace": "<r> <a>  </a> \n <b/> </r>",
}


def _shred(xml_text: str) -> tuple[NodeArena, int]:
    arena = NodeArena()
    return arena, shred_text(arena, xml_text)


class TestFixpointRoundTrip:
    @pytest.mark.parametrize("name", sorted(HAND_DOCS))
    def test_hand_written_fixpoint(self, name):
        """serialize(shred(text)) reparsed and reshredded is unchanged."""
        arena, doc = _shred(HAND_DOCS[name])
        once = serialize_node(arena, doc)
        arena2, doc2 = _shred(once)
        assert serialize_node(arena2, doc2) == once

    def test_canonical_document_round_trips_exactly(self):
        # no CDATA / char refs, so the text is already canonical
        text = '<r a="1">x<b>y</b><!--c--><?p d?><e/></r>'
        arena, doc = _shred(text)
        assert serialize_node(arena, doc) == text

    def test_xmark_document_round_trips_exactly(self):
        text = generate_document(0.0005)
        arena, doc = _shred(text)
        assert serialize_node(arena, doc) == text

    def test_charrefs_resolve_before_shredding(self):
        arena, doc = _shred(HAND_DOCS["charrefs"])
        assert serialize_node(arena, doc) == "<r>AB\n\U0001F600</r>"


class TestScanMatchesRecursive:
    @pytest.mark.parametrize("name", sorted(HAND_DOCS))
    def test_every_row_of_hand_docs(self, name):
        """The scan output equals the recursive oracle on every subtree —
        every node kind, with and without attributes/children."""
        arena, doc = _shred(HAND_DOCS[name])
        end = doc + int(arena.size[doc])
        for row in range(doc, end + 1):
            assert serialize_node(arena, row) == serialize_node_recursive(
                arena, row
            ), f"row {row} (kind {int(arena.kind[row])}) diverged"

    def test_xmark_document(self):
        arena, doc = _shred(generate_document(0.0005))
        assert serialize_node(arena, doc) == serialize_node_recursive(arena, doc)

    def test_constructed_fragment(self):
        session = open_session("d", "<r><a k='v'>t</a></r>")
        result = session.execute('<out x="1">{ /r/a }tail</out>')
        (handle,) = result.values()
        assert serialize_node(handle.arena, handle.node) == (
            serialize_node_recursive(handle.arena, handle.node)
        )

    @settings(max_examples=40, deadline=None)
    @given(_tree())
    def test_random_trees(self, tree):
        arena = NodeArena()
        doc = shred_tree(arena, tree)
        assert serialize_node(arena, doc) == serialize_node_recursive(arena, doc)
        assert serialize_node(arena, doc) == serialize_tree(tree)


#: text and attribute values that need escaping, and some that do not
_CHARS = st.text(alphabet=st.sampled_from(list("ab &<>\"'\né")), max_size=8)
_COMMENT = st.text(alphabet="ab -", max_size=6).filter(
    lambda t: "--" not in t and not t.endswith("-")
)
_PI = st.tuples(st.sampled_from(["pi", "t"]), st.text(alphabet="ab =", max_size=5))


@st.composite
def _document(draw, depth=3):
    """An element tree holding every node kind: text and attribute values
    with characters to escape, comments, PIs with and without data, and
    empty elements nested in empty elements."""
    name = draw(st.sampled_from(["a", "b", "item"]))
    attrs = draw(
        st.lists(st.tuples(st.sampled_from(["p", "q", "r"]), _CHARS),
                 max_size=3, unique_by=lambda t: t[0])
    )
    children = []
    if depth:
        children = draw(st.lists(st.one_of(
            _CHARS.filter(bool).map(XMLText),
            _COMMENT.map(XMLComment),
            _PI.map(lambda t: XMLPi(*t)),
            _document(depth=depth - 1),
            st.just(XMLElement("e", [], [XMLElement("e")])),
        ), max_size=4))
    return XMLElement(name, list(attrs), children)


def _every_row(arena: NodeArena, doc: int) -> np.ndarray:
    return np.arange(doc, doc + int(arena.size[doc]) + 1, dtype=np.int64)


class TestColumnScanMatchesRowScan:
    """The column-at-a-time scan emits the row-at-a-time scan's parts,
    part for part: one per open and per close event, in order."""

    def _check_every_row(self, arena, doc):
        rows = _every_row(arena, doc)
        # every row's subtree in one gathered scan, then the whole
        # document as one sliced scan
        assert scan_parts(arena, rows) == reference_scan_parts(arena, rows)
        assert scan_parts(arena, (doc,)) == reference_scan_parts(arena, (doc,))

    @settings(max_examples=80, deadline=None)
    @given(_document())
    def test_generated_documents(self, tree):
        arena = NodeArena()
        doc = shred_tree(arena, tree)
        self._check_every_row(arena, doc)
        assert serialize_node(arena, doc) == serialize_tree(tree)
        for row in _every_row(arena, doc).tolist():
            assert scan_parts(arena, (row,)) == reference_scan_parts(arena, (row,))

    def test_generated_documents_cover_every_kind(self):
        tree = XMLElement("a", [("p", 'x<&>"')], [
            XMLText("t & <u>"), XMLComment("c"), XMLPi("pi", ""), XMLPi("t", "d"),
            XMLElement("e", [], [XMLElement("e")]),
        ])
        arena = NodeArena()
        doc = shred_tree(arena, tree)
        kinds = set(arena.kind[_every_row(arena, doc)].tolist())
        assert kinds == {NK_DOC, NK_ELEM, NK_TEXT, NK_COMMENT, NK_PI}
        self._check_every_row(arena, doc)
        assert serialize_node(arena, doc) == (
            '<a p="x&lt;&amp;>&quot;">t &amp; &lt;u&gt;<!--c--><?pi?><?t d?>'
            "<e><e/></e></a>"
        )

    @pytest.mark.parametrize("seed", [42, 43])
    @pytest.mark.parametrize("scale", [0.005, 0.02])
    def test_xmark_documents(self, scale, seed):
        text = generate_document(scale, seed)
        arena, doc = _shred(text)
        self._check_every_row(arena, doc)
        assert serialize_node(arena, doc) == text

    def test_memos_fill_only_what_is_asked(self):
        """A scan escapes the values it emits, not the whole pool."""
        arena, doc = _shred("<r><a>x&amp;y</a><b>z</b></r>")
        unused = arena.pool.intern("never <emitted>")
        a = doc + 2
        assert serialize_node(arena, a) == "<a>x&amp;y</a>"
        _, known = arena.pool._memos[escape_texts]
        assert not known[unused] and not known[int(arena.value[doc + 5])]


class TestStreamingShredder:
    def test_no_dom_on_the_streaming_path(self, monkeypatch):
        """shred_text builds no tree and fires no per-token events: the
        event scanner runs only to diagnose malformed text."""

        def boom(*args, **kwargs):
            raise AssertionError("per-token path taken by the columnar shredder")

        monkeypatch.setattr(XMLElement, "__init__", boom)
        monkeypatch.setattr(XMLEventHandler, "start_element", boom)
        monkeypatch.setattr(shred, "parse_events", boom)
        arena = NodeArena()
        doc = shred_text(arena, "<r><a x='1'>t</a><!--c--><?p d?><![CDATA[x]]></r>")
        assert int(arena.size[doc]) == 6  # r + a + text + comment + pi + text
        # sanity: the tree-building path does construct elements, and a
        # malformed text is handed to the scanner
        with pytest.raises(AssertionError):
            parse_document("<r/>")
        with pytest.raises(AssertionError):
            shred_text(arena, "<r>")

    @pytest.mark.parametrize("name", sorted(HAND_DOCS))
    def test_stream_and_dom_paths_build_identical_arenas(self, name):
        text = HAND_DOCS[name]
        streamed = NodeArena()
        s_doc = shred_text(streamed, text)
        dom = NodeArena()
        d_doc = shred_tree(dom, parse_document(text))
        assert streamed.num_nodes == dom.num_nodes
        assert streamed.kind.tolist() == dom.kind.tolist()
        assert streamed.size.tolist() == dom.size.tolist()
        assert streamed.level.tolist() == dom.level.tolist()
        assert streamed.parent.tolist() == dom.parent.tolist()
        assert serialize_node(streamed, s_doc) == serialize_node(dom, d_doc)


class TestCharacterReferenceErrors:
    @pytest.mark.parametrize(
        "ref",
        ["&#xD800;", "&#xDFFF;", "&#x110000;", "&#0;", "&#x1F;", "&#xZZ;", "&#;", "&#x;"],
    )
    def test_invalid_refs_raise_xml_syntax_error(self, ref):
        with pytest.raises(XMLSyntaxError):
            resolve_entities(ref, line=3, column=7)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as exc:
            resolve_entities("&#xD800;", line=3, column=7)
        assert exc.value.line == 3 and exc.value.column == 7

    def test_never_a_bare_value_error(self):
        try:
            resolve_entities("&#x110000;")
        except XMLSyntaxError:
            pass  # the contract: XMLSyntaxError, not ValueError

    def test_invalid_ref_in_document_reports_line(self):
        with pytest.raises(XMLSyntaxError) as exc:
            parse_document("<a>\n&#xD800;</a>")
        assert exc.value.line == 2

    @pytest.mark.parametrize("ref,expect", [("&#65;", "A"), ("&#x42;", "B"), ("&#x10FFFF;", "\U0010FFFF")])
    def test_valid_refs_still_resolve(self, ref, expect):
        assert resolve_entities(ref) == expect


class TestChunkedResultStream:
    def test_chunks_join_to_serialize(self):
        session = open_session("d", "<r>" + "<v a='x'>t</v>" * 50 + "</r>")
        result = session.execute("(/r/v, 1, 2, 'three')")
        chunks = list(result.iter_serialized(chunk_chars=64))
        assert len(chunks) > 1
        assert "".join(chunks) == result.serialize()

    def test_cached_serialization_streams_whole(self):
        session = open_session("d", "<r><v>1</v></r>")
        result = session.execute("/r/v")
        text = result.serialize()  # caches
        assert list(result.iter_serialized(chunk_chars=1)) == [text]

    def test_empty_result_yields_no_chunks(self):
        session = open_session("d", "<r/>")
        result = session.execute("()")
        assert list(result.iter_serialized()) == []
        assert result.serialize() == ""


# --------------------------------------------------------------------------
# the batched result scan against the recursive oracle
# --------------------------------------------------------------------------
def _result(items) -> Table:
    """A top-level result table holding ``items`` (kind, payload) in order."""
    kinds = np.asarray([k for k, _ in items], dtype=np.uint8)
    data = np.asarray([p for _, p in items], dtype=np.int64)
    return Table(
        {
            "iter": np.ones(len(items), dtype=np.int64),
            "pos": np.arange(1, len(items) + 1, dtype=np.int64),
            "item": ItemColumn(kinds, data),
        }
    )


def _oracle(arena, items) -> str:
    """Item by item: nodes by recursive walk, one space between adjacent
    atomics."""
    out, prev_atomic = [], False
    for kind, payload in items:
        if kind == K_NODE:
            out.append(serialize_node_recursive(arena, payload))
        elif kind == K_ATTR:
            out.append(serialize_attribute(arena, payload))
        else:
            text = escape_text(it.lexical(kind, payload, arena.pool))
            out.append(" " + text if prev_atomic else text)
        prev_atomic = kind not in (K_NODE, K_ATTR)
    return "".join(out)


def _chunks(arena, items, chunk_chars):
    chunks = list(iter_serialized_chunks(_result(items), arena, chunk_chars))
    assert all(len(c) >= chunk_chars for c in chunks[:-1])
    return "".join(chunks)


_PICK = st.tuples(st.sampled_from(["node", "node", "attr", "int", "str"]), st.integers(0, 10**6))


class TestBatchedResultScan:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        tree=_tree(),
        picks=st.lists(_PICK, max_size=12),
        block_rows=st.sampled_from([1, 3, 1 << 10]),
        chunk_chars=st.sampled_from([1, 7, 64 * 1024]),
    )
    def test_random_results(self, monkeypatch, tree, picks, block_rows, chunk_chars):
        """Any mix of nodes (document node, ancestors beside their own
        descendants, repeats), attributes and atomics, scanned in blocks
        of any size and cut into chunks of any size."""
        monkeypatch.setattr(result_serializer, "_SCAN_ROWS", block_rows)
        arena = NodeArena()
        doc = shred_tree(arena, tree)
        items = []
        for what, n in picks:
            if what == "node":
                items.append((K_NODE, doc + n % (int(arena.size[doc]) + 1)))
            elif what == "attr" and arena.num_attrs:
                items.append((K_ATTR, n % arena.num_attrs))
            elif what == "int":
                items.append((K_INT, n))
            elif what == "str":
                items.append((K_STR, arena.pool.intern(f"<{n}&>")))
        assert _chunks(arena, items, chunk_chars) == _oracle(arena, items)

    def test_node_with_its_own_descendant(self):
        arena, doc = _shred('<r><a k="v">x<b/></a><c>y</c></r>')
        a, b = doc + 2, doc + 4
        items = [(K_NODE, a), (K_NODE, b), (K_NODE, doc), (K_NODE, a + 1)]
        assert _chunks(arena, items, 64) == _oracle(arena, items)

    @pytest.mark.parametrize("chunk_chars", [1, 5, 64 * 1024])
    def test_runs_longer_than_a_block(self, monkeypatch, chunk_chars):
        monkeypatch.setattr(result_serializer, "_SCAN_ROWS", 4)
        arena, doc = _shred("<r>" + "<v a='1'>t<w/></v>" * 40 + "</r>")
        nodes = [(K_NODE, int(r)) for r in range(doc, doc + int(arena.size[doc]) + 1)]
        items = nodes + [(K_INT, 1), (K_INT, 2), (K_ATTR, 0)] + nodes[::-1]
        assert _chunks(arena, items, chunk_chars) == _oracle(arena, items)

    def test_one_scan_per_run_of_nodes(self, monkeypatch):
        """Consecutive node items share one scan; an atomic between two
        nodes splits the run."""
        arena, doc = _shred("<r>" + "<v>t</v>" * 30 + "</r>")
        calls = []
        real = result_serializer.scan_parts

        def spy(arena_, nodes):
            calls.append(len(nodes))
            return real(arena_, nodes)

        monkeypatch.setattr(result_serializer, "scan_parts", spy)
        vs = [(K_NODE, doc + 2 + 2 * i) for i in range(30)]
        items = vs[:20] + [(K_INT, 7)] + vs[20:]
        assert _chunks(arena, items, 64) == _oracle(arena, items)
        assert calls == [20, 10]


def _reference_chunks(parts, chunk_chars):
    """The part-at-a-time chunker: a chunk ends with the first part that
    brings it to ``chunk_chars``."""
    out, buf, size = [], [], 0
    for part in parts:
        buf.append(part)
        size += len(part)
        if size >= chunk_chars:
            out.append("".join(buf))
            buf, size = [], 0
    if buf:
        out.append("".join(buf))
    return out


class TestChunkBoundaries:
    @settings(max_examples=60, deadline=None)
    @given(
        tree=_document(),
        picks=st.lists(_PICK, max_size=12),
        chunk_chars=st.integers(0, 300),
    )
    def test_cuts_match_a_part_at_a_time_chunker(self, tree, picks, chunk_chars):
        arena = NodeArena()
        doc = shred_tree(arena, tree)
        items = []
        for what, n in picks:
            if what == "node":
                items.append((K_NODE, doc + n % (int(arena.size[doc]) + 1)))
            elif what == "attr" and arena.num_attrs:
                items.append((K_ATTR, n % arena.num_attrs))
            elif what == "int":
                items.append((K_INT, n))
            elif what == "str":
                items.append((K_STR, arena.pool.intern(f"<{n}&>")))
        table = _result(items)
        parts = [p for ps in _item_parts(ordered_items(table), arena) for p in ps]
        chunks = list(iter_serialized_chunks(table, arena, chunk_chars))
        assert chunks == _reference_chunks(parts, chunk_chars)
        assert "".join(chunks) == _oracle(arena, items)
