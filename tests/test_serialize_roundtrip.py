"""Round-trip and differential tests for the vectorised document I/O path.

The scan serializer and the streaming shredder are the two ends of the
document fast path; this suite pins them to the tree-walking oracles:

* parse → shred → scan-serialize → reparse is identity-preserving (the
  serialized form is a fixpoint) over XMark output and hand-written
  documents with CDATA, PIs, comments, numeric character references and
  empty elements;
* the scan serializer matches the recursive serializer on **every row**
  of those fragments (every node kind, elements with and without
  attributes/children);
* the streaming shredder builds the same arena as the DOM path and never
  constructs an :class:`~repro.xml.parser.XMLElement`;
* the batched result scan (``iter_serialized_chunks``: one scan per
  block of consecutive node items) equals the recursive oracle item by
  item, joined by the atomic-separator rule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import serialize as result_serializer
from repro.compiler.serialize import iter_serialized_chunks
from repro.encoding.arena import NodeArena
from repro.encoding.shred import shred_text, shred_tree
from repro.errors import XMLSyntaxError
from repro.relational import items as it
from repro.relational.items import K_ATTR, K_INT, K_NODE, K_STR, ItemColumn
from repro.relational.table import Table
from repro.xml.escape import escape_text, resolve_entities
from repro.xml.parser import XMLElement, parse_document
from repro.xml.serializer import (
    serialize_attribute,
    serialize_node,
    serialize_node_recursive,
    serialize_tree,
)
from repro.xmark import generate_document

from tests.conftest import open_session
from tests.test_xml import _tree

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


class TestStreamingShredder:
    def test_no_dom_on_the_streaming_path(self, monkeypatch):
        """shred_text never constructs an XMLElement (the whole point of
        the event-driven pass)."""

        def boom(self, *args, **kwargs):
            raise AssertionError("XMLElement constructed on the streaming path")

        monkeypatch.setattr(XMLElement, "__init__", boom)
        arena = NodeArena()
        doc = shred_text(arena, "<r><a x='1'>t</a><!--c--><?p d?></r>")
        assert int(arena.size[doc]) == 5  # r + a + text + comment + pi
        # sanity: the tree-building path does construct elements
        with pytest.raises(AssertionError):
            parse_document("<r/>")

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
