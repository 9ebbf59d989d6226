"""Tests for the XPath Accelerator encoding (shredding invariants), and
the columnar shredder against the event shredder it replaced
(:func:`tests.reference_xml.shred_events`) on XMark documents."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from repro.encoding.arena import NK_DOC, NK_ELEM, NK_TEXT, NodeArena
from repro.encoding import shred
from repro.encoding.shred import shred_text
from repro.encoding.storage import measure_storage
from repro.xml.serializer import serialize_node

from repro.xmark import generate_document

from tests.reference_xml import serialize_tree, shred_events, shred_tree
from tests.test_xml import _tree


def _invariants(arena: NodeArena, doc: int):
    """Check the structural invariants of the pre|size|level encoding."""
    end = doc + int(arena.size[doc])
    for v in range(doc, end + 1):
        size = int(arena.size[v])
        level = int(arena.level[v])
        parent = int(arena.parent[v])
        # size counts exactly the rows of the subtree
        assert doc <= v + size <= end
        if v == doc:
            assert parent == -1 and level == 0
        else:
            # parent is an ancestor: containment in row-id space
            assert parent >= doc
            assert parent < v <= parent + int(arena.size[parent])
            assert level == int(arena.level[parent]) + 1
        # children sizes sum to size
        child_sum = 0
        w = v + 1
        while w <= v + size:
            child_sum += int(arena.size[w]) + 1
            w += int(arena.size[w]) + 1
        assert child_sum == size


class TestShredding:
    def test_counts(self, small_arena):
        arena, doc = small_arena
        # doc + site + 4 direct a/b + nest + deep + inner a's + text nodes
        assert arena.kind[doc] == NK_DOC
        assert arena.num_attrs == 2

    def test_invariants_small(self, small_arena):
        arena, doc = small_arena
        _invariants(arena, doc)

    def test_round_trip(self, small_arena):
        arena, doc = small_arena
        from tests.conftest import SMALL_XML

        assert serialize_node(arena, doc) == SMALL_XML

    def test_pre_order_is_document_order(self, small_arena):
        arena, doc = small_arena
        # first element after the document node is the root element
        assert arena.kind[doc + 1] == NK_ELEM
        assert arena.name[doc + 1] == arena.pool.lookup("site")

    def test_property_surrogates_shared(self):
        arena = NodeArena()
        shred_text(arena, "<r><a>dup</a><a>dup</a></r>")
        a_id = arena.pool.lookup("a")
        # both <a> elements share one name surrogate
        rows = np.nonzero(arena.name == a_id)[0]
        assert len(rows) == 2
        texts = np.nonzero(arena.kind == NK_TEXT)[0]
        assert arena.value[texts[0]] == arena.value[texts[1]]

    def test_attributes_reference_owner(self):
        arena = NodeArena()
        doc = shred_text(arena, '<r><x a="1" b="2"/></r>')
        assert arena.num_attrs == 2
        x_row = doc + 2
        assert list(arena.attr_owner) == [x_row, x_row]

    def test_multiple_documents_are_separate_fragments(self):
        arena = NodeArena()
        d1 = shred_text(arena, "<a><b/></a>")
        d2 = shred_text(arena, "<c/>")
        assert arena.frag[d1] != arena.frag[d2]
        assert arena.root_of(np.asarray([d2]))[0] == d2
        assert arena.frag_end(np.asarray([d1]))[0] == d1 + arena.size[d1]

    @settings(max_examples=30, deadline=None)
    @given(_tree())
    def test_random_tree_invariants_and_round_trip(self, tree):
        arena = NodeArena()
        doc = shred_tree(arena, tree)
        _invariants(arena, doc)
        assert serialize_node(arena, doc) == serialize_tree(tree)


class TestStringValue:
    def test_text_node(self):
        arena = NodeArena()
        shred_text(arena, "<a>hello</a>")
        texts = np.nonzero(arena.kind == NK_TEXT)[0]
        sid = arena.string_value_id(int(texts[0]))
        assert arena.pool.value(sid) == "hello"

    def test_element_concatenates_descendants(self):
        arena = NodeArena()
        doc = shred_text(arena, "<a>x<b>y</b>z</a>")
        sid = arena.string_value_id(doc)
        assert arena.pool.value(sid) == "xyz"

    def test_empty_element(self):
        arena = NodeArena()
        doc = shred_text(arena, "<a><b/></a>")
        assert arena.pool.value(arena.string_value_id(doc)) == ""

    def test_cached(self):
        arena = NodeArena()
        doc = shred_text(arena, "<a>q</a>")
        assert arena.string_value_id(doc) == arena.string_value_id(doc)


class TestStorage:
    def test_report_fields(self):
        arena = NodeArena()
        xml = "<r>" + "<a>text</a>" * 50 + "</r>"
        shred_text(arena, xml)
        report = measure_storage(arena, len(xml.encode()))
        assert report.node_rows == arena.num_nodes
        assert report.encoded_bytes == (
            report.node_table_bytes + report.attr_table_bytes + report.pool_bytes
        )
        assert report.overhead_pct > 0

    def test_duplicate_text_reduces_relative_size(self):
        # surrogate sharing: duplicated text costs pool bytes only once
        dup = "<r>" + "<a>same words here</a>" * 200 + "</r>"
        uniq = "<r>" + "".join(f"<a>unique {i} words</a>" for i in range(200)) + "</r>"
        a1, a2 = NodeArena(), NodeArena()
        shred_text(a1, dup)
        shred_text(a2, uniq)
        r1 = measure_storage(a1, len(dup.encode()))
        r2 = measure_storage(a2, len(uniq.encode()))
        assert r1.overhead_pct < r2.overhead_pct


def _state(arena: NodeArena) -> tuple:
    """Every arena column, byte for byte, and the string pool."""
    columns = ("kind", "size", "level", "frag", "parent", "name", "value",
               "attr_owner", "attr_name", "attr_value")
    return (
        [getattr(arena, c).tobytes() for c in columns],
        arena.pool.values(range(len(arena.pool))),
    )


def _shredded(shred_fn, text: str) -> tuple:
    arena = NodeArena()
    shred_fn(arena, "<w a='1'>x</w>")
    shred_fn(arena, text)
    return _state(arena)


class TestColumnarShredder:
    @pytest.mark.parametrize("seed", [42, 43])
    @pytest.mark.parametrize("scale", [0.005, 0.02])
    def test_xmark_columns_and_pool_are_byte_identical(self, scale, seed):
        text = generate_document(scale, seed=seed)
        assert _shredded(shred_text, text) == _shredded(shred_events, text)

    @pytest.mark.parametrize("chars", [1, 333, 4096])
    def test_small_chunks_change_nothing(self, chars, monkeypatch):
        """Chunks cut anywhere: the same columns and pool."""
        text = generate_document(0.005 if chars > 1 else 0.0005, seed=42)
        expected = _shredded(shred_events, text)
        monkeypatch.setattr(shred, "CHUNK_CHARS", chars)
        assert _shredded(shred_text, text) == expected

    def test_lone_surrogates_shred_like_the_event_shredder(self):
        """A non-ASCII chunk is read one slot per code point, a lone
        surrogate included."""
        text = "<r a='\ud800'>x\ud800y<!--\udfff--><b c='\udc00\u00e9'/>\ud800</r>"
        assert _shredded(shred_text, text) == _shredded(shred_events, text)

    def test_peak_memory_at_most_the_event_shredders(self):
        """tracemalloc's peak while one XMark 0.02 document shreds."""
        text = generate_document(0.02, seed=42)

        def peak(shred_fn) -> int:
            arena = NodeArena()
            shred_fn(arena, "<w/>")
            tracemalloc.start()
            try:
                shred_fn(arena, text)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(shred_text) <= peak(shred_events)

