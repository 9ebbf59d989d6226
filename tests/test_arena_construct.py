"""Tests for runtime node construction in the arena (ε/τ semantics)."""

import numpy as np
import pytest

from repro.encoding.arena import NK_TEXT, NodeArena
from repro.encoding.shred import shred_text
from repro.xml.serializer import serialize_node

from tests.conftest import open_session


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
