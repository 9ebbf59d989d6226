"""Tests for result serialization (the paper's post-processor)."""

import pytest

from tests.conftest import open_session


@pytest.fixture
def session():
    return open_session("d", '<r><a k="v">text &amp; more</a><b/></r>')


class TestAtomicSerialization:
    def test_space_between_adjacent_atomics(self, session):
        assert session.execute("(1, 2, 3)").serialize() == "1 2 3"

    def test_no_space_around_nodes(self, session):
        assert session.execute("(1, /r/b, 2)").serialize() == "1<b/>2"

    def test_booleans(self, session):
        assert session.execute("(true(), false())").serialize() == "true false"

    def test_doubles(self, session):
        assert session.execute("(1.5, 2e3, 1e0 div 0e0)").serialize() == "1.5 2000 INF"

    def test_strings_escaped(self, session):
        # XQuery string literals use entity refs for markup characters
        out = session.execute('"a &lt; b &amp; c"').serialize()
        assert out == "a &lt; b &amp; c"

    def test_empty_sequence_is_empty_string(self, session):
        assert session.execute("()").serialize() == ""


class TestNodeSerialization:
    def test_element_round_trip(self, session):
        out = session.execute("/r/a").serialize()
        assert out == '<a k="v">text &amp; more</a>'

    def test_attribute_node(self, session):
        assert session.execute("/r/a/@k").serialize() == 'k="v"'

    def test_text_node(self, session):
        assert session.execute("/r/a/text()").serialize() == "text &amp; more"

    def test_constructed_tree(self, session):
        out = session.execute('<x><y z="1"/>{ "t" }</x>').serialize()
        assert out == '<x><y z="1"/>t</x>'

    def test_document_node_serializes_children(self, session):
        out = session.execute('doc("d")').serialize()
        assert out.startswith("<r>") and out.endswith("</r>")

    def test_escaping_in_constructed_attribute(self, session):
        out = session.execute("<x a='{ \"q&quot;q\" }'/>").serialize()
        assert out == '<x a="q&quot;q"/>'


class TestValuesAPI:
    def test_scalar_types_preserved(self, session):
        # 1.5 is xs:decimal — decoded as XSDecimal, a float subclass
        vals = session.execute("(1, 1.5, 2e0, 'x', true())").values()
        assert [type(v).__name__ for v in vals] == [
            "int", "XSDecimal", "float", "str", "bool",
        ]
        assert all(isinstance(v, float) for v in vals[1:3])

    def test_sequence_is_in_order(self, session):
        vals = session.execute("for $i in (3, 1, 2) order by $i return $i").values()
        assert vals == [1, 2, 3]

    def test_node_handles_string_value(self, session):
        (v,) = session.execute("/r/a").values()
        assert v.string_value() == "text & more"
