"""Unit tests for the XML parser, escaping and serializer."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import XMLSyntaxError
from repro.xml.escape import escape_attr, escape_text, resolve_entities

from tests.reference_xml import (
    XMLComment,
    XMLElement,
    XMLPi,
    XMLText,
    parse_document,
    serialize_tree,
)


class TestEntities:
    def test_builtin_entities(self):
        assert resolve_entities("a&lt;b&gt;c&amp;d&apos;e&quot;f") == "a<b>c&d'e\"f"

    def test_numeric_references(self):
        assert resolve_entities("&#65;&#x42;") == "AB"

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            resolve_entities("&nope;")

    def test_unterminated_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            resolve_entities("&amp")

    def test_escape_round_trip(self):
        text = "a<b&c>d"
        assert resolve_entities(escape_text(text)) == text

    def test_escape_attr_quotes(self):
        assert escape_attr('say "hi"') == "say &quot;hi&quot;"


class TestParser:
    def test_simple_element(self):
        root = parse_document("<a/>")
        assert root.name == "a" and not root.children

    def test_nested_structure(self):
        root = parse_document("<a><b>text</b><c/></a>")
        assert [type(c) for c in root.children] == [XMLElement, XMLElement]
        assert root.children[0].children[0].text == "text"

    def test_attributes_in_document_order(self):
        root = parse_document('<a x="1" y="2"/>')
        assert root.attributes == [("x", "1"), ("y", "2")]

    def test_attribute_entities_resolved(self):
        root = parse_document('<a t="&lt;&amp;"/>')
        assert root.attributes == [("t", "<&")]

    def test_single_quoted_attribute(self):
        root = parse_document("<a t='v'/>")
        assert root.attributes == [("t", "v")]

    def test_text_entities(self):
        root = parse_document("<a>1 &lt; 2</a>")
        assert root.children[0].text == "1 < 2"

    def test_cdata_merges_with_text(self):
        root = parse_document("<a>x<![CDATA[<raw>]]>y</a>")
        assert len(root.children) == 1
        assert root.children[0].text == "x<raw>y"

    def test_comment_node(self):
        root = parse_document("<a><!--note--></a>")
        assert isinstance(root.children[0], XMLComment)
        assert root.children[0].text == "note"

    def test_processing_instruction(self):
        root = parse_document("<a><?target some data?></a>")
        pi = root.children[0]
        assert isinstance(pi, XMLPi)
        assert pi.target == "target" and pi.data == "some data"

    def test_xml_declaration_and_doctype_skipped(self):
        root = parse_document('<?xml version="1.0"?><!DOCTYPE a><a/>')
        assert root.name == "a"

    def test_prolog_comments_skipped(self):
        assert parse_document("<!-- hi --><a/>").name == "a"

    def test_trailing_comment_allowed(self):
        assert parse_document("<a/><!-- done -->").name == "a"

    def test_mismatched_end_tag(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("<a></b>")

    def test_unterminated_element(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("<a><b></b>")

    def test_content_after_root_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("<a/>junk")

    def test_unquoted_attribute_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("<a x=1/>")

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as exc:
            parse_document("<a>\n<b x=5/></a>")
        assert exc.value.line == 2

    def test_names_with_punctuation(self):
        root = parse_document("<ns:a-b._c/>")
        assert root.name == "ns:a-b._c"

    def test_whitespace_only_text_is_preserved(self):
        root = parse_document("<a> <b/> </a>")
        kinds = [type(c) for c in root.children]
        assert kinds == [XMLText, XMLElement, XMLText]


class TestSerializer:
    def test_round_trip_simple(self):
        text = '<a x="1"><b>hi</b><c/>tail</a>'
        assert serialize_tree(parse_document(text)) == text

    def test_round_trip_escapes(self):
        text = "<a>1 &lt; 2 &amp; 3</a>"
        assert serialize_tree(parse_document(text)) == text

    def test_round_trip_comment_pi(self):
        text = "<a><!--c--><?p d?></a>"
        assert serialize_tree(parse_document(text)) == text

    def test_empty_element_collapsed(self):
        assert serialize_tree(parse_document("<a></a>")) == "<a/>"


_tag = st.sampled_from(["a", "b", "c", "item", "x1"])
_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="<>&{}"),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip())


@st.composite
def _tree(draw, depth=3):
    name = draw(_tag)
    attrs = draw(
        st.lists(st.tuples(st.sampled_from(["p", "q"]), _text), max_size=2, unique_by=lambda t: t[0])
    )
    if depth == 0:
        children = []
    else:
        children = draw(
            st.lists(
                st.one_of(
                    _text.map(XMLText),
                    _tree(depth=depth - 1),
                ),
                max_size=3,
            )
        )
    # adjacent text nodes merge on reparse; keep them separated
    merged = []
    for child in children:
        if merged and isinstance(child, XMLText) and isinstance(merged[-1], XMLText):
            continue
        merged.append(child)
    return XMLElement(name, list(attrs), merged)


class TestPropertyRoundTrip:
    @given(_tree())
    def test_serialize_parse_round_trip(self, tree):
        text = serialize_tree(tree)
        reparsed = parse_document(text)
        assert serialize_tree(reparsed) == text
