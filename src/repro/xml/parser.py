"""A from-scratch, non-validating XML parser.

The parser core is **event-emitting**: :func:`parse_events` walks the
document once with an explicit element stack (no recursion, so document
depth is not bounded by Python's recursion limit) and fires
start/text/end/comment/pi callbacks on an :class:`XMLEventHandler`.  Two
consumers exist: :func:`parse_document` plugs in a tree builder and
returns the familiar :class:`XMLElement` tree, while the streaming
shredder (:mod:`repro.encoding.shred`) appends straight into the arena's
column buffers without ever materialising a DOM.

Supports everything XMark documents (and reasonable hand-written test
documents) contain: the XML declaration, elements with attributes,
character data, CDATA sections, comments, processing instructions,
builtin entities and numeric character references.  Not supported
(raises): DTD internal subsets beyond skipping the declaration, and
general entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.errors import XMLSyntaxError
from repro.xml.escape import resolve_entities


@dataclass
class XMLText:
    """A run of character data."""

    text: str


@dataclass
class XMLComment:
    """An XML comment (without the delimiters)."""

    text: str


@dataclass
class XMLPi:
    """A processing instruction: ``<?target data?>``."""

    target: str
    data: str


@dataclass
class XMLElement:
    """An element: name, attribute list (document order) and children."""

    name: str
    attributes: list[tuple[str, str]] = field(default_factory=list)
    children: list["XMLNode"] = field(default_factory=list)


XMLNode = Union[XMLElement, XMLText, XMLComment, XMLPi]

_NAME_START = set("_:") | set(chr(c) for c in range(ord("a"), ord("z") + 1)) | set(
    chr(c) for c in range(ord("A"), ord("Z") + 1)
)
_NAME_CHARS = _NAME_START | set("-.") | set("0123456789")


class _Cursor:
    """Input cursor with line/column tracking for error messages."""

    __slots__ = ("text", "pos", "_nl_scan")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._nl_scan = 0

    def line_col(self) -> tuple[int, int]:
        """Line/column of the cursor."""
        return self.line_col_at(self.pos)

    def line_col_at(self, pos: int) -> tuple[int, int]:
        """Line/column of an arbitrary offset.

        O(offset) — error paths and references only; the parsing hot
        loop must not call this per token (character data and attribute
        values compute their position only when they contain a ``&``).
        """
        upto = self.text[:pos]
        line = upto.count("\n") + 1
        col = pos - (upto.rfind("\n") + 1) + 1
        return line, col

    def error(self, message: str) -> XMLSyntaxError:
        """An :class:`XMLSyntaxError` at the cursor (for the caller to raise)."""
        line, col = self.line_col()
        return XMLSyntaxError(message, line, col)

    def eof(self) -> bool:
        """Whether the whole input was consumed."""
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        """The next ``n`` characters, without consuming them."""
        return self.text[self.pos : self.pos + n]

    def startswith(self, s: str) -> bool:
        """Whether the input continues with ``s``."""
        return self.text.startswith(s, self.pos)

    def advance(self, n: int = 1) -> None:
        """Consume ``n`` characters."""
        self.pos += n

    def skip_ws(self) -> None:
        """Consume any XML whitespace."""
        text, n = self.text, len(self.text)
        p = self.pos
        while p < n and text[p] in " \t\r\n":
            p += 1
        self.pos = p

    def read_until(self, delim: str, what: str) -> str:
        """Consume and return everything before ``delim``, then ``delim``
        itself; ``what`` names the construct in the error if it is
        missing."""
        end = self.text.find(delim, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}")
        out = self.text[self.pos : end]
        self.pos = end + len(delim)
        return out

    def read_name(self) -> str:
        """Consume and return an XML name."""
        text = self.text
        start = self.pos
        if start >= len(text) or text[start] not in _NAME_START:
            raise self.error("expected a name")
        p = start + 1
        n = len(text)
        while p < n and text[p] in _NAME_CHARS:
            p += 1
        self.pos = p
        return text[start:p]

    def expect(self, s: str) -> None:
        """Consume ``s`` or raise."""
        if not self.startswith(s):
            raise self.error(f"expected {s!r}")
        self.advance(len(s))


class XMLEventHandler:
    """Callback interface for :func:`parse_events` (all no-ops here).

    Subclass and override what you need; adjacent character data and
    CDATA runs are merged into one :meth:`text` call, and empty merged
    runs are suppressed — exactly the coalescing the tree parser applies
    to :class:`XMLText` children.
    """

    def start_element(self, name: str, attributes: list[tuple[str, str]]) -> None:
        """An element's start tag (attributes in document order)."""

    def end_element(self, name: str) -> None:
        """An element's end tag (fires immediately for ``<e/>``)."""

    def text(self, data: str) -> None:
        """One merged run of character data (entities resolved)."""

    def comment(self, data: str) -> None:
        """A comment (without the delimiters)."""

    def pi(self, target: str, data: str) -> None:
        """A processing instruction."""


def parse_events(text: str, handler: XMLEventHandler) -> None:
    """Parse a complete XML document, firing events on ``handler``.

    This is the streaming entry point of the XML layer: one pass, an
    explicit element stack, and no tree allocation.  Leading/trailing
    misc (XML declaration, comments, PIs, whitespace) is accepted and
    discarded; exactly one root element is required.
    """
    cur = _Cursor(text)
    _skip_prolog(cur)
    if cur.eof() or cur.peek() != "<":
        raise cur.error("expected the root element")
    _parse_element_events(cur, handler)
    # trailing misc
    while not cur.eof():
        cur.skip_ws()
        if cur.eof():
            break
        if cur.startswith("<!--"):
            cur.advance(4)
            cur.read_until("-->", "comment")
        elif cur.startswith("<?"):
            cur.advance(2)
            cur.read_until("?>", "processing instruction")
        else:
            raise cur.error("content after the root element")


def parse_document(text: str) -> XMLElement:
    """Parse a complete XML document, returning the root element.

    A thin consumer of :func:`parse_events` that assembles the
    :class:`XMLElement` tree (the shredder's streaming path skips this
    entirely and shreds from the events).
    """
    builder = _TreeBuilder()
    parse_events(text, builder)
    return builder.root


class _TreeBuilder(XMLEventHandler):
    """Event handler that assembles the XMLElement tree."""

    __slots__ = ("root", "_stack")

    def __init__(self):
        self.root: XMLElement | None = None
        self._stack: list[XMLElement] = []

    def start_element(self, name: str, attributes: list[tuple[str, str]]) -> None:
        """Open an element under the current one (or as the root)."""
        elem = XMLElement(name, attributes)
        if self._stack:
            self._stack[-1].children.append(elem)
        else:
            self.root = elem
        self._stack.append(elem)

    def end_element(self, name: str) -> None:
        """Close the current element."""
        self._stack.pop()

    def text(self, data: str) -> None:
        """Append a text child."""
        self._stack[-1].children.append(XMLText(data))

    def comment(self, data: str) -> None:
        """Append a comment child."""
        self._stack[-1].children.append(XMLComment(data))

    def pi(self, target: str, data: str) -> None:
        """Append a processing-instruction child."""
        self._stack[-1].children.append(XMLPi(target, data))


def _skip_prolog(cur: _Cursor) -> None:
    """Consume the XML declaration, comments, PIs, a DOCTYPE and
    whitespace before the root element."""
    while True:
        cur.skip_ws()
        if cur.startswith("<?xml"):
            cur.advance(5)
            cur.read_until("?>", "XML declaration")
        elif cur.startswith("<!--"):
            cur.advance(4)
            cur.read_until("-->", "comment")
        elif cur.startswith("<!DOCTYPE"):
            cur.advance(9)
            depth = 1
            while depth and not cur.eof():
                ch = cur.peek()
                if ch == "<":
                    depth += 1
                elif ch == ">":
                    depth -= 1
                elif ch == "[":
                    cur.read_until("]", "DTD internal subset")
                    continue
                cur.advance()
            if depth:
                raise cur.error("unterminated DOCTYPE")
        elif cur.startswith("<?"):
            cur.advance(2)
            cur.read_until("?>", "processing instruction")
        else:
            return


def _parse_start_tag(
    cur: _Cursor, handler: XMLEventHandler
) -> tuple[str, bool]:
    """One start tag; returns ``(name, self_closing)`` after firing
    ``start_element`` (and ``end_element`` for ``<e/>``)."""
    cur.expect("<")
    name = cur.read_name()
    attributes: list[tuple[str, str]] = []
    while True:
        cur.skip_ws()
        if cur.startswith("/>"):
            cur.advance(2)
            handler.start_element(name, attributes)
            handler.end_element(name)
            return name, True
        if cur.startswith(">"):
            cur.advance(1)
            handler.start_element(name, attributes)
            return name, False
        attr_name = cur.read_name()
        cur.skip_ws()
        cur.expect("=")
        cur.skip_ws()
        quote = cur.peek()
        if quote not in ("'", '"'):
            raise cur.error("attribute value must be quoted")
        cur.advance(1)
        start = cur.pos
        raw = cur.read_until(quote, "attribute value")
        if "&" in raw:
            raw = resolve_entities(raw, *cur.line_col_at(start))
        attributes.append((attr_name, raw))


def _parse_element_events(cur: _Cursor, handler: XMLEventHandler) -> None:
    """The element grammar as one loop over an explicit open-tag stack."""
    stack: list[str] = []
    text_parts: list[str] = []

    def flush_text() -> None:
        if text_parts:
            merged = "".join(text_parts)
            text_parts.clear()
            if merged:
                handler.text(merged)

    while True:
        # cursor is at the '<' of an element start tag
        name, self_closing = _parse_start_tag(cur, handler)
        if not self_closing:
            stack.append(name)
        if not stack:  # a self-closing root: the document is done
            return
        # content of stack[-1], up to the next child start tag or the
        # close of every open element
        while True:
            if cur.eof():
                raise cur.error(f"unterminated element <{stack[-1]}>")
            if cur.peek() == "<":
                if cur.startswith("</"):
                    flush_text()
                    cur.advance(2)
                    end_name = cur.read_name()
                    open_name = stack.pop()
                    if end_name != open_name:
                        raise cur.error(
                            f"mismatched end tag </{end_name}> for <{open_name}>"
                        )
                    cur.skip_ws()
                    cur.expect(">")
                    handler.end_element(end_name)
                    if not stack:
                        return
                elif cur.startswith("<!--"):
                    flush_text()
                    cur.advance(4)
                    handler.comment(cur.read_until("-->", "comment"))
                elif cur.startswith("<![CDATA["):
                    cur.advance(9)
                    text_parts.append(cur.read_until("]]>", "CDATA section"))
                elif cur.startswith("<?"):
                    flush_text()
                    cur.advance(2)
                    body = cur.read_until("?>", "processing instruction")
                    target, _, data = body.partition(" ")
                    handler.pi(target, data.strip())
                else:
                    flush_text()
                    break  # a child element: parse its start tag
            else:
                start = cur.pos
                end = cur.text.find("<", start)
                if end < 0:
                    raise cur.error(f"unterminated element <{stack[-1]}>")
                raw = cur.text[start:end]
                cur.pos = end
                if "&" in raw:
                    raw = resolve_entities(raw, *cur.line_col_at(start))
                text_parts.append(raw)
