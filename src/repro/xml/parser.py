"""A from-scratch, non-validating XML parser: the grammar, and the
scanner that names faults.

Documents are loaded by the columnar shredder
(:func:`repro.encoding.shred.shred_text`), which reads whole chunks of
text with numpy and this module's patterns; it calls :func:`parse_events`
only when a document fails one of its checks, to raise the
:class:`XMLSyntaxError` with its line and column.  :func:`parse_events`
walks the document once with an explicit element stack (no recursion,
so document depth is not bounded by Python's recursion limit) and fires
start/text/end/comment/pi callbacks on an :class:`XMLEventHandler`;
:func:`skip_prolog` and :func:`skip_trailing` read what may surround
the root element, for both readers.

Element content is scanned by **one compiled token pattern**
(:data:`_TOKEN`) applied with ``pattern.match(text, pos)`` at the
current offset: each match is one C-level scan over a whole construct —
a text run, a start tag with its whole attribute span, an end tag, a
comment, a CDATA section or a PI — so Python runs once per token, not
once per character.  A second pattern (:data:`_ATTR`) splits a tag's
attribute span into name/value pairs.  The text is streamed: no list of
tokens is ever built.

Errors are :class:`XMLSyntaxError` with a line and column, and only the
failure path counts lines: when no token matches at an offset, a short
diagnosis reads the construct there and names what is wrong (an
unterminated comment, CDATA section or PI, a missing name, an unquoted
attribute value, a mismatched end tag, an unterminated element, content
after the root).  Beyond the grammar the scanner enforces unique
attribute names within a tag, whitespace between attributes and no
literal ``<`` in an attribute value; a PI target ends at the first
whitespace character, and a leading byte-order mark is skipped.

Supports everything XMark documents (and reasonable hand-written test
documents) contain: the XML declaration, elements with attributes,
character data, CDATA sections, comments, processing instructions,
builtin entities and numeric character references.  Names are ASCII.
Not supported (raises): DTD internal subsets beyond skipping the
declaration, and general entities.
"""

from __future__ import annotations

import re

from repro.errors import XMLSyntaxError
from repro.xml.escape import resolve_entities


_S = "[ \t\r\n]"
_NAME = "[A-Za-z_:][A-Za-z0-9_:.-]*"

#: one token of element content, matched at the current offset; which
#: alternative matched is ``match.lastindex``: a text run (only when a
#: ``<`` follows it), a start tag with its whole attribute span, an end
#: tag, a comment, a CDATA section or a processing instruction
_TOKEN = re.compile(
    "([^<]+)(?=<)"
    f"|<({_NAME})((?:{_S}+{_NAME}{_S}*={_S}*(?:\"[^<\"]*\"|'[^<']*'))*){_S}*(/?)>"
    f"|</({_NAME}){_S}*>"
    "|<!--(.*?)-->"
    r"|<!\[CDATA\[(.*?)]]>"
    r"|<\?(.*?)\?>",
    re.S,
)
#: ``lastindex`` of each alternative, also the group holding its body
#: (for a start tag: ``"/"`` when self-closing, else ``""``)
_TEXT, _START, _END, _COMMENT, _CDATA, _PI = 1, 4, 5, 6, 7, 8
_TAG, _SPAN = 2, 3  # a start tag's name and attribute span

#: one ``name="value"`` of a start tag's attribute span (quotes kept)
_ATTR = re.compile(f"{_S}+({_NAME}){_S}*={_S}*(\"[^\"]*\"|'[^']*')")

_WS = re.compile(f"{_S}*")
_NAME_AT = re.compile(_NAME)
_PI_TARGET = re.compile("[^ \t\r\n]*")
_DOCTYPE_MARK = re.compile(r"[<>\[]")


class XMLEventHandler:
    """Callback interface for :func:`parse_events` (all no-ops here).

    Subclass and override what you need; adjacent character data and
    CDATA runs are merged into one :meth:`text` call, and empty merged
    runs are suppressed — the text nodes a shredded document holds.
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

    One pass, an explicit element stack, and no tree allocation.  A
    leading byte-order mark and leading/trailing misc (XML declaration,
    DOCTYPE, comments, PIs, whitespace) are accepted and discarded;
    exactly one root element is required.
    """
    pos = skip_prolog(text, 1 if text.startswith("\ufeff") else 0)
    if not text.startswith("<", pos):
        raise _error(text, pos, "expected the root element")
    skip_trailing(text, _scan_elements(text, pos, handler))


def skip_trailing(text: str, pos: int) -> None:
    """Check that only misc (whitespace, comments, PIs) follows the root
    element, which ends at ``pos``."""
    while True:
        pos = _WS.match(text, pos).end()
        if pos >= len(text):
            return
        if text.startswith("<!--", pos):
            pos = _skip_past(text, pos + 4, "-->", "comment")
        elif text.startswith("<?", pos):
            pos = _skip_past(text, pos + 2, "?>", "processing instruction")
        else:
            raise _error(text, pos, "content after the root element")


def skip_prolog(text: str, pos: int) -> int:
    """The offset past the XML declaration, comments, PIs, a DOCTYPE and
    whitespace before the root element."""
    while True:
        pos = _WS.match(text, pos).end()
        if text.startswith("<?xml", pos):
            pos = _skip_past(text, pos + 5, "?>", "XML declaration")
        elif text.startswith("<!--", pos):
            pos = _skip_past(text, pos + 4, "-->", "comment")
        elif text.startswith("<!DOCTYPE", pos):
            pos = _skip_doctype(text, pos + 9)
        elif text.startswith("<?", pos):
            pos = _skip_past(text, pos + 2, "?>", "processing instruction")
        else:
            return pos


def _skip_doctype(text: str, pos: int) -> int:
    """The offset past a DOCTYPE whose ``<!DOCTYPE`` ends before ``pos``:
    nested ``<``/``>`` pairs balance, and a ``[...]`` internal subset is
    skipped whole."""
    depth = 1
    while depth:
        mark = _DOCTYPE_MARK.search(text, pos)
        if mark is None:
            raise _error(text, len(text), "unterminated DOCTYPE")
        pos = mark.start()
        if text[pos] == "[":
            pos = _skip_past(text, pos, "]", "DTD internal subset")
        else:
            depth += 1 if text[pos] == "<" else -1
            pos += 1
    return pos


def _skip_past(text: str, pos: int, delim: str, what: str) -> int:
    """The offset just past the first ``delim`` at or after ``pos``;
    ``what`` names the construct in the error if there is none."""
    end = text.find(delim, pos)
    if end < 0:
        raise _error(text, pos, f"unterminated {what}")
    return end + len(delim)


def _scan_elements(text: str, pos: int, handler: XMLEventHandler) -> int:
    """Fire the events of the root element starting at ``pos``, one
    :data:`_TOKEN` match per construct; returns the offset past it.

    Text and CDATA runs collect in ``parts`` and are flushed as one merged
    ``text`` event (none if empty) by the next other token.
    """
    match = _TOKEN.match
    start_element = handler.start_element
    end_element = handler.end_element
    stack: list[str] = []
    parts: list[str] = []
    token = match(text, pos)
    if token is None or token.lastindex != _START:
        raise _start_tag_error(text, pos)
    while True:
        kind = token.lastindex
        if kind == _TEXT:
            raw = token.group(_TEXT)
            if "&" in raw:
                raw = _resolve(raw, text, token.start())
            parts.append(raw)
        elif kind == _CDATA:
            parts.append(token.group(_CDATA))
        else:
            if parts:
                merged = "".join(parts)
                parts.clear()
                if merged:
                    handler.text(merged)
            if kind == _START:
                name = token.group(_TAG)
                start_element(name, _attributes(token) if token.group(_SPAN) else [])
                if token.group(_START):
                    end_element(name)
                    if not stack:  # a self-closing root
                        return token.end()
                else:
                    stack.append(name)
            elif kind == _END:
                name = token.group(_END)
                open_name = stack.pop()
                if name != open_name:
                    raise _error(
                        text,
                        token.end(_END),
                        f"mismatched end tag </{name}> for <{open_name}>",
                    )
                end_element(name)
                if not stack:
                    return token.end()
            elif kind == _COMMENT:
                handler.comment(token.group(_COMMENT))
            else:
                body = token.group(_PI)
                target = _PI_TARGET.match(body).group()
                handler.pi(target, body[len(target) :].strip())
        pos = token.end()
        token = match(text, pos)
        if token is None:
            raise _content_error(text, pos, stack[-1])


def _attributes(tag: re.Match) -> list[tuple[str, str]]:
    """The ``(name, value)`` pairs of a matched start tag's attribute
    span, references resolved, names checked unique."""
    attributes = []
    for name, quoted in _ATTR.findall(tag.group(_SPAN)):
        value = quoted[1:-1]
        if "&" in value:
            try:
                value = resolve_entities(value)
            except XMLSyntaxError:
                # resolve again, now positioned: this raises the same error
                at = _attribute_matches(tag)[len(attributes)].start(2) + 1
                value = resolve_entities(value, *_line_col(tag.string, at))
        attributes.append((name, value))
    if len(attributes) > 1 and len(dict(attributes)) < len(attributes):
        seen = set()
        for attr in _attribute_matches(tag):
            if attr.group(1) in seen:
                raise _error(
                    tag.string, attr.start(1), f"duplicate attribute {attr.group(1)}"
                )
            seen.add(attr.group(1))
    return attributes


def _attribute_matches(tag: re.Match) -> list[re.Match]:
    """The attribute matches of a tag's span, with their offsets in the
    document (failure path)."""
    return list(_ATTR.finditer(tag.string, tag.start(_SPAN), tag.end(_SPAN)))


def _resolve(raw: str, text: str, start: int) -> str:
    """``raw`` (found at ``text[start]``) with its references resolved;
    the position is only computed when a reference is malformed."""
    try:
        return resolve_entities(raw)
    except XMLSyntaxError:
        # resolve again, now positioned: this raises the same error
        return resolve_entities(raw, *_line_col(text, start))


# ------------------------------------------------------------ failure path
#
# When no token matches at an offset, these read only the construct
# there and name what is wrong with it and where.  Lines and columns are
# counted only on this path.


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """Line/column of offset ``pos`` (1-based)."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _error(text: str, pos: int, message: str) -> XMLSyntaxError:
    """An :class:`XMLSyntaxError` at offset ``pos`` (for the caller to raise)."""
    return XMLSyntaxError(message, *_line_col(text, pos))


def _content_error(text: str, pos: int, open_name: str) -> XMLSyntaxError:
    """Why no token matches at ``pos`` inside element ``open_name``."""
    if text.startswith("</", pos):
        return _end_tag_error(text, pos, open_name)
    if text.startswith("<!--", pos):
        return _error(text, pos + 4, "unterminated comment")
    if text.startswith("<![CDATA[", pos):
        return _error(text, pos + 9, "unterminated CDATA section")
    if text.startswith("<?", pos):
        return _error(text, pos + 2, "unterminated processing instruction")
    if text.startswith("<", pos):
        return _start_tag_error(text, pos)
    # end of input, or a text run with no markup after it
    return _error(text, pos, f"unterminated element <{open_name}>")


def _end_tag_error(text: str, pos: int, open_name: str) -> XMLSyntaxError:
    """Why the end tag at ``pos`` does not close ``open_name``."""
    name = _NAME_AT.match(text, pos + 2)
    if name is None:
        return _error(text, pos + 2, "expected a name")
    if name.group() != open_name:
        return _error(
            text,
            name.end(),
            f"mismatched end tag </{name.group()}> for <{open_name}>",
        )
    return _error(text, _WS.match(text, name.end()).end(), "expected '>'")


def _start_tag_error(text: str, pos: int) -> XMLSyntaxError:
    """Why the start tag at ``pos`` does not match, read attribute by
    attribute.  Each attribute is first read as the grammar requires
    (name, ``=``, quoted value, references); only then do the rules that
    need whitespace before it and no ``<`` in its value apply, so they
    never hide an error earlier in the same attribute."""
    name = _NAME_AT.match(text, pos + 1)
    if name is None:
        return _error(text, pos + 1, "expected a name")
    end = name.end()
    while True:
        at = _WS.match(text, end).end()
        name = _NAME_AT.match(text, at)
        if name is None:
            return _error(text, at, "expected a name")
        eq = _WS.match(text, name.end()).end()
        if not text.startswith("=", eq):
            return _error(text, eq, "expected '='")
        opening = _WS.match(text, eq + 1).end()
        quote = text[opening : opening + 1]
        if quote not in ("'", '"'):
            return _error(text, opening, "attribute value must be quoted")
        closing = text.find(quote, opening + 1)
        if closing < 0:
            return _error(text, opening + 1, "unterminated attribute value")
        _resolve(text[opening + 1 : closing], text, opening + 1)
        if at == end:
            return _error(text, at, "attributes must be separated by whitespace")
        lt = text.find("<", opening + 1, closing)
        if lt >= 0:
            return _error(text, lt, "'<' in an attribute value")
        end = closing + 1
