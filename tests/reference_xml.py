"""The DOM path and the event shredder, kept as test oracles.

The library shreds XML text column at a time
(:func:`repro.encoding.shred.shred_text`) and builds no tree.  What it
replaced lives here, unchanged in behaviour:

* :func:`parse_document` — the :class:`XMLElement` tree built from
  :func:`~repro.xml.parser.parse_events`' callbacks;
* :class:`ShredHandler` / :func:`shred_events` — the event shredder, one
  Python call per token, the reference the columnar shredder must match
  byte for byte (columns and string pool);
* :func:`shred_tree` — shreds a tree by replaying the events a parse
  would have fired;
* :func:`serialize_tree` — a recursive tree serializer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.encoding.arena import (
    NK_COMMENT,
    NK_DOC,
    NK_ELEM,
    NK_PI,
    NK_TEXT,
    NodeArena,
)
from repro.xml.escape import escape_attr, escape_text
from repro.xml.parser import XMLEventHandler, parse_events


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


def parse_document(text: str) -> XMLElement:
    """Parse a complete XML document, returning the root element."""
    builder = _TreeBuilder()
    parse_events(text, builder)
    return builder.root


class _TreeBuilder(XMLEventHandler):
    """Event handler that assembles the XMLElement tree."""

    __slots__ = ("root", "_stack")

    def __init__(self):
        self.root: XMLElement | None = None
        self._stack: list[XMLElement] = []

    def start_element(self, name, attributes) -> None:
        elem = XMLElement(name, attributes)
        if self._stack:
            self._stack[-1].children.append(elem)
        else:
            self.root = elem
        self._stack.append(elem)

    def end_element(self, name) -> None:
        self._stack.pop()

    def text(self, data) -> None:
        self._stack[-1].children.append(XMLText(data))

    def comment(self, data) -> None:
        self._stack[-1].children.append(XMLComment(data))

    def pi(self, target, data) -> None:
        self._stack[-1].children.append(XMLPi(target, data))


class ShredHandler(XMLEventHandler):
    """Parser events → pre-order column entries (fragment-relative).

    The document node sits at offset 0; ``_open`` tracks the offsets of
    the document and every open element, so ``parent`` is always
    ``_open[-1]`` and ``level`` is the stack depth.  ``size`` is patched
    when an element closes: by then exactly the rows of its subtree have
    been appended after it.
    """

    __slots__ = (
        "_intern", "kinds", "sizes", "levels", "parents", "names",
        "values", "attr_owners", "attr_names", "attr_values", "_open",
    )

    def __init__(self, pool):
        self._intern = pool.intern
        self.kinds: list[int] = [NK_DOC]
        self.sizes: list[int] = [0]
        self.levels: list[int] = [0]
        self.parents: list[int] = [-1]
        self.names: list[int] = [-1]
        self.values: list[int] = [-1]
        self.attr_owners: list[int] = []  # owner offsets
        self.attr_names: list[int] = []
        self.attr_values: list[int] = []
        self._open: list[int] = [0]  # document node at offset 0

    def start_element(self, name, attributes) -> None:
        offset = len(self.kinds)
        self.kinds.append(NK_ELEM)
        self.sizes.append(0)  # patched in end_element
        self.levels.append(len(self._open))
        self.parents.append(self._open[-1])
        self.names.append(self._intern(name))
        self.values.append(-1)
        for aname, avalue in attributes:
            self.attr_owners.append(offset)
            self.attr_names.append(self._intern(aname))
            self.attr_values.append(self._intern(avalue))
        self._open.append(offset)

    def end_element(self, name) -> None:
        offset = self._open.pop()
        self.sizes[offset] = len(self.kinds) - offset - 1

    def text(self, data) -> None:
        self._leaf(NK_TEXT, -1, self._intern(data))

    def comment(self, data) -> None:
        self._leaf(NK_COMMENT, -1, self._intern(data))

    def pi(self, target, data) -> None:
        self._leaf(NK_PI, self._intern(target), self._intern(data))

    def _leaf(self, kind: int, name_id: int, value_id: int) -> None:
        self.kinds.append(kind)
        self.sizes.append(0)
        self.levels.append(len(self._open))
        self.parents.append(self._open[-1])
        self.names.append(name_id)
        self.values.append(value_id)


def shred_events(arena: NodeArena, xml_text: str, parse=parse_events) -> int:
    """The event shredder: ``parse`` fires the events of ``xml_text`` on
    a :class:`ShredHandler`, whose columns land in ``arena``."""
    handler = ShredHandler(arena.pool)
    parse(xml_text, handler)
    handler.sizes[0] = len(handler.kinds) - 1  # the document's subtree
    return _emit(arena, handler)


def shred_tree(arena: NodeArena, root: XMLElement) -> int:
    """Shred an already-parsed tree into a fresh fragment."""
    handler = ShredHandler(arena.pool)
    _replay_tree(root, handler)
    handler.sizes[0] = len(handler.kinds) - 1
    return _emit(arena, handler)


def _replay_tree(root: XMLElement, handler: ShredHandler) -> None:
    """Fire the event sequence an equivalent parse would have produced."""
    handler.start_element(root.name, root.attributes)
    for child in root.children:
        if isinstance(child, XMLText):
            handler.text(child.text)
        elif isinstance(child, XMLComment):
            handler.comment(child.text)
        elif isinstance(child, XMLPi):
            handler.pi(child.target, child.data)
        else:
            _replay_tree(child, handler)
    handler.end_element(root.name)


def _emit(arena: NodeArena, handler: ShredHandler) -> int:
    """Bulk-append the collected columns as one fresh fragment."""
    with arena.mutation_lock:
        arena.begin_fragment()
        first_row = arena.num_nodes
        rebased = np.asarray(handler.parents, dtype=np.int64)
        rebased[1:] += first_row  # only the document node has no parent
        base = arena.append_nodes(
            handler.kinds,
            handler.sizes,
            handler.levels,
            rebased,
            handler.names,
            handler.values,
        )
        arena.append_attrs(
            np.asarray(handler.attr_owners, dtype=np.int64) + base,
            handler.attr_names,
            handler.attr_values,
        )
        return base


def serialize_tree(node) -> str:
    """Serialise a parsed tree back to XML text."""
    out: list[str] = []
    _serialize_parsed(node, out)
    return "".join(out)


def _serialize_parsed(node, out: list[str]) -> None:
    if isinstance(node, XMLText):
        out.append(escape_text(node.text))
    elif isinstance(node, XMLComment):
        out.append(f"<!--{node.text}-->")
    elif isinstance(node, XMLPi):
        out.append(f"<?{node.target} {node.data}?>" if node.data else f"<?{node.target}?>")
    elif isinstance(node, XMLElement):
        out.append(f"<{node.name}")
        for name, value in node.attributes:
            out.append(f' {name}="{escape_attr(value)}"')
        if not node.children:
            out.append("/>")
            return
        out.append(">")
        for child in node.children:
            _serialize_parsed(child, out)
        out.append(f"</{node.name}>")
