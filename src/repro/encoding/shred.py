"""Shredding: XML text (or parsed trees) → the XPath Accelerator encoding.

One pre-order pass assigns each node its ``(pre, size, level)`` triple —
``pre`` implicitly as the arena row id — interning every tag name,
attribute name and text value in the shared pool (so identical property
values share one surrogate, the paper's Section 3.1 storage optimisation).

The hot path is **streaming**: :func:`shred_text` consumes the parser's
start/text/end events (:func:`repro.xml.parser.parse_events`) and appends
column entries directly, so no :class:`~repro.xml.parser.XMLElement` tree
ever exists between the XML text and the arena — document load builds the
columns in the same single pass that parses the markup, roughly halving
peak ingest memory on the ``PUT /documents`` hot-replace path.
:func:`shred_tree` keeps the tree-walking entry point for already-parsed
trees (constructors, tests).
"""

from __future__ import annotations

import numpy as np

from repro.encoding.arena import (
    NK_COMMENT,
    NK_DOC,
    NK_ELEM,
    NK_PI,
    NK_TEXT,
    NodeArena,
)
from repro.xml.parser import (
    XMLComment,
    XMLElement,
    XMLEventHandler,
    XMLPi,
    XMLText,
    parse_events,
)


class _ShredHandler(XMLEventHandler):
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


def shred_text(arena: NodeArena, xml_text: str) -> int:
    """Parse and shred an XML document in one streaming pass.

    Returns the document-node row (what ``fn:doc`` yields).  No
    intermediate tree is built: parser events append column entries
    directly, and the columns land in the arena with one
    :meth:`~repro.encoding.arena.NodeArena.append_nodes` and one
    :meth:`~repro.encoding.arena.NodeArena.append_attrs` call.  The
    arena is only touched (beyond string interning) after the parse
    succeeds, so malformed XML leaves no half-made fragment behind.
    """
    handler = _ShredHandler(arena.pool)
    parse_events(xml_text, handler)
    handler.sizes[0] = len(handler.kinds) - 1  # the document's subtree
    return _emit(arena, handler)


def shred_tree(arena: NodeArena, root: XMLElement) -> int:
    """Shred an already-parsed tree into a fresh fragment.

    Returns the document node's arena row.  Used for trees constructed
    in memory; XML text should go through :func:`shred_text`, which
    skips the tree entirely.
    """
    handler = _ShredHandler(arena.pool)
    _replay_tree(root, handler)
    handler.sizes[0] = len(handler.kinds) - 1
    return _emit(arena, handler)


def _replay_tree(root: XMLElement, handler: _ShredHandler) -> None:
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


def _emit(arena: NodeArena, handler: _ShredHandler) -> int:
    """Bulk-append the collected columns as one fresh, contiguous
    fragment; returns the document row."""
    with arena.mutation_lock:
        arena.begin_fragment()
        # parents and attribute owners were fragment-relative offsets;
        # rebase them to global row ids
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
