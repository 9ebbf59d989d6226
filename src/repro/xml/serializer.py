"""Serialization: arena nodes (or parsed trees) back to XML text.

This is the post-processor of the paper's Section 2 ("a simple
post-processor then serializes the relational result to form a response in
terms of the XQuery data model") — the node-to-markup half; the sequence
half lives in :mod:`repro.compiler.serialize`.

The arena serializer is a **scan**, not a tree walk: the pre/size
property says the subtree of row ``p`` is exactly rows ``p .. p+size[p]``,
so it gathers ``kind/size/name/value`` over those rows once — for a whole
batch of result nodes at a time — batch-decodes every pool surrogate they
need, fetches all their attributes with one
:meth:`~repro.encoding.arena.NodeArena.attrs_in_spans` call, and emits
markup in row order — open tags as rows arrive, close tags when the scan
passes a subtree's end row (``p + size[p]``, the region encoding of the
level-delta).  No recursion, no per-node ``children_ranges`` calls.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.arena import NK_COMMENT, NK_DOC, NK_ELEM, NK_PI, NK_TEXT, NodeArena
from repro.relational.kernels import multi_arange
from repro.xml.escape import escape_attr, escape_text
from repro.xml.parser import XMLComment, XMLElement, XMLPi, XMLText


def serialize_node(arena: NodeArena, node: int) -> str:
    """Serialise the subtree rooted at arena row ``node`` to XML text."""
    return "".join(scan_parts(arena, (node,)))


def serialize_attribute(arena: NodeArena, attr_id: int) -> str:
    """Serialise a standalone attribute as ``name="value"``."""
    arena.ensure_attrs((attr_id,))
    name = arena.pool.value(int(arena.attr_name[attr_id]))
    value = arena.pool.value(int(arena.attr_value[attr_id]))
    return f'{name}="{escape_attr(value)}"'


def scan_parts(arena: NodeArena, nodes) -> list[str]:
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


# ---------------------------------------------------------------------------
# the pre-scan recursive serializer, kept as the differential-test oracle
# ---------------------------------------------------------------------------
def serialize_node_recursive(arena: NodeArena, node: int) -> str:
    """Serialise row ``node``'s subtree by recursive tree walk.

    The original node-at-a-time post-processor (one ``children_ranges`` /
    ``attr_ranges`` call per node).  Kept as the oracle the scan
    serializer is differentially tested against
    (``tests/test_serialize_roundtrip.py``).
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


def serialize_tree(node) -> str:
    """Serialise a parsed (:mod:`repro.xml.parser`) tree back to XML text."""
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
