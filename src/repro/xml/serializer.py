"""Serialization: arena nodes back to XML text.

This is the post-processor of the paper's Section 2 ("a simple
post-processor then serializes the relational result to form a response in
terms of the XQuery data model") — the node-to-markup half; the sequence
half lives in :mod:`repro.compiler.serialize`.

The arena serializer is a **column-at-a-time scan**, not a tree walk:
the pre/size property says the subtree of row ``p`` is exactly rows
``p .. p+size[p]``, so it gathers ``kind/size/level/name/value`` over
those rows once — for a whole batch of result nodes at a time — and
fetches all their attributes with one
:meth:`~repro.encoding.arena.NodeArena.attrs_in_spans` call.  Every row
then contributes one *open* part (a tag, an escaped text, a comment or
PI) and every element with children one *close* part, all taken by
fancy index from per-surrogate memos in the string pool
(:meth:`~repro.relational.items.StringPool.memoised`: ``<name>``,
``</name>``, escaped text, ...).  The parts are put in document order by
position arithmetic alone: in pre/size/level terms the open part of row
``i`` goes to slot ``2i - depth`` and its close part to slot
``2(i+size) + 1 - depth`` (its post-order rank plus the rows opened
before it closes).  No recursion, no per-row Python.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.arena import NK_COMMENT, NK_ELEM, NK_TEXT, NodeArena
from repro.relational.kernels import multi_arange
from repro.xml.escape import escape_attr, escape_attrs, escape_texts


def serialize_node(arena: NodeArena, node: int) -> str:
    """Serialise the subtree rooted at arena row ``node`` to XML text."""
    return "".join(scan_parts(arena, (node,)))


def serialize_attribute(arena: NodeArena, attr_id: int) -> str:
    """Serialise a standalone attribute as ``name="value"``."""
    arena.ensure_attrs((attr_id,))
    name = arena.pool.value(int(arena.attr_name[attr_id]))
    value = arena.pool.value(int(arena.attr_value[attr_id]))
    return f'{name}="{escape_attr(value)}"'


# the per-name and per-value templates the scan memoises in the pool
def _open_tags(names: list[str]) -> list[str]:
    return [f"<{n}>" for n in names]


def _close_tags(names: list[str]) -> list[str]:
    return [f"</{n}>" for n in names]


def _tag_starts(names: list[str]) -> list[str]:
    return [f"<{n}" for n in names]


def _attr_starts(names: list[str]) -> list[str]:
    return [f' {n}="' for n in names]


def _attr_ends(values: list[str]) -> list[str]:
    return [f'{v}"' for v in escape_attrs(values)]


def _where(mask: np.ndarray) -> np.ndarray:
    return mask.nonzero()[0]


def scan_parts(arena: NodeArena, nodes) -> list[str]:
    """The markup of the subtrees of rows ``nodes``, one after the
    other, as one list of string parts.

    This is the vectorised core behind :func:`serialize_node` and the
    chunked result streaming in :mod:`repro.compiler.serialize`: callers
    either join the parts into one string or flush them downstream in
    bounded chunks without ever assembling the full text.  The rows of
    all subtrees are gathered with one ``multi_arange`` (a single
    subtree is sliced) and scanned as one; a subtree ends exactly where
    the next begins, so the slot arithmetic of the module docstring
    holds across them with ``depth`` taken relative to each subtree's
    root.  One part per open and per close event, in document order.
    """
    starts = np.asarray(nodes, dtype=np.int64)
    arena.ensure_rows(starts)
    widths = arena.size[starts] + 1
    stops = starts + widths
    level = arena.level
    if len(starts) == 1:
        # one subtree is one row range: sliced (views), not gathered, and
        # its attributes are one slice of the attribute index
        start, stop = int(starts[0]), int(stops[0])
        rows = slice(start, stop)
        attr_ids, attr_counts = arena.attrs_in_span(start, stop)
        depth = level[rows] - level[start]
    else:
        rows = multi_arange(starts, stops)
        attr_ids, owners, per_node = arena.attrs_in_spans(starts, stops)
        # an attribute's position in ``rows``: its owner's offset in its
        # subtree plus where that subtree starts in ``rows``
        offsets = np.cumsum(widths) - widths - starts
        attr_counts = np.bincount(
            owners + np.repeat(offsets, per_node), minlength=len(rows)
        )
        depth = level[rows] - np.repeat(level[starts], widths)
    kinds = arena.kind[rows]
    sizes = arena.size[rows]
    names = arena.name[rows]
    at = np.arange(len(kinds))
    open_slot = 2 * at - depth
    close_slot = 2 * (at + sizes) + 1 - depth
    parts = np.empty(2 * len(kinds), dtype=object)
    used = np.zeros(2 * len(kinds), dtype=bool)

    def put(slots, values):
        parts[slots] = values
        used[slots] = True

    memo = arena.pool.memoised
    elems = kinds == NK_ELEM
    inner = _where(elems & (sizes > 0))
    put(close_slot[inner], memo(_close_tags, names[inner]))
    owners = _where(attr_counts)
    if len(owners):
        # one string per attribute row, concatenated per owner and framed
        # by the owner's tag start and end
        attrs = memo(_attr_starts, arena.attr_name[attr_ids]) + memo(
            _attr_ends, arena.attr_value[attr_ids]
        )
        counts = attr_counts[owners]
        joined = np.add.reduceat(attrs, np.cumsum(counts) - counts)
        ends = np.where(sizes[owners] > 0, ">", "/>").astype(object)
        put(open_slot[owners], memo(_tag_starts, names[owners]) + joined + ends)
        elems[owners] = False
    plain = _where(elems)
    tags = memo(_open_tags, names[plain])
    leaves = sizes[plain] == 0
    if leaves.any():
        tags[leaves] = memo(_tag_starts, names[plain[leaves]]) + "/>"
    put(open_slot[plain], tags)
    texts = _where(kinds == NK_TEXT)
    put(open_slot[texts], memo(escape_texts, arena.value[rows][texts]))
    # comments and PIs (kinds past NK_TEXT) are rare: one Python step each
    pool = arena.pool
    for i in _where(kinds > NK_TEXT).tolist():
        data = pool.value(int(arena.value[rows][i]))
        if kinds[i] == NK_COMMENT:
            part = f"<!--{data}-->"
        else:
            target = pool.value(int(names[i]))
            part = f"<?{target} {data}?>" if data else f"<?{target}?>"
        put(open_slot[i], part)
    # a document node contributes no markup of its own
    return parts[used].tolist()
