"""Result serialization: the ``iter|pos|item`` table back to XDM / XML.

The paper's "simple post-processor": the top-level result table (scope
``s0``, so ``iter`` = 1 throughout) is ordered by ``pos``; node items are
serialised as markup, atomic items by their lexical form with
single-space separators between adjacent atomics (the W3C serialization
rule).

The text form is produced **streaming**: :func:`iter_serialized_chunks`
yields bounded-size chunks (node markup comes from the scan serializer's
part list, one batched scan per block of consecutive result nodes;
pooled atomics come escaped from the pool's per-surrogate memo),
so a multi-megabyte result never has to exist as one Python string —
:func:`serialize_result` is simply the join of the chunks, and the HTTP
layer forwards them as chunked transfer encoding.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.arena import NodeArena
from repro.errors import ResultClosedError
from repro.relational import items as it
from repro.relational.items import ItemColumn, K_ATTR, K_NODE
from repro.relational.table import Table
from repro.xml.escape import escape_text, escape_texts
from repro.xml.serializer import scan_parts, serialize_attribute, serialize_node

#: target characters per chunk yielded by :func:`iter_serialized_chunks`
DEFAULT_CHUNK_CHARS = 64 * 1024


class NodeHandle:
    """A reference to an arena node in a Python-facing result list.

    A handle from a ``QueryResult`` shares the result's lease
    (:meth:`NodeArena.page_scope`), so it stays readable after the
    result itself went out of scope; once that lease is explicitly
    closed, dereferencing raises :class:`ResultClosedError`.  A handle
    built without a lease is valid until the arena's next pop.
    """

    __slots__ = ("arena", "node", "is_attribute", "lease")

    def __init__(
        self, arena: NodeArena, node: int, is_attribute: bool = False, lease=None
    ):
        self.arena = arena
        self.node = node
        self.is_attribute = is_attribute
        self.lease = lease

    def _check_open(self) -> None:
        if self.lease is not None and self.lease.closed:
            raise ResultClosedError(
                "this node's QueryResult was closed; its rows are gone"
            )

    def serialize(self) -> str:
        """The node as XML markup (``name="value"`` for attributes)."""
        self._check_open()
        if self.is_attribute:
            return serialize_attribute(self.arena, self.node)
        return serialize_node(self.arena, self.node)

    def string_value(self) -> str:
        """The node's XPath string-value (concatenated text content)."""
        self._check_open()
        if self.is_attribute:
            self.arena.ensure_attrs((self.node,))
            return self.arena.pool.value(int(self.arena.attr_value[self.node]))
        return self.arena.pool.value(self.arena.string_value_id(self.node))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeHandle({self.serialize()!r})"


def ordered_items(table: Table) -> ItemColumn:
    """The result items in sequence order (by iter, then pos)."""
    iters = table.num("iter")
    pos = table.num("pos")
    order = np.lexsort((pos, iters))
    return table.item("item").take(order)


#: items decoded per batch by :func:`iter_result_values` — large enough
#: to amortise the ``StringPool.values`` call, small enough that a
#: consumer stopping early never pays for the whole column
_VALUE_BLOCK = 1024


def iter_result_values(table: Table, arena: NodeArena, lease=None):
    """Yield the result as Python values in sequence order (nodes become
    NodeHandles sharing ``lease``) — the streaming core behind the
    ``QueryResult`` iterator protocol.  Pooled strings are decoded with
    blockwise ``StringPool.values`` batches instead of per-item
    ``pool.value`` calls, so iteration stays lazy (a consumer that stops
    after a few items decodes at most one block)."""
    items = ordered_items(table)
    pool = arena.pool
    # a result consumed after the catalog lock dropped must stay readable:
    # the page scope keeps its rows in the arena and pins every fragment
    # touched until iteration finishes
    with arena.page_scope():
        for lo in range(0, len(items), _VALUE_BLOCK):
            kinds = items.kinds[lo : lo + _VALUE_BLOCK]
            data = items.data[lo : lo + _VALUE_BLOCK]
            pooled, strings = it.pooled_strings(kinds, data, pool)
            for kind, payload, is_pooled in zip(kinds.tolist(), data.tolist(), pooled):
                if kind == K_NODE:
                    yield NodeHandle(arena, payload, lease=lease)
                elif kind == K_ATTR:
                    yield NodeHandle(arena, payload, True, lease)
                elif is_pooled:
                    yield next(strings)
                else:
                    yield it.decode_item(kind, payload, pool)


#: rows scanned per :func:`~repro.xml.serializer.scan_parts` call by
#: :func:`iter_serialized_chunks` — one call per block of consecutive
#: node items, so its per-row arrays stay small next to the result (a
#: single larger subtree is its own block); the per-call overhead is
#: ≈ 40 numpy calls, about what a few hundred rows cost
_SCAN_ROWS = 1 << 10


def _node_blocks(arena: NodeArena, nodes: np.ndarray):
    """Split a run of node items into blocks of about :data:`_SCAN_ROWS`
    subtree rows each, in order."""
    arena.ensure_rows(nodes)
    widths = arena.size[nodes] + 1
    # a block starts at each node whose first row enters a new stretch
    # of _SCAN_ROWS rows
    stretch = (np.cumsum(widths) - widths) // _SCAN_ROWS
    cuts = (np.flatnonzero(np.diff(stretch)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(nodes)]):
        yield nodes[lo:hi]


def _item_parts(items: ItemColumn, arena: NodeArena):
    """The serialized items as lists of string parts: one list per
    block of consecutive node items (one batched scan each), one per
    run of attribute and atomic items."""
    if not len(items):
        return
    pool = arena.pool
    is_node = items.kinds == K_NODE
    edges = (np.flatnonzero(is_node[1:] != is_node[:-1]) + 1).tolist()
    for lo, hi in zip([0, *edges], [*edges, len(items)]):
        if is_node[lo]:
            for block in _node_blocks(arena, items.data[lo:hi]):
                yield scan_parts(arena, block)
            continue
        kinds = items.kinds[lo:hi]
        data = items.data[lo:hi]
        pooled = it.is_pooled(kinds)
        # pooled atomics come escaped from the pool's per-surrogate memo
        strings = iter(pool.memoised(escape_texts, data[pooled]).tolist())
        parts: list[str] = []
        # a run starts after a node (or at the start): no separator
        prev_atomic = False
        for kind, payload, is_pooled in zip(kinds.tolist(), data.tolist(), pooled.tolist()):
            if kind == K_ATTR:
                parts.append(serialize_attribute(arena, payload))
                prev_atomic = False
                continue
            if prev_atomic:
                parts.append(" ")
            parts.append(
                next(strings) if is_pooled else escape_text(it.lexical(kind, payload, pool))
            )
            prev_atomic = True
        yield parts


def iter_serialized_chunks(
    table: Table, arena: NodeArena, chunk_chars: int = DEFAULT_CHUNK_CHARS
):
    """Yield the serialized result sequence in bounded-size chunks.

    Chunks are plain ``str`` pieces whose concatenation is exactly
    :func:`serialize_result`'s output; each is at least ``chunk_chars``
    characters except the last, so downstream writers (chunked HTTP)
    get usefully-sized writes without the full text ever being
    assembled.  Each run of consecutive node items is scanned in
    row-bounded blocks, one :func:`~repro.xml.serializer.scan_parts`
    call per block.  A chunk ends with the first part that brings it to
    ``chunk_chars``; the cut points of a part list are found on the
    running sum of its part lengths, and each chunk is one ``"".join``.
    """
    items = ordered_items(table)
    buf: list[str] = []
    buf_len = 0
    # chunked serialization outlives the catalog lock (chunked HTTP): keep
    # the rows and pin every fragment read until the stream is drained or
    # abandoned
    with arena.page_scope():
        for parts in _item_parts(items, arena):
            size = sum(map(len, parts))
            if buf_len + size < chunk_chars or not parts:
                buf.extend(parts)  # no cut in this list
                buf_len += size
                continue
            ends = np.cumsum(np.fromiter(map(len, parts), np.int64, len(parts)))
            lo = done = 0  # parts and characters of this list already cut
            while True:
                cut = max(lo, int(np.searchsorted(ends, done + chunk_chars - buf_len)))
                if cut == len(parts):
                    break
                buf.extend(parts[lo : cut + 1])
                yield "".join(buf)
                buf.clear()
                buf_len = 0
                lo, done = cut + 1, int(ends[cut])
            buf.extend(parts[lo:])
            buf_len += int(ends[-1]) - done
        if buf:
            yield "".join(buf)


def serialize_result(table: Table, arena: NodeArena) -> str:
    """Serialise the result sequence to text (nodes as XML markup, atomics
    space-separated) — the buffered form of the chunk stream."""
    return "".join(iter_serialized_chunks(table, arena))
