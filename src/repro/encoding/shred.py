"""Shredding: XML text → the XPath Accelerator encoding, column at a time.

One pass assigns each node its ``(pre, size, level)`` triple — ``pre``
implicitly as the arena row id — interning every tag name, attribute
name and text value in the shared pool (so identical property values
share one surrogate, the paper's Section 3.1 storage optimisation).

The pass is **columnar**: :func:`shred_text` runs no Python per token.
It cuts the text into chunks of about :data:`CHUNK_CHARS` characters,
each ending just before a start or end tag, and per chunk:

1. finds every ``<``, ``>``, quote and ``&`` with one ``nonzero``
   over a one-byte mask, and classifies each ``<`` by the byte after it
   (start tag, end tag, or a comment, CDATA section or PI, which is read
   whole and hides every ``<`` inside it);
2. reads names without slicing each tag: the spans between the markup
   (a start tag's name, an end tag's name, the ``name=`` before each
   attribute value, what follows the last value) are grouped by their
   bytes — up to 24 of them, gathered as three 8-byte words — and each
   *distinct* span is matched against the grammar once.  A tag whose
   quotes do not pair up simply (a value holding ``>`` or the other
   quote) is read by the scanner's start-tag pattern instead;
3. slices out only what becomes a string — attribute values and text
   runs, references resolved only in spans that contain ``&``, CDATA
   merged with the text around it — and interns names, values and text
   with one :meth:`~repro.relational.items.StringPool.intern_many` in
   document order, so the surrogates are the ones a token-by-token pass
   assigns;
4. derives the structure from per-token arrays: ``level`` is a running
   ±1 sum carried across chunks, and a stable sort on depth (the
   elements still open from earlier chunks first) puts each node right
   after its parent's start tag and each end tag right after its own,
   which gives ``parent``, ``size`` and the check that an end tag names
   the element it closes.

When any check fails, :func:`repro.xml.parser.parse_events` re-reads
the text and raises its :class:`~repro.errors.XMLSyntaxError`, with the
line and column.  The arena is only touched (beyond string interning)
once the whole text has shredded.
"""

from __future__ import annotations

import re

import numpy as np

from repro.encoding.arena import (
    NK_COMMENT,
    NK_DOC,
    NK_ELEM,
    NK_PI,
    NK_TEXT,
    NodeArena,
)
from repro.errors import XMLSyntaxError
from repro.relational.kernels import multi_arange
from repro.xml.escape import resolve_entities
from repro.xml.parser import (
    _ATTR,
    _NAME,
    _PI_TARGET,
    _S,
    _SPAN,
    _START,
    _TAG,
    _TOKEN,
    XMLEventHandler,
    parse_events,
    skip_prolog,
    skip_trailing,
)

#: characters a chunk covers before it is cut at the next start or end
#: tag; the chunk's per-token arrays bound the shredder's working memory
CHUNK_CHARS = 1 << 17

# the markup tokens of a chunk, and the node kind each one makes
_OPEN, _EMPTY, _CLOSE, _COMMENT, _PI, _CDATA = range(6)
_NODE_KIND = np.array([NK_ELEM, NK_ELEM, -1, NK_COMMENT, NK_PI, -1], dtype=np.int8)
#: how a comment, CDATA section or PI opens and closes, and its token
_SPECIALS = (("<!--", "-->", _COMMENT), ("<![CDATA[", "]]>", _CDATA), ("<?", "?>", _PI))

# the spans around a start or end tag's names, and the pattern each
# distinct span must match whole
_PLAIN, _FIRST, _NEXT, _TAIL, _END = range(5)
_SPAN_PATTERNS = (
    re.compile(f"({_NAME}){_S}*"),  # inside a start tag without attributes
    re.compile(f"({_NAME}){_S}+({_NAME}){_S}*={_S}*"),  # the name, the first attribute
    re.compile(f"{_S}+({_NAME}){_S}*={_S}*"),  # every later attribute
    re.compile(f"{_S}*(/?)"),  # after the last attribute value
    re.compile(f"({_NAME}){_S}*"),  # inside an end tag
)

#: spans are grouped by up to this many leading characters; a longer
#: span is a group of its own
_KEY_BYTES = 24
#: per span length, the masks that keep its bytes of each gathered word
_WORD_MASKS = np.array(
    [[(1 << (8 * min(max(length - k, 0), 8))) - 1 for k in range(0, _KEY_BYTES, 8)]
     for length in range(_KEY_BYTES + 1)],
    dtype=np.uint64,
)
_MIX = np.uint64(0x9E3779B97F4A7C15)
_NONE = np.empty(0, dtype=np.int64)


class _Malformed(Exception):
    """A check failed: the scanner re-reads the text to say where."""


class _Extend(Exception):
    """A comment, CDATA section or PI runs past the chunk's cut."""

    def __init__(self, end: int):
        self.end = end


def shred_text(arena: NodeArena, xml_text: str) -> int:
    """Parse and shred an XML document; returns the document-node row
    (what ``fn:doc`` yields).

    The columns land in the arena after the whole text has shredded,
    under one ``mutation_lock``, so malformed XML leaves no half-made
    fragment behind: it raises the :class:`~repro.errors.XMLSyntaxError`
    :func:`~repro.xml.parser.parse_events` raises for it.
    """
    shredder = _Shredder(arena.pool, xml_text)
    try:
        shredder.run()
    except (_Malformed, XMLSyntaxError):
        parse_events(xml_text, XMLEventHandler())
        raise RuntimeError("the shredder rejected XML the scanner accepts") from None
    return shredder.emit(arena)


class _Chunk:
    """One chunk's text and its per-token arrays (offsets local to
    ``s``)."""

    __slots__ = (
        "start", "s", "buf", "lt", "gt", "quotes", "amps", "specials", "kinds",
        "ends", "following", "count", "depth_before", "depth_after",
    )


class _Shredder:
    """Shreds a text chunk by chunk, carrying the depth, the elements
    still open (rows and name surrogates) and the rows emitted so far;
    keeps each chunk's columns until :meth:`emit`."""

    def __init__(self, pool, text: str):
        self.pool = pool
        self.text = text
        self.open_rows = _NONE
        self.open_names = _NONE
        self.rows = 1  # the document node is row 0
        self.root_end = -1  # offset past the root element, once closed
        #: per chunk, its node columns (the document node first) and its
        #: attribute columns
        self.nodes: list[tuple] = [(np.array([NK_DOC], dtype=np.int8), *(
            np.array([v], dtype=np.int32) for v in (0, 0, -1, -1, -1)))]
        self.attrs: list[tuple] = []
        #: rows and sizes of elements closed in a later chunk than they
        #: opened in
        self.patches: list[tuple[np.ndarray, np.ndarray]] = [(_NONE, _NONE)]

    def run(self) -> None:
        """Shred the whole text (fragment-relative rows, the document
        node first)."""
        text = self.text
        pos = skip_prolog(text, 1 if text.startswith("\ufeff") else 0)
        if not text.startswith("<", pos):
            raise _Malformed
        while self.root_end < 0:
            if pos >= len(text):
                raise _Malformed  # the root element is not closed
            cut = self._cut(pos + CHUNK_CHARS)
            while True:
                try:
                    chunk = _scan(text, pos, cut)
                    break
                except _Extend as more:
                    cut = self._cut(more.end)
            self._shred(chunk)
            pos = cut
        skip_trailing(text, self.root_end)

    def emit(self, arena: NodeArena) -> int:
        """Append the shredded columns to ``arena`` as one fresh,
        contiguous fragment; returns the document row."""
        kind, size, level, parent, name, value = (
            np.concatenate(column) for column in zip(*self.nodes))
        owner, attr_name, attr_value = (np.concatenate(column) for column in zip(*self.attrs))
        rows, sizes = (np.concatenate(column) for column in zip(*self.patches))
        size[rows] = sizes
        size[0] = self.rows - 1
        # parents and attribute owners are fragment-relative: rebase
        parent = parent.astype(np.int64)
        with arena.mutation_lock:
            arena.begin_fragment()
            base = arena.num_nodes
            parent[1:] += base  # only the document node has no parent
            arena.append_nodes(kind, size, level, parent, name, value)
            arena.append_attrs(owner.astype(np.int64) + base, attr_name, attr_value)
            return base

    def _cut(self, at: int) -> int:
        """The first ``<`` of a start or end tag at or after ``at``, or
        the end of the text.

        Each comment, CDATA section or PI on the way is stepped over
        whole, so from an ``at`` outside them (the end of one, which
        :class:`_Extend` gives) the cut lands on a tag and the chunk
        needs no further extension.
        """
        text = self.text
        lt = text.find("<", at)
        while lt >= 0 and text.startswith(("<!", "<?"), lt):
            for opener, delim, _ in _SPECIALS:
                if text.startswith(opener, lt):
                    stop = text.find(delim, lt + len(opener))
                    if stop < 0:
                        return len(text)  # unclosed: the scan says so
                    lt = text.find("<", stop + len(delim))
                    break
            else:
                lt = text.find("<", lt + 1)
        return len(text) if lt < 0 else lt

    def _shred(self, c: _Chunk) -> None:
        """Shred one scanned chunk into its columns."""
        tags = _Tags(c)
        self._depth(c)
        texts = _Texts(c)
        # one intern, in document order, of every string the chunk holds
        parts = (tags.names, tags.values, texts.strings, texts.misc)
        at = np.concatenate([np.asarray(p[0], dtype=np.int64) for p in parts])
        order = np.argsort(at, kind="stable")
        strings = np.array(
            tags.names[1] + tags.values[1] + texts.strings[1] + texts.misc[1], dtype=object)
        ids = np.empty(len(order), dtype=np.int64)
        ids[order] = self.pool.intern_many(strings[order].tolist())
        a, b, d = np.cumsum([len(p[1]) for p in parts[:-1]]).tolist()
        name_ids, value_ids, text_ids, misc_ids = ids[:a], ids[a:b], ids[b:d], ids[d:]
        tag_name, attr_tok, attr_name, attr_value = tags.resolve(
            c, name_ids, value_ids, self.pool.lookup)
        node_name = tag_name.copy()
        node_name[c.kinds > _EMPTY] = -1
        node_value = np.full(c.count, -1, dtype=np.int64)
        for (t, which), sid in zip(texts.misc_slots, misc_ids.tolist()):
            (node_name if which == 0 else node_value)[t] = sid
        self._structure(c, texts.tok, text_ids, tag_name, node_name, node_value,
                        attr_tok, attr_name, attr_value)

    def _depth(self, c: _Chunk) -> None:
        """Depth before and after each token; where the root element
        closes, the chunk is cut after it (only comments and PIs may
        follow it, which :func:`skip_trailing` reads)."""
        kinds = c.kinds
        delta = (kinds == _OPEN).astype(np.int64) - (kinds == _CLOSE)
        c.depth_after = np.cumsum(delta) + len(self.open_rows)
        c.depth_before = c.depth_after - delta
        if self.rows == 1 and kinds[0] not in (_OPEN, _EMPTY):
            raise _Malformed  # the first token is not the root's start tag
        closed = (c.depth_after <= 0).nonzero()[0]
        if len(closed):
            last = int(closed[0])
            rest = kinds[last + 1 :]
            if c.depth_after[last] < 0 or ((rest != _COMMENT) & (rest != _PI)).any():
                raise _Malformed
            self.root_end = c.start + int(c.ends[last])
            c.count = count = last + 1
            c.kinds, c.ends = kinds[:count], c.ends[:count]
            c.depth_before, c.depth_after = c.depth_before[:count], c.depth_after[:count]
            c.specials = [sp for sp in c.specials if sp[0] < count]
        following = np.empty(c.count, dtype=np.int64)
        following[:-1] = c.lt[1 : c.count]
        following[-1] = len(c.s) if self.root_end < 0 else c.ends[-1]
        if (c.ends > following).any():
            raise _Malformed  # a '<' inside a tag
        c.following = following

    def _structure(self, c: _Chunk, text_tok, text_ids, tag_name, node_name, node_value,
                   attr_tok, attr_name, attr_value) -> None:
        """Rows, levels, parents and sizes of one chunk's tokens.

        A token makes a node (a start tag, comment or PI) and may be
        followed by a text run; rows are numbered in that order.  The
        elements open here — the start tags, after the ones still open
        from earlier chunks — are stably sorted on depth, so within one
        depth they stay in document order.  A node's parent is the last
        element opened at the depth before it, and an end tag closes the
        last element opened at the depth before it: one ``searchsorted``
        over ``(depth, token)`` keys finds each.
        """
        count, kinds = c.count, c.kinds
        node_kind = _NODE_KIND[kinds]
        is_node = node_kind >= 0
        made = is_node.astype(np.int64)
        made[text_tok] += 1
        after = np.cumsum(made)
        before = after - made  # rows before each token, and its node's row
        n_rows = int(after[-1])
        node_tok = is_node.nonzero()[0]
        node_at = before[node_tok]
        text_at = after[text_tok] - 1
        base = self.rows

        carried = len(self.open_rows)
        open_tok = (kinds == _OPEN).nonzero()[0]
        o_depth = np.concatenate([np.arange(1, carried + 1), c.depth_after[open_tok]])
        o_row = np.concatenate([self.open_rows, base + before[open_tok]])
        o_name = np.concatenate([self.open_names, tag_name[open_tok]])
        by_depth = np.argsort(o_depth, kind="stable")
        span = count + 1
        o_key = (o_depth * span + np.concatenate([np.zeros(carried, np.int64), open_tok + 1]))
        o_key = o_key[by_depth]

        def opened(depth, tok):
            """The element opened last at ``depth`` before token ``tok``."""
            return by_depth[np.searchsorted(o_key, depth * span + tok + 1, side="right") - 1]

        node_depth = c.depth_before[node_tok]
        parent = np.zeros(n_rows, dtype=np.int64)  # the root's parent: the document
        inner = node_depth > 0
        parent[node_at[inner]] = o_row[opened(node_depth[inner], node_tok[inner])]
        parent[text_at] = o_row[opened(c.depth_after[text_tok], text_tok)]
        close_tok = (kinds == _CLOSE).nonzero()[0]
        closes = opened(c.depth_before[close_tok], close_tok)
        if (tag_name[close_tok] != o_name[closes]).any():
            raise _Malformed  # an end tag names another element
        size = base + before[close_tok] - o_row[closes] - 1
        earlier = closes < carried
        if earlier.any():
            self.patches.append((o_row[closes[earlier]], size[earlier]))
        sizes = np.zeros(n_rows, dtype=np.int32)
        sizes[o_row[closes[~earlier]] - base] = size[~earlier]
        still_open = np.ones(len(o_row), dtype=bool)
        still_open[closes] = False

        # kept narrow until emit: rows and surrogates stay below 2**31
        kind = np.empty(n_rows, dtype=np.int8)
        kind[node_at] = node_kind[node_tok]
        kind[text_at] = NK_TEXT
        level = np.empty(n_rows, dtype=np.int32)
        level[node_at] = node_depth + 1
        level[text_at] = c.depth_after[text_tok] + 1
        name = np.empty(n_rows, dtype=np.int32)
        name[node_at] = node_name[node_tok]
        name[text_at] = -1
        value = np.empty(n_rows, dtype=np.int32)
        value[node_at] = node_value[node_tok]
        value[text_at] = text_ids
        self.nodes.append((kind, sizes, level, parent.astype(np.int32), name, value))
        self.attrs.append((
            (base + before[attr_tok]).astype(np.int32), attr_name.astype(np.int32),
            attr_value.astype(np.int32)))
        self.open_rows = o_row[still_open]
        self.open_names = o_name[still_open]
        self.rows += n_rows


def _scan(text: str, start: int, cut: int) -> _Chunk:
    """Find the markup of ``text[start:cut]``, which begins with a start
    or end tag and ends just before one (or at the end of the text).

    Raises :class:`_Extend` when a comment, CDATA section or PI begins
    in the chunk and ends past ``cut``.
    """
    c = _Chunk()
    c.start = start
    c.s = s = text[start:cut]
    n = len(s)
    # padded: a span's words are read from up to 2 characters past the end
    c.buf = buf = np.zeros(n + _KEY_BYTES + 8, dtype=np.uint8)
    if s.isascii():
        buf[:n] = np.frombuffer(s.encode("ascii"), dtype=np.uint8)
    else:  # one slot per character; every non-ASCII one reads as 0x80
        wide = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        np.minimum(wide, 128, out=buf[:n], casting="unsafe")
    b = buf[:n]
    hit = b == 60
    hit |= b == 62
    hit |= b == 34
    hit |= b == 39
    hit |= b == 38
    marks = hit.nonzero()[0]
    char = b[marks]
    lt = marks[char == 60]
    c.gt = marks[char == 62]
    c.quotes = marks[(char == 34) | (char == 39)]
    c.amps = marks[char == 38]
    after = buf[lt + 1]

    # comments, CDATA sections and PIs are read whole; a '<' inside one
    # is not markup
    c.specials = specials = []
    special = ((after == 33) | (after == 63)).nonzero()[0]
    if len(special):
        keep = np.ones(len(lt), dtype=bool)
        covered = -1
        for i in special.tolist():
            p = int(lt[i])
            if p < covered:
                continue
            at = start + p
            for opener, delim, kind in _SPECIALS:
                if text.startswith(opener, at):
                    break
            else:
                raise _Malformed
            body = at + len(opener)
            stop = text.find(delim, body)
            if stop < 0:
                raise _Malformed
            end = stop + len(delim) - start
            if end > n:
                raise _Extend(start + end)
            keep[np.searchsorted(lt, p + 1) : np.searchsorted(lt, end)] = False
            covered = end
            specials.append([p, kind, end, text[body:stop]])
        lt = lt[keep]
        after = after[keep]
    c.count = len(lt)
    if c.count == 0 or lt[0] != 0:
        raise _Malformed
    c.lt = lt
    c.kinds = (after == 47).astype(np.int8) * np.int8(_CLOSE)  # else _OPEN
    c.ends = np.empty(c.count, dtype=np.int64)
    if specials:
        tok = np.searchsorted(lt, [sp[0] for sp in specials])
        c.kinds[tok] = [sp[1] for sp in specials]
        c.ends[tok] = [sp[2] for sp in specials]
        for sp, t in zip(specials, tok.tolist()):
            sp[0] = t  # from here on: the special's token
    return c


class _Tags:
    """The start and end tags of a chunk: names, attributes, and which
    start tags close themselves.

    A tag is taken to end at the first ``>`` after it.  A start tag with
    no quote before that ``>`` is *plain*; one whose quotes pair up, each
    pair with one character, is *simple* (no value holds a quote or that
    ``>``); every other start tag is read with the scanner's pattern.
    ``names`` and ``values`` hold ``(offsets, strings)`` to intern.
    """

    def __init__(self, c: _Chunk):
        s, buf, quotes = c.s, c.buf, c.quotes
        tags = (c.kinds <= _CLOSE).nonzero()[0]
        tag_p = c.lt[tags]
        gt = np.searchsorted(c.gt, tag_p)
        if len(gt) and gt[-1] == len(c.gt):
            raise _Malformed  # a tag with no '>'
        tag_q = c.gt[gt]
        c.ends[tags] = tag_q + 1
        opening = c.kinds[tags] == _OPEN
        closing = ~opening
        self.open_tok = open_tok = tags[opening]
        self.close_tok = tags[closing]
        open_p, open_q = tag_p[opening], tag_q[opening]
        q_lo = np.searchsorted(quotes, open_p)
        q_count = np.searchsorted(quotes, open_q) - q_lo
        self.plain = plain = (q_count == 0).nonzero()[0]
        quoted = q_count.nonzero()[0]
        odd = q_count[quoted] % 2 == 1
        simple, slow = quoted[~odd], quoted[odd]
        pairs = multi_arange(q_lo[simple], q_lo[simple] + q_count[simple])
        lone = buf[quotes[pairs[0::2]]] != buf[quotes[pairs[1::2]]]
        if lone.any():
            per_tag = np.repeat(np.arange(len(simple)), q_count[simple] // 2)
            moved = np.unique(per_tag[lone])
            slow = np.sort(np.concatenate([slow, simple[moved]]))
            simple = np.delete(simple, moved)
            pairs = multi_arange(q_lo[simple], q_lo[simple] + q_count[simple])
        self.simple = simple
        value_lo, value_hi = quotes[pairs[0::2]], quotes[pairs[1::2]]
        self.n_pairs = n_pairs = q_count[simple] // 2
        self.first_pair = first_pair = np.cumsum(n_pairs) - n_pairs
        prefix_lo = np.empty_like(value_lo)
        prefix_lo[1:] = value_hi[:-1] + 1
        prefix_lo[first_pair] = open_p[simple] + 1
        plain_q = open_q[plain]
        self_closing = buf[plain_q - 1] == 47

        # one span list, by category: plain start tags, end tags, the
        # prefixes of the simple tags' values, what follows their last
        n_plain, n_close, n_pairs_all = len(plain), len(self.close_tok), len(value_lo)
        ends = np.cumsum([n_plain, n_close, n_pairs_all, len(simple)])
        lo = np.concatenate([open_p[plain] + 1, tag_p[closing] + 2, prefix_lo,
                             value_hi[first_pair + n_pairs - 1] + 1])
        hi = np.concatenate([plain_q - self_closing, tag_q[closing], value_lo, open_q[simple]])
        cats = np.empty(len(lo), dtype=np.int64)
        cats[: ends[0]] = _PLAIN
        cats[ends[0] : ends[1]] = _END
        cats[ends[1] : ends[2]] = _NEXT
        cats[ends[1] + first_pair] = _FIRST
        cats[ends[2] :] = _TAIL
        group, reps = _group(buf, s, lo, hi, cats)
        self.g_plain, self.g_end = group[: ends[0]], group[ends[0] : ends[1]]
        self.g_pair, g_tail = group[ends[1] : ends[2]], group[ends[2] :]

        # what each distinct span says: names, with their offsets (for
        # the interning order), and whether the tag closes itself
        self.n_groups = len(reps)
        g_empty = np.zeros(len(reps), dtype=np.int8)
        name_at: list[int] = []
        name_str: list[str] = []
        self.name_slot: list[int] = []  # 2g: group g's element name, 2g + 1: attribute name
        self.end_names: list[tuple[int, str]] = []
        for g, (cat, at, match) in enumerate(reps):
            if cat == _PLAIN:
                name_at.append(at)
                name_str.append(match.group(1))
                self.name_slot.append(2 * g)
            elif cat == _FIRST:
                name_at += (at, match.start(2))
                name_str += (match.group(1), match.group(2))
                self.name_slot += (2 * g, 2 * g + 1)
            elif cat == _NEXT:
                name_at.append(match.start(1))
                name_str.append(match.group(1))
                self.name_slot.append(2 * g + 1)
            elif cat == _TAIL:
                g_empty[g] = bool(match.group(1))
            else:
                self.end_names.append((g, match.group(1)))
        c.kinds[open_tok[plain]] = self_closing  # _EMPTY or _OPEN
        c.kinds[open_tok[simple]] = g_empty[g_tail]

        # the other quoted start tags: the scanner's start-tag pattern
        self.slow_tok: list[int] = []
        self.slow_attr_tok: list[int] = []
        slow_names: tuple[list[int], list[str]] = ([], [])
        slow_attr_names: tuple[list[int], list[str]] = ([], [])
        slow_values: tuple[list[int], list[str]] = ([], [])
        for tok in open_tok[slow].tolist():
            m = _TOKEN.match(s, int(c.lt[tok]))
            if m is None or m.lastindex != _START:
                raise _Malformed
            c.kinds[tok] = _EMPTY if m.group(_START) else _OPEN
            c.ends[tok] = m.end()
            self.slow_tok.append(tok)
            slow_names[0].append(m.start(_TAG))
            slow_names[1].append(m.group(_TAG))
            for attr in _ATTR.finditer(s, m.start(_SPAN), m.end(_SPAN)):
                value = attr.group(2)[1:-1]
                self.slow_attr_tok.append(tok)
                slow_attr_names[0].append(attr.start(1))
                slow_attr_names[1].append(attr.group(1))
                slow_values[0].append(attr.start(2) + 1)
                slow_values[1].append(resolve_entities(value) if "&" in value else value)
        self.n_group_names = len(name_str)
        self.names = (name_at + slow_names[0] + slow_attr_names[0],
                      name_str + slow_names[1] + slow_attr_names[1])
        value_at = value_lo + 1
        self.values = (
            np.concatenate([value_at, slow_values[0]]) if slow_values[0] else value_at,
            _slices(s, value_at, value_hi, c.amps) + slow_values[1])

    def resolve(self, c: _Chunk, name_ids: np.ndarray, value_ids: np.ndarray, lookup):
        """Per token, the surrogate of its tag's name, and the chunk's
        attributes ``(token, name, value)`` in document order, from the
        surrogates of :attr:`names` and :attr:`values`."""
        g_names = np.full(2 * self.n_groups, -1, dtype=np.int64)
        g_names[np.asarray(self.name_slot, dtype=np.int64)] = name_ids[: self.n_group_names]
        g_elem, g_attr = g_names[0::2], g_names[1::2]
        g_end = np.full(self.n_groups, -1, dtype=np.int64)
        for g, name in self.end_names:  # an end tag names an interned element
            g_end[g] = lookup(name)
        slow = self.n_group_names + len(self.slow_tok)
        tag_name = np.full(c.count, -1, dtype=np.int64)
        tag_name[self.open_tok[self.plain]] = g_elem[self.g_plain]
        tag_name[self.open_tok[self.simple]] = g_elem[self.g_pair[self.first_pair]]
        tag_name[self.slow_tok] = name_ids[self.n_group_names : slow]
        tag_name[self.close_tok] = g_end[self.g_end]
        attr_tok = np.repeat(self.open_tok[self.simple], self.n_pairs)
        attr_name = g_attr[self.g_pair]
        attr_value = value_ids
        if self.slow_tok:
            attr_tok = np.concatenate([attr_tok, self.slow_attr_tok])
            attr_name = np.concatenate([attr_name, name_ids[slow:]])
            by_offset = np.argsort(self.values[0], kind="stable")
            attr_tok, attr_name, attr_value = (
                attr_tok[by_offset], attr_name[by_offset], attr_value[by_offset])
        if len(attr_tok) > 1 and (attr_tok[1:] == attr_tok[:-1]).any():
            keyed = attr_tok * (int(attr_name.max()) + 1) + attr_name
            if len(np.unique(keyed)) < len(keyed):
                raise _Malformed  # a duplicate attribute
        return tag_name, attr_tok, attr_name, attr_value


class _Texts:
    """The text runs of a chunk (CDATA merged in) and its comments and
    PIs: ``strings`` and ``misc`` hold ``(offsets, strings)`` to intern,
    ``tok`` the token each text run follows, ``misc_slots`` where each
    misc string goes (``(token, 0)`` a PI target, ``(token, 1)`` a
    value)."""

    def __init__(self, c: _Chunk):
        following = c.following
        tok = (following > c.ends).nonzero()[0]
        at = c.ends[tok]
        strings = _slices(c.s, at, following[tok], c.amps)
        misc_at: list[int] = []
        misc_str: list[str] = []
        self.misc_slots: list[tuple[int, int]] = []
        cdata = []
        for t, kind, _, body in c.specials:
            if kind == _COMMENT:
                misc_at.append(int(c.lt[t]))
                misc_str.append(body)
                self.misc_slots.append((t, 1))
            elif kind == _PI:
                target = _PI_TARGET.match(body).group()
                misc_at += (int(c.lt[t]) + 2, int(c.lt[t]) + 3)
                misc_str += (target, body[len(target) :].strip())
                self.misc_slots += ((t, 0), (t, 1))
            else:
                cdata.append((t, body))
        if cdata:
            tok, at, strings = _merge_cdata(c.kinds, c.ends, cdata, tok, strings)
        self.tok = tok
        self.strings = (at, strings)
        self.misc = (misc_at, misc_str)


def _group(buf: np.ndarray, s: str, lo: np.ndarray, hi: np.ndarray, cats: np.ndarray):
    """Group the spans ``s[lo:hi]`` of categories ``cats`` by content.

    Returns each span's group and, per group, ``(category, offset of
    its first span, the match of that span against the category's
    pattern)``.  A span of up to :data:`_KEY_BYTES` characters is keyed
    by its length and three 8-byte words gathered from ``buf``; the
    keys are hashed and grouped with one stable ``argsort``, and every member
    is compared with its group's first span, so a hash collision only
    splits a group.  A longer span is a group of its own.
    """
    length = hi - lo
    if (length < 0).any():
        raise _Malformed
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    masks = _WORD_MASKS[np.minimum(length, _KEY_BYTES)]
    key = length.astype(np.uint64) << np.uint64(3) | cats.astype(np.uint64)
    gathered = []
    for k in range(0, _KEY_BYTES // 8):
        word = words[lo + 8 * k] & masks[:, k]
        gathered.append(word)
        key = (key ^ word) * _MIX
    short = (length <= _KEY_BYTES).nonzero()[0]
    order = np.argsort(key[short], kind="stable")
    sorted_key = key[short][order]
    starts = np.empty(len(order), dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=starts[1:])
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    head = short[order[starts]]  # each group's first span (the sort is stable)
    rep = head[inverse]
    same = (length[rep] == length[short]) & (cats[rep] == cats[short])
    for word in gathered:
        same &= word[rep] == word[short]
    group = np.empty(len(lo), dtype=np.int64)
    group[short] = inverse
    heads = head.tolist()
    alone = np.concatenate([(length > _KEY_BYTES).nonzero()[0], short[~same]])
    if len(alone):
        group[alone] = len(heads) + np.arange(len(alone))
        heads += alone.tolist()
    reps = []
    for i in heads:
        cat, at = int(cats[i]), int(lo[i])
        match = _SPAN_PATTERNS[cat].fullmatch(s, at, int(hi[i]))
        if match is None:
            raise _Malformed
        reps.append((cat, at, match))
    return group, reps


def _slices(s: str, lo: np.ndarray, hi: np.ndarray, amps: np.ndarray) -> list[str]:
    """``s[lo:hi]`` for every span, references resolved in the spans
    that hold an ``&``."""
    out = [s[i:j] for i, j in zip(lo.tolist(), hi.tolist())]
    if len(amps):
        with_amp = np.flatnonzero(np.searchsorted(amps, lo) < np.searchsorted(amps, hi))
        for i in with_amp.tolist():
            out[i] = resolve_entities(out[i])
    return out


def _merge_cdata(kinds, ends, cdata, tok, strings):
    """Merge each CDATA section with the text runs next to it.

    A run of text and CDATA between two other tokens is one text node
    after the token that starts the run, or none if it is empty.
    ``cdata`` holds ``(token, content)``; returns the new text runs'
    tokens, offsets and strings.
    """
    breaker = kinds != _CDATA
    head_of = np.flatnonzero(breaker)[np.cumsum(breaker) - 1]
    heads = np.unique(head_of[[t for t, _ in cdata]])
    merged = np.isin(head_of[tok], heads)
    pieces = sorted(
        [(t, 1, strings[i]) for i, t in zip(np.flatnonzero(merged).tolist(), tok[merged].tolist())]
        + [(t, 0, body) for t, body in cdata])
    runs: dict[int, list[str]] = {h: [] for h in heads.tolist()}
    for t, _, piece in pieces:
        runs[int(head_of[t])].append(piece)
    joined = [(h, "".join(p)) for h, p in runs.items()]
    joined = [(h, text) for h, text in joined if text]
    kept = ~merged
    tok = np.concatenate([tok[kept], np.array([h for h, _ in joined], dtype=np.int64)])
    strings = np.array(strings, dtype=object)[kept].tolist() + [text for _, text in joined]
    order = np.argsort(tok, kind="stable")
    tok = tok[order]
    return tok, ends[tok], np.array(strings, dtype=object)[order].tolist()
