"""The node arena: every document and constructed fragment, one encoding.

The arena is the heart of the tree encoding.  It keeps the XPath
Accelerator tables for *all* trees the engine knows about — loaded
documents as well as fragments constructed at query runtime — as one set
of parallel, growing arrays:

``kind | size | level | frag | parent | name | value``

Rows are appended in pre-order per fragment and fragments are contiguous,
so the **global row id doubles as the pre rank**: ``pre(v) = v -
frag_base(frag(v))`` and, more importantly, integer order on row ids *is*
document order (fragments ordered by creation, as XQuery allows).  The
paper's region predicates then become plain integer range conditions on
row ids, e.g. descendants of ``v`` are exactly rows ``v+1 .. v+size(v)``.

Attributes live in a parallel ``owner | name | value`` table with their own
id space (attribute items carry ``K_ATTR`` kind).  Names and textual values
are surrogates into a shared :class:`~repro.relational.items.StringPool` —
the paper's unique-value property BATs ("surrogate sharing ... avoids
expensive string comparisons and reduces space consumption").

**Lifetime.**  The arena is a *stack of sealed fragments*: documents
(persistent) at the bottom, the fragments queries construct (transient,
the paper's "transient fragments that live as long as the result") on
top.  :meth:`NodeArena.mark` / :meth:`NodeArena.truncate_to` push and pop
that stack; readers hold a :class:`~repro.encoding.paging.PageScope`
lease, and when the last live lease closes the transient run is popped.
The navigation indices follow the stack incrementally (sorted base +
stable-sorted appended tail, one ``searchsorted`` to pop) — the delta-BAT
shape of MonetDB, never a global re-sort.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from repro.encoding.paging import PageScope
from repro.errors import DynamicError, TypeError_
from repro.relational.items import StringPool
from repro.relational.kernels import multi_arange

NK_DOC = 0
NK_ELEM = 1
NK_TEXT = 2
NK_COMMENT = 3
NK_PI = 4

NODE_KIND_NAMES = {
    NK_DOC: "document",
    NK_ELEM: "element",
    NK_TEXT: "text",
    NK_COMMENT: "comment",
    NK_PI: "processing-instruction",
}

#: content entry tags of :meth:`NodeArena.new_elements`: a new text child
#: (payload: value surrogate), a deep copy of a node (payload: its row),
#: an attribute copied onto the element (payload: attribute id)
C_TEXT = 0
C_COPY = 1
C_ATTR = 2
CONTENT_TAGS = {"text": C_TEXT, "copy": C_COPY, "attr": C_ATTR}

_EMPTY = np.empty(0, dtype=np.int64)
_ZERO = np.zeros(1, dtype=np.int64)


class ArenaMark(NamedTuple):
    """A position in the fragment stack (always a fragment boundary)."""

    nodes: int
    attrs: int
    frags: int


class _Buf:
    """A growable int64 array with amortised O(1) appends."""

    __slots__ = ("_data", "_len", "on_grow")

    def __init__(self, capacity: int = 1024):
        self._data = np.zeros(capacity, dtype=np.int64)
        self._len = 0
        #: optional callback fired after a reallocation (the fragment
        #: pager re-releases cold spans the growth copy re-resided)
        self.on_grow = None

    def __len__(self) -> int:
        return self._len

    def view(self) -> np.ndarray:
        return self._data[: self._len]

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        if need > len(self._data):
            cap = max(need, 2 * len(self._data))
            grown = np.zeros(cap, dtype=np.int64)
            grown[: self._len] = self._data[: self._len]
            self._data = grown
            if self.on_grow is not None:
                self.on_grow()

    def grow(self, extra: int) -> None:
        """Extend the length by ``extra`` rows without writing them.

        The reserved tail holds nothing meaningful until filled — this
        is how a paged fragment's span exists before its first fault-in
        (fresh calloc pages cost no RSS until touched; rows reused after
        a pop keep their stale values).
        """
        self._reserve(extra)
        self._len += extra

    def reserve_tail(self, extra: int) -> np.ndarray:
        """A writable view of the ``extra`` slots past the end.

        They are not part of the buffer until :meth:`grow` publishes
        them, so a bulk writer fills them column by column without a
        temporary and without any reader seeing a half-written row.
        """
        self._reserve(extra)
        return self._data[self._len : self._len + extra]

    def truncate(self, length: int) -> None:
        """Pop back to ``length`` rows; the capacity is kept."""
        self._len = length

    def append(self, value: int) -> int:
        self._reserve(1)
        self._data[self._len] = value
        self._len += 1
        return self._len - 1

    def extend(self, values) -> None:
        values = np.asarray(values, dtype=np.int64)
        end = self._len + len(values)
        if end > len(self._data):
            self._reserve(len(values))
        self._data[self._len : end] = values
        self._len = end

    def __getitem__(self, idx):
        return self.view()[idx]

    def __setitem__(self, idx, value):
        self.view()[idx] = value


class _KeyIndex:
    """Rows of one table grouped by an owner key (``parent`` for the child
    index, ``attr_owner`` for the attribute index): ``order`` lists the
    row ids sorted by key (ties in row order), ``keys`` the key of each.

    Fragments are contiguous and every key points into the row's own
    fragment, so all keys of a later fragment exceed all keys of an
    earlier one.  Pushing therefore never merges: the rows appended since
    the last extension are stable-sorted *among themselves* and appended;
    popping is one binary search.  Rows with key ``-1`` (fragment roots,
    parentless attributes) are left out.
    """

    __slots__ = ("order", "keys", "indexed")

    def __init__(self):
        self.order = _Buf(256)
        self.keys = _Buf(256)
        #: rows ``[0, indexed)`` of the table are covered
        self.indexed = 0

    def extend(self, tail: np.ndarray) -> int:
        """Index the rows ``indexed ..`` whose keys are ``tail``; returns
        how many elements were sorted."""
        rows = np.nonzero(tail >= 0)[0]
        keys = tail[rows]
        if len(keys):
            if len(self.keys) and int(keys.min()) <= int(self.keys[-1]):
                raise AssertionError(
                    "arena index: a fragment was indexed before it was "
                    "sealed (owner keys must grow fragment by fragment)"
                )
            by_key = np.argsort(keys, kind="stable")
            self.order.extend(rows[by_key] + self.indexed)
            self.keys.extend(keys[by_key])
        self.indexed += len(tail)
        return len(keys)

    def truncate(self, key_floor: int, rows: int) -> None:
        """Forget every entry owned by a row ``>= key_floor``."""
        cut = int(np.searchsorted(self.keys.view(), key_floor, side="left"))
        self.order.truncate(cut)
        self.keys.truncate(cut)
        self.indexed = min(self.indexed, rows)

    def ranges(self, nodes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys = self.keys.view()
        lo = np.searchsorted(keys, nodes, side="left")
        hi = np.searchsorted(keys, nodes, side="right")
        return self.order.view(), lo, hi


@dataclass
class TreeDelta:
    """Structural edits applied while rebuilding one document fragment.

    This is the pending update list of one document (XQUF 3.2) and the
    arena-level half of the XQuery Update Facility: the collector
    (:mod:`repro.compiler.updates`) resolves each update primitive to
    *old* arena rows/attribute ids and writes it straight into these
    maps; :meth:`NodeArena.rebuild_with_delta` then splices the document
    into a brand-new fragment with the edits applied, and the WAL stores
    the same maps (:func:`repro.encoding.store.serialize_delta`).
    Content entries are ``("copy", row)`` (deep copy of an existing
    subtree; a document node contributes its children) or ``("text",
    sid)`` (a new text node), as in the element constructor spec.  A row
    both deleted and replaced is deleted.
    """

    #: fields keyed by node row, carrying content-entry lists
    ROW_CONTENT_FIELDS: ClassVar[tuple[str, ...]] = (
        "insert_before",
        "insert_after",
        "insert_first",
        "insert_last",
        "replace",
    )
    #: fields keyed by node row, carrying one pooled string
    ROW_STRING_FIELDS: ClassVar[tuple[str, ...]] = (
        "replace_value",
        "replace_content",
        "rename",
    )
    #: fields keyed by attribute id, carrying one pooled string
    ATTR_STRING_FIELDS: ClassVar[tuple[str, ...]] = (
        "replace_attr_value",
        "rename_attr",
    )
    #: every field keyed by attribute id (the edits of an attribute list,
    #: with ``insert_attrs``, which is keyed by the owning element)
    ATTR_FIELDS: ClassVar[tuple[str, ...]] = (
        "delete_attrs",
        "replace_attr",
        *ATTR_STRING_FIELDS,
    )

    #: target row → content inserted immediately before/after it
    insert_before: dict[int, list] = field(default_factory=dict)
    insert_after: dict[int, list] = field(default_factory=dict)
    #: parent row → content inserted as first/last children
    insert_first: dict[int, list] = field(default_factory=dict)
    insert_last: dict[int, list] = field(default_factory=dict)
    #: element row → ``(name sid, value sid)`` attributes to add
    insert_attrs: dict[int, list] = field(default_factory=dict)
    #: node rows / attribute ids whose subtrees are dropped
    delete: set = field(default_factory=set)
    delete_attrs: set = field(default_factory=set)
    #: target row → replacement content (``replace node``)
    replace: dict[int, list] = field(default_factory=dict)
    #: attribute id → ``(name sid, value sid)`` replacements
    replace_attr: dict[int, list] = field(default_factory=dict)
    #: text/comment/PI row → new value sid (``replace value of node``)
    replace_value: dict[int, int] = field(default_factory=dict)
    #: element row → text sid replacing its entire content
    replace_content: dict[int, int] = field(default_factory=dict)
    #: attribute id → new value sid
    replace_attr_value: dict[int, int] = field(default_factory=dict)
    #: element/PI row → new name sid (``rename node``)
    rename: dict[int, int] = field(default_factory=dict)
    #: attribute id → new name sid
    rename_attr: dict[int, int] = field(default_factory=dict)


class NodeArena:
    """Container for every tree the engine knows (documents + fragments).

    The arena is a stack of sealed fragments.  Fragments appended through
    :meth:`begin_fragment` (shredded, adopted and rebuilt documents) are
    *persistent*; the bulk constructors (:meth:`new_elements`,
    :meth:`new_text_nodes`, :meth:`new_attributes`) append *transient*
    fragments — one per constructed node — and the first of them after a
    pop records the watermark the stack returns to.

    Concurrency contract:

    * All *mutation* — appends, pops, index extension — goes through
      ``mutation_lock`` (a reentrant mutex).  Interleaved appends from
      two threads would violate the fragment-contiguity invariant the
      whole encoding rests on ("the global row id doubles as the pre
      rank"), so a constructor holds the lock across all the fragments
      it builds and reads every navigation index it needs before its
      first append: an index only ever covers sealed fragments.
    * Rows never change once appended, and entries of the navigation
      indices never move, so readers scan without locking — a reader
      simply does not see fragments appended after it started.
    * Rows *disappear* only by a pop.  Transient rows are popped when the
      last live lease (:meth:`page_scope`) closes, so whoever holds a
      lease — an executing query, its ``QueryResult``, the
      ``NodeHandle`` objects and serializer generators it handed out — may
      read every row that existed when it looked.  Dead persistent rows
      (superseded document copies) are popped by :meth:`reclaim` only
      under the Database's exclusive catalog lock with no lease live.
    * Without a lease, rows of catalogued documents may be read under
      the shared catalog lock (they only go away under the exclusive
      one); constructed rows read without a lease stay valid until the
      next pop.
    """

    def __init__(self, pool: StringPool | None = None):
        self.pool = pool if pool is not None else StringPool()
        self._kind = _Buf()
        self._size = _Buf()
        self._level = _Buf()
        self._frag = _Buf()
        self._parent = _Buf()
        self._name = _Buf()
        self._value = _Buf()
        self._attr_owner = _Buf(256)
        self._attr_name = _Buf(256)
        self._attr_value = _Buf(256)
        self._node_bufs = (
            self._kind, self._size, self._level, self._frag,
            self._parent, self._name, self._value,
        )
        self._attr_bufs = (self._attr_owner, self._attr_name, self._attr_value)
        #: first node row / first attribute id of every fragment
        self._frag_base = _Buf(256)
        self._frag_abase = _Buf(256)
        #: serialises every arena mutation (see the class docstring);
        #: reentrant so composite constructors can call the low-level
        #: appenders they are built from
        self.mutation_lock = threading.RLock()
        # the three navigation indices, each extended lazily on its own
        self._children = _KeyIndex()
        self._attrs = _KeyIndex()
        self._text_rows = _Buf(256)
        self._text_indexed = 0
        #: string-value surrogates of multi-text *persistent* rows
        self._strvalue_cache: dict[int, int] = {}
        #: demand pager for mmap-backed fragments (None = fully eager);
        #: see :meth:`enable_paging` and :mod:`repro.encoding.paging`
        self.pager = None
        #: open leases (:meth:`page_scope`); no pop while one is live
        self._leases = 0
        #: where the transient run on top of the stack starts (None =
        #: everything is persistent)
        self._transient: ArenaMark | None = None
        self.pops = 0
        self.reclaimed_rows = 0
        self.index_extensions = 0
        #: elements handed to a sort by index extensions, ever
        self.index_sorted = 0

    # -------------------------------------------------------------- paging
    def enable_paging(self, budget_bytes: int | None) -> None:
        """Attach a :class:`~repro.encoding.paging.FragmentPager`.

        Fragments adopted with ``paged=True`` afterwards stay
        mmap-resident until first touch and are evicted LRU once the
        resident tracked bytes exceed ``budget_bytes`` (``None`` = fault
        lazily but never evict).  Must be called before any paged
        adoption; enabling is idempotent per arena lifetime.
        """
        from repro.encoding.paging import FragmentPager

        with self.mutation_lock:
            if self.pager is not None:  # pragma: no cover - defensive
                self.pager.budget_bytes = budget_bytes
                return
            self.pager = FragmentPager(self, budget_bytes)
            for buf in self._node_bufs + self._attr_bufs:
                buf.on_grow = self.pager.note_buffer_growth

    def adopt_fragment(self, source, paged: bool = False) -> int:
        """Adopt a persisted fragment (``PagedFragment``); returns its
        root row.

        The fragment's row and attribute spans are *reserved* (length
        extended, nothing written).  With ``paged=True`` and a pager
        attached, the span is filled only on first touch; otherwise it
        is materialised immediately — straight from the memmapped
        columns into the flat buffers, the single-copy eager path.
        """
        from repro.encoding.paging import fill_adopted_span

        with self.mutation_lock:
            fid = self.begin_fragment()
            base, abase = self.num_nodes, self.num_attrs
            for buf in self._node_bufs:
                buf.grow(source.nodes)
            for buf in self._attr_bufs:
                buf.grow(source.attrs)
            if self.pager is not None:
                self.pager.register(fid, base, abase, source, hot=False)
                if not paged:
                    self.ensure_rows((base,))
            else:
                fill_adopted_span(self, base, abase, source, fid)
            return base

    def register_paged_backing(self, root: int, source) -> bool:
        """Track an already-materialised fragment as evictable.

        Called after a document fragment is (re)written to the store:
        its in-arena span is now byte-identical to what a fault-in from
        ``source`` would produce, so the pager may evict and re-fault
        it.  Returns False (leaving the fragment untracked, i.e. pinned
        in memory) when the span does not match the backing — a
        conservative refusal, never an error.
        """
        pager = self.pager
        if pager is None:
            return False
        with self.mutation_lock:
            bases = self.frag_base
            fid = int(np.searchsorted(bases, int(root), side="right") - 1)
            if fid < 0 or int(bases[fid]) != int(root):
                return False
            if pager.record_for_base(int(root)) is not None:
                return False
            n = int(self.size[root]) + 1
            if n != source.nodes:
                return False
            ids, _ = self.attrs_in_span(int(root), int(root) + n)
            m = len(ids)
            if m != source.attrs:
                return False
            if m and not (
                int(ids[0]) + m - 1 == int(ids[-1])
                and bool(np.all(np.diff(ids) == 1))
            ):
                return False
            abase = int(ids[0]) if m else 0
            pager.register(fid, int(root), abase, source, hot=True)
            return True

    def retire_fragment(self, row: int) -> None:
        """Untrack (and materialise) the paged fragment owning ``row``.

        Must run before the fragment's backing files are deleted — until
        :meth:`reclaim` pops the span it keeps serving valid rows to
        whole-arena scans and to results that still reference it.  No-op
        without a pager or for untracked rows.
        """
        if self.pager is not None:
            self.pager.retire_rows(row)

    def ensure_rows(self, rows) -> None:
        """Fault in the paged fragments owning ``rows`` (no-op when the
        arena is eager) — the column-access seam every reader of node
        columns goes through before indexing them."""
        pager = self.pager
        if pager is not None:
            pager.ensure_rows(rows)

    def ensure_attrs(self, attr_ids) -> None:
        """Like :meth:`ensure_rows` for attribute-table readers."""
        pager = self.pager
        if pager is not None:
            pager.ensure_attrs(attr_ids)

    def ensure_all(self) -> None:
        """Fault in every paged fragment (whole-arena readers such as
        update delta collection)."""
        pager = self.pager
        if pager is not None:
            pager.ensure_all()

    def subtree_nodes(self, root: int) -> int:
        """Node count of the fragment rooted at ``root`` without
        faulting it in (catalog listings must not page anything)."""
        pager = self.pager
        if pager is not None:
            rec = pager.record_for_base(int(root))
            if rec is not None:
                return rec.source.nodes
        return int(self.size[root]) + 1

    def logical_column(self, name: str, start: int = 0) -> np.ndarray:
        """One node/attribute column from row ``start`` on, with cold
        paged spans patched in from their mmap sources —
        residency-independent reads for the optimizer statistics and the
        navigation indices."""
        tail = getattr(self, name)[start:]
        pager = self.pager
        return tail if pager is None else pager.patched_tail(name, start, tail)

    # ------------------------------------------------------------ lifetime
    def page_scope(self) -> PageScope:
        """Open a lease on the arena: no row is popped while it is live,
        and (paged arenas) every fragment touched while it is the
        thread's current scope stays pinned against eviction.

        Use it as a context manager around one execution or streamed
        serialization, or hold it — a ``QueryResult`` does — and
        ``close()`` it; an unreferenced lease closes itself.  When the
        last live lease closes the transient run is popped.
        """
        return PageScope(self)

    def _lease_opened(self) -> None:
        with self.mutation_lock:
            self._leases += 1

    def _lease_closed(self, scope: PageScope) -> None:
        with self.mutation_lock:
            if self.pager is not None:
                self.pager.unpin_scope(scope)
            self._leases -= 1
            if self._leases == 0 and self._transient is not None:
                self.truncate_to(self._transient)

    def mark(self, row: int | None = None) -> ArenaMark:
        """The top of the fragment stack — or, given the first ``row``
        of a fragment, the stack position where that fragment starts."""
        fid = len(self._frag_base)
        if row is not None:
            fid = int(np.searchsorted(self.frag_base, row))
        if fid == len(self._frag_base):
            return ArenaMark(self.num_nodes, self.num_attrs, fid)
        return ArenaMark(
            int(self._frag_base[fid]), int(self._frag_abase[fid]), fid
        )

    def truncate_to(self, mark: ArenaMark) -> None:
        """Pop every fragment (and loose attribute) above ``mark``.

        Buffers keep their capacity; the navigation indices, the
        string-value cache and the pager forget exactly the popped rows.
        The caller guarantees nobody can still read them (see the class
        docstring).
        """
        with self.mutation_lock:
            top = self.mark()
            if any(m > t for m, t in zip(mark, top)):
                raise ValueError(f"cannot truncate {top} up to {mark}")
            transient = self._transient
            if self._strvalue_cache and (
                transient is None or mark.nodes < transient.nodes
            ):
                for row in [r for r in self._strvalue_cache if r >= mark.nodes]:
                    del self._strvalue_cache[row]
            if transient is not None and mark.nodes <= transient.nodes:
                self._transient = None
            for buf in self._node_bufs:
                buf.truncate(mark.nodes)
            for buf in self._attr_bufs:
                buf.truncate(mark.attrs)
            self._frag_base.truncate(mark.frags)
            self._frag_abase.truncate(mark.frags)
            self._children.truncate(mark.nodes, mark.nodes)
            self._attrs.truncate(mark.nodes, mark.attrs)
            self._text_rows.truncate(
                int(np.searchsorted(self._text_rows.view(), mark.nodes))
            )
            self._text_indexed = min(self._text_indexed, mark.nodes)
            if self.pager is not None:
                self.pager.forget_from(mark.nodes)
            self.pops += 1
            self.reclaimed_rows += top.nodes - mark.nodes

    def reclaim(self, live_roots, fresh: ArenaMark | None = None) -> int:
        """Pop the dead top of the persistent stack.

        The caller holds the catalog exclusively.  ``live_roots`` are the
        roots of every catalogued document below ``fresh``; the fragments
        from ``fresh`` up (default: none) were just built and are kept.
        Everything between the highest live document and ``fresh`` —
        superseded document copies, stranded constructed rows — is
        popped and the fresh fragments are re-appended in its place.
        Returns how many rows they moved down (subtract it from their
        roots).  Does nothing while a lease is live: a held result may
        still read the old rows, which then wait for a later reclaim.
        """
        with self.mutation_lock:
            if self._leases:
                return 0
            top = self.mark()
            if fresh is None:
                fresh = top
            dst = self.mark(
                max(
                    (
                        int(root) + self.subtree_nodes(root)
                        for root in live_roots
                        if root < fresh.nodes
                    ),
                    default=0,
                )
            )
            if dst.nodes >= fresh.nodes:
                return 0
            nodes = [buf.view()[fresh.nodes :].copy() for buf in self._node_bufs]
            attrs = [buf.view()[fresh.attrs :].copy() for buf in self._attr_bufs]
            bases = self._frag_base.view()[fresh.frags :].copy()
            abases = self._frag_abase.view()[fresh.frags :].copy()
            self.truncate_to(dst)
            shift = fresh.nodes - dst.nodes
            frag, parent, owner = nodes[3], nodes[4], attrs[0]
            frag -= fresh.frags - dst.frags
            parent[parent >= 0] -= shift
            owner[owner >= 0] -= shift
            for buf, col in zip(self._node_bufs, nodes):
                buf.extend(col)
            for buf, col in zip(self._attr_bufs, attrs):
                buf.extend(col)
            self._frag_base.extend(bases - shift)
            self._frag_abase.extend(abases - (fresh.attrs - dst.attrs))
            self.reclaimed_rows -= top.nodes - fresh.nodes
            return shift

    @property
    def persistent_rows(self) -> int:
        """Rows below the transient watermark."""
        transient = self._transient
        return self.num_nodes if transient is None else transient.nodes

    def lifetime_report(self) -> dict:
        """Counters for the ``/stats`` ``"arena"`` section."""
        with self.mutation_lock:
            rows, persistent = self.num_nodes, self.persistent_rows
            return {
                "rows": rows,
                "persistent_rows": persistent,
                "transient_rows": rows - persistent,
                "live_leases": self._leases,
                "pops": self.pops,
                "reclaimed_rows": self.reclaimed_rows,
                "index_extensions": self.index_extensions,
            }

    # ------------------------------------------------------------- columns
    @property
    def kind(self) -> np.ndarray:
        """Node kind per row (``NK_*`` constants)."""
        return self._kind.view()

    @property
    def size(self) -> np.ndarray:
        """Subtree size per row (descendant count)."""
        return self._size.view()

    @property
    def level(self) -> np.ndarray:
        """Depth per row (fragment root = 0)."""
        return self._level.view()

    @property
    def frag(self) -> np.ndarray:
        """Fragment id per row."""
        return self._frag.view()

    @property
    def parent(self) -> np.ndarray:
        """Parent row id per row (``-1`` at fragment roots)."""
        return self._parent.view()

    @property
    def name(self) -> np.ndarray:
        """Tag/target name surrogate per row (``-1`` when nameless)."""
        return self._name.view()

    @property
    def value(self) -> np.ndarray:
        """Text value surrogate per row (``-1`` when valueless)."""
        return self._value.view()

    @property
    def attr_owner(self) -> np.ndarray:
        """Owner row id per attribute."""
        return self._attr_owner.view()

    @property
    def attr_name(self) -> np.ndarray:
        """Name surrogate per attribute."""
        return self._attr_name.view()

    @property
    def attr_value(self) -> np.ndarray:
        """Value surrogate per attribute."""
        return self._attr_value.view()

    @property
    def frag_base(self) -> np.ndarray:
        """First row of every fragment, ascending (index = fragment id)."""
        return self._frag_base.view()

    @property
    def num_nodes(self) -> int:
        """Total node rows across every fragment."""
        return len(self._kind)

    @property
    def num_attrs(self) -> int:
        """Total attribute rows across every fragment."""
        return len(self._attr_owner)

    # ------------------------------------------------------------- building
    def begin_fragment(self) -> int:
        """Start a new persistent fragment; returns its id.  The next
        appended node is the fragment root and must carry the total
        subtree ``size``.

        A persistent fragment on top of constructed rows strands them
        until :meth:`reclaim`.  Callers appending a multi-row fragment
        must hold ``mutation_lock`` across the whole begin/append
        sequence so the fragment's rows stay contiguous
        (:func:`~repro.encoding.shred.shred_text` runs under the
        Database's exclusive catalog lock).
        """
        with self.mutation_lock:
            self._transient = None
            self._frag_base.append(self.num_nodes)
            self._frag_abase.append(self.num_attrs)
            return len(self._frag_base) - 1

    def _enter_transient(self) -> None:
        if self._transient is None:
            self._transient = self.mark()

    def _node_tails(self, rows: int) -> list[np.ndarray]:
        """Writable tails of ``rows`` slots of the seven node columns
        (``kind, size, level, frag, parent, name, value``), reserved for
        :meth:`_publish_transient`.  The caller holds ``mutation_lock``
        from here until it publishes."""
        return [buf.reserve_tail(rows) for buf in self._node_bufs]

    def _publish_transient(
        self, roots: np.ndarray, abases: np.ndarray, rows: int
    ) -> None:
        """Publish the ``rows`` rows written into :meth:`_node_tails` as
        one transient fragment per entry of ``roots``: fragment ``i``
        starts at row ``roots[i]`` and attribute id ``abases[i]``."""
        self._enter_transient()
        self._frag_base.extend(roots)
        self._frag_abase.extend(abases)
        for buf in self._node_bufs:
            buf.grow(rows)

    def append_nodes(
        self,
        kinds: Sequence[int],
        sizes: Sequence[int],
        levels: Sequence[int],
        parents: Sequence[int],
        names: Sequence[int],
        values: Sequence[int],
    ) -> int:
        """Bulk append; returns the row id of the first appended node."""
        with self.mutation_lock:
            base = self.num_nodes
            self._kind.extend(kinds)
            self._size.extend(sizes)
            self._level.extend(levels)
            self._frag.extend(
                np.full(len(kinds), len(self._frag_base) - 1, dtype=np.int64)
            )
            self._parent.extend(parents)
            self._name.extend(names)
            self._value.extend(values)
            return base

    def append_attrs(
        self,
        owners: Sequence[int],
        names: Sequence[int],
        values: Sequence[int],
    ) -> int:
        """Bulk append attributes; returns the first appended attribute id
        (one array extend per column)."""
        with self.mutation_lock:
            base = self.num_attrs
            self._attr_owner.extend(owners)
            self._attr_name.extend(names)
            self._attr_value.extend(values)
            return base

    # -------------------------------------------------------------- indices
    def _extended(self, index: _KeyIndex, column: str) -> _KeyIndex:
        """``index`` brought up to date with ``column``, its key column.

        Only the rows appended since the last call are sorted (see
        :class:`_KeyIndex`); the length is read again under the lock so
        two racing readers extend once.
        """
        if index.indexed < len(getattr(self, column)):
            with self.mutation_lock:
                tail = self.logical_column(column, index.indexed)
                if len(tail):
                    self.index_sorted += index.extend(tail)
                    self.index_extensions += 1
        return index

    def children_ranges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each node: the slice of the child index holding its children.

        Returns ``(order, lo, hi)`` — children of ``nodes[i]`` are
        ``order[lo[i]:hi[i]]``, already sorted in document order.
        """
        return self._extended(self._children, "parent").ranges(nodes)

    def attr_ranges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`children_ranges` but over the attribute table."""
        return self._extended(self._attrs, "attr_owner").ranges(nodes)

    def _attr_index(self, stop: int) -> _KeyIndex:
        """The attribute index, extended at least over the attributes of
        every fragment that starts below row ``stop`` — a reader of older
        rows does not pay for indexing the newest."""
        index = self._attrs
        if index.indexed < len(self._attr_owner):
            bases = self._frag_base
            after = int(bases.view().searchsorted(stop))
            needed = (
                int(self._frag_abase[after])
                if after < len(bases)
                else len(self._attr_owner)
            )
            if index.indexed < needed:
                self._extended(index, "attr_owner")
        return index

    def attrs_in_span(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """All attributes owned by rows ``start .. stop-1``, batched.

        Returns ``(ids, counts)``: ``ids`` are attribute ids grouped by
        owner in ascending row order (within one owner, append == document
        order) and ``counts[i]`` is how many of them row ``start+i`` owns.
        Because pre-order subtrees are contiguous row ranges, this fetches
        the attributes of a whole subtree with two binary searches.
        """
        index = self._attr_index(stop)
        owners = index.keys.view()
        lo, hi = owners.searchsorted((start, stop))
        return index.order.view()[lo:hi], np.bincount(
            owners[lo:hi] - start, minlength=stop - start
        )

    def attrs_in_spans(
        self, starts, stops
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All attributes owned by the rows of several spans, batched.

        Returns ``(ids, owners, counts)``: the attribute ids of the rows
        ``starts[i] .. stops[i]-1``, span after span, each span's grouped
        by owner in ascending row order; ``owners`` their owning rows and
        ``counts[i]`` how many span ``i`` holds.  Spans may overlap (a
        node and its own descendant): each is reported in full — the
        scan serializer's and the bulk element constructor's replacement
        for a per-node :meth:`attr_ranges` call.
        """
        stops = np.asarray(stops, dtype=np.int64)
        index = self._attr_index(int(stops.max()) if len(stops) else 0)
        keys = index.keys.view()
        lo = keys.searchsorted(starts)
        hi = keys.searchsorted(stops)
        picks = multi_arange(lo, hi)
        return index.order.view()[picks], keys[picks], hi - lo

    def text_rows(self) -> np.ndarray:
        """All text-node rows, ascending (== document order)."""
        if self._text_indexed < self.num_nodes:
            with self.mutation_lock:
                lo = self._text_indexed
                if lo < self.num_nodes:
                    kinds = self.logical_column("kind", lo)
                    self._text_rows.extend(np.nonzero(kinds == NK_TEXT)[0] + lo)
                    self._text_indexed = lo + len(kinds)
                    self.index_extensions += 1
        return self._text_rows.view()

    # ------------------------------------------------------------ structure
    def frag_end(self, rows: np.ndarray) -> np.ndarray:
        """Last row id (inclusive) of each row's fragment."""
        b = self.root_of(rows)
        return b + self.size[b]

    def root_of(self, rows: np.ndarray) -> np.ndarray:
        """Fragment root (document node for loaded documents).

        Found by binary search on the fragment bases rather than via the
        ``frag`` column, so it works for rows of cold paged fragments
        too (their ``frag`` entries are unwritten until fault-in).
        """
        bases = self.frag_base
        return bases[np.searchsorted(bases, rows, side="right") - 1]

    # --------------------------------------------------------- string value
    def string_value_id(self, node: int) -> int:
        """Pool surrogate of the node's string-value."""
        return int(self.string_value_ids(np.asarray((node,), dtype=np.int64))[0])

    def string_value_ids(self, nodes: np.ndarray) -> np.ndarray:
        """Pool surrogates of the string-values of a batch of node rows.

        Text, comment and PI rows carry theirs in ``value``; an element
        or document with exactly one text descendant shares that text's
        surrogate, found by two binary searches on the text-row index.
        Nodes spanning several texts are joined in one batch
        (:meth:`_joined_text_ids`).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        self.ensure_rows(nodes)
        out = self.value[nodes]
        kinds = self.kind[nodes]
        inner = np.nonzero((kinds == NK_ELEM) | (kinds == NK_DOC))[0]
        if len(inner):
            rows = nodes[inner]
            texts = self.text_rows()
            lo = np.searchsorted(texts, rows, side="right")
            hi = np.searchsorted(texts, rows + self.size[rows], side="right")
            sids = np.full(len(rows), self.pool.intern(""), dtype=np.int64)
            single = hi - lo == 1
            sids[single] = self.value[texts[lo[single]]]
            several = np.nonzero(hi - lo > 1)[0]
            if len(several):
                sids[several] = self._joined_text_ids(
                    rows[several], texts, lo[several], hi[several]
                )
            out[inner] = sids
        return out

    def _joined_text_ids(self, nodes, texts, lo, hi) -> np.ndarray:
        """Surrogates of the concatenated values of ``texts[lo:hi]``, per
        node: the strings of every uncached node are decoded with one
        fancy index and interned in one batch.  Cached for persistent
        rows only, and :meth:`truncate_to` drops the entries of popped
        rows — a cached entry never outlives its row."""
        cache = self._strvalue_cache
        nodes = nodes.tolist()
        out = np.fromiter((cache.get(n, -1) for n in nodes), np.int64, len(nodes))
        miss = np.nonzero(out < 0)[0]
        if len(miss):
            pieces = self.pool.values(self.value[texts[multi_arange(lo[miss], hi[miss])]])
            ends = np.cumsum(hi[miss] - lo[miss]).tolist()
            joined = ["".join(pieces[a:b]) for a, b in zip([0, *ends], ends)]
            out[miss] = self.pool.intern_many(joined)
            for i in miss.tolist():
                if nodes[i] < self.persistent_rows:
                    cache[nodes[i]] = int(out[i])
        return out

    # --------------------------------------------------------- construction
    def new_text_nodes(self, value_ids) -> np.ndarray:
        """Construct parentless text nodes (``text { ... }``), one
        transient fragment each, with one write per column; returns
        their rows."""
        values = np.asarray(value_ids, dtype=np.int64)
        n = len(values)
        if n == 0:
            return _EMPTY
        with self.mutation_lock:
            rows = np.arange(self.num_nodes, self.num_nodes + n, dtype=np.int64)
            kind, size, level, frag, parent, name, value = self._node_tails(n)
            kind[:] = NK_TEXT
            size[:] = level[:] = 0
            fid = len(self._frag_base)
            frag[:] = np.arange(fid, fid + n)
            parent[:] = name[:] = -1
            value[:] = values
            self._publish_transient(rows, np.full(n, self.num_attrs, dtype=np.int64), n)
            return rows

    def new_attributes(self, name_ids, value_ids) -> np.ndarray:
        """Construct parentless attributes (computed attribute
        constructor) with one append; returns their ids.

        The owner is ``-1`` until an element constructor copies them.
        """
        names = np.asarray(name_ids, dtype=np.int64)
        n = len(names)
        if n == 0:
            return _EMPTY
        with self.mutation_lock:
            self._enter_transient()
            first = self.append_attrs(
                np.full(n, -1, dtype=np.int64), names, value_ids
            )
            return np.arange(first, first + n, dtype=np.int64)

    def new_text_node(self, value_id: int) -> int:
        """Construct one parentless text node (:meth:`new_text_nodes`)."""
        return int(self.new_text_nodes((value_id,))[0])

    def new_attribute(self, name_id: int, value_id: int) -> int:
        """Construct one parentless attribute (:meth:`new_attributes`)."""
        return int(self.new_attributes((name_id,), (value_id,))[0])

    def new_element(
        self,
        name_id: int,
        attrs: Sequence[tuple[int, int]],
        content: Sequence[tuple[str, int]],
    ) -> int:
        """Construct one element tree (``element {..} {..}`` / direct).

        ``content`` entries are ``('copy', node_row)`` — a deep copy of an
        existing subtree (XQuery constructor copy semantics), ``('text',
        value_id)`` — a new text child, or ``('attr', attr_id)`` — an
        attribute to copy onto the new element; ``attrs`` are ``(name,
        value)`` surrogate pairs that precede them.  A one-element call
        of :meth:`new_elements`; returns the new root row.
        """
        try:
            tags = [CONTENT_TAGS[tag] for tag, _ in content]
        except KeyError as exc:
            raise DynamicError(f"bad constructor content tag {exc.args[0]!r}") from None
        payloads = [payload for _, payload in content]
        if attrs:
            ids = self.new_attributes(*zip(*attrs)).tolist()
            tags = [C_ATTR] * len(ids) + tags
            payloads = ids + payloads
        owner = np.zeros(len(tags), dtype=np.int64)
        return int(self.new_elements((name_id,), owner, tags, payloads)[0])

    def new_elements(self, name_ids, owner, tags, payloads) -> np.ndarray:
        """Construct one element per entry of ``name_ids`` — all of one
        ``ElemConstr`` operator's elements — and return their root rows.

        The content comes as flat entry arrays sorted by ``owner`` (the
        position in ``name_ids`` of the element an entry belongs to),
        then by content order: ``tags`` (:data:`C_TEXT`, :data:`C_COPY`,
        :data:`C_ATTR`) and ``payloads`` (text surrogate, node row,
        attribute id).  The element content rules of XQuery 1.0
        §3.7.1.3 apply: a copied document node contributes its children,
        adjacent text nodes merge and zero-length ones are dropped; an
        attribute after other content raises ``err:XQTY0024``, two
        attributes of one name on one element ``err:XQDY0025``.

        Every element is its own transient fragment.  They are built
        under one hold of ``mutation_lock``, written straight into the
        reserved tail of each column and published at once: copied rows
        are gathered with one ``multi_arange`` (row counts from
        ``size``, ``level`` and ``parent`` rebased per copy) and their
        attributes fetched with one :meth:`attrs_in_spans` call.
        """
        names = np.asarray(name_ids, dtype=np.int64)
        if len(names) == 0:
            return _EMPTY
        owner = np.asarray(owner, dtype=np.int64)
        tags = np.asarray(tags, dtype=np.int64)
        payloads = np.asarray(payloads, dtype=np.int64)
        attrs = None
        with self.mutation_lock:
            # every index and column is read before the first append: an
            # unsealed fragment is never indexed
            present = np.bincount(tags, minlength=3)
            if present[C_ATTR]:
                # read before the copy sources fault in: without a lease a
                # fault may evict the fragment these attributes live in
                ids = payloads[tags == C_ATTR]
                self.ensure_attrs(ids)
                attrs = (self.attr_name[ids], self.attr_value[ids])
            if present[C_COPY]:
                rows = payloads[tags == C_COPY]
                self.ensure_rows(rows)
                kinds = np.bincount(self.kind[rows], minlength=NK_TEXT + 1)
                if kinds[NK_DOC] or kinds[NK_TEXT]:
                    owner, tags, payloads = self._resolve_copies(owner, tags, payloads)
                    present = np.bincount(tags, minlength=3)
            if present[C_TEXT]:
                owner, tags, payloads = self._merge_texts(owner, tags, payloads)
            if attrs is not None:
                self._check_attributes(owner, tags, attrs[0])
            return self._append_elements(names, owner, tags, payloads, attrs)

    def _resolve_copies(self, owner, tags, payloads):
        """Copied document nodes become copies of their children and
        copied text nodes new text entries.  Returns new entry arrays
        (the caller's are never written)."""
        at = (tags == C_COPY).nonzero()[0]
        kinds = self.kind[payloads[at]]
        docs = kinds == NK_DOC
        if docs.any():
            order, lo, hi = self.children_ranges(payloads[at[docs]])
            widths = np.ones(len(tags), dtype=np.int64)
            widths[at[docs]] = hi - lo
            firsts = (widths.cumsum() - widths)[at[docs]]
            owner, tags, payloads = (
                column.repeat(widths) for column in (owner, tags, payloads)
            )
            payloads[multi_arange(firsts, firsts + hi - lo)] = order[
                multi_arange(lo, hi)
            ]
            at = (tags == C_COPY).nonzero()[0]
            kinds = self.kind[payloads[at]]
        at = at[kinds == NK_TEXT]
        tags, payloads = tags.copy(), payloads.copy()
        tags[at] = C_TEXT
        payloads[at] = self.value[payloads[at]]
        return owner, tags, payloads

    def _merge_texts(self, owner, tags, payloads):
        """Adjacent text entries of one element merge into one, and
        zero-length ones are dropped.  Only runs of more than one text
        join strings in Python."""
        pool = self.pool
        is_text = tags == C_TEXT
        drop = np.zeros(len(tags), dtype=bool)
        # entry i + 1 continues the text run entry i is in
        drop[1:] = is_text[1:] & is_text[:-1] & (owner[1:] == owner[:-1])
        if drop.any():
            payloads = payloads.copy()
            heads = np.flatnonzero(~drop)
            ends = np.append(heads[1:], len(tags))
            runs = ends - heads > 1
            for lo, hi in zip(heads[runs].tolist(), ends[runs].tolist()):
                payloads[lo] = pool.intern("".join(pool.values(payloads[lo:hi])))
        empty = pool.lookup("")
        if empty >= 0:
            drop |= is_text & (payloads == empty)
        if not drop.any():
            return owner, tags, payloads
        keep = ~drop
        return owner[keep], tags[keep], payloads[keep]

    def _check_attributes(self, owner, tags, names) -> None:
        """Raise the constructor errors that would make the element
        ill-formed; ``names`` are the attribute entries' names."""
        is_attr = tags == C_ATTR
        if np.any(is_attr[1:] & ~is_attr[:-1] & (owner[1:] == owner[:-1])):
            raise TypeError_(
                "an attribute follows non-attribute content in an element "
                "constructor",
                code="err:XQTY0024",
            )
        owners = owner[is_attr]
        if len(owners) > 1 and np.any(owners[1:] == owners[:-1]):
            span = int(names.max()) + 1
            keys = np.sort(owners * span + names)
            dup = keys[1:][keys[1:] == keys[:-1]]
            if len(dup):
                raise DynamicError(
                    f"duplicate attribute {self.pool.value(int(dup[0] % span))!r} "
                    "in an element constructor",
                    code="err:XQDY0025",
                )

    def _append_elements(self, names, owner, tags, payloads, attrs) -> np.ndarray:
        """Lay out and append the elements of :meth:`new_elements` once
        their entries are resolved: each element's root row is followed
        by its entries' rows (one per text, ``size + 1`` per copy), and
        its attributes by its entries' attributes, in entry order."""
        n = len(names)
        base = self.num_nodes
        text_at = (tags == C_TEXT).nonzero()[0]
        copy_at = (tags == C_COPY).nonzero()[0]
        src = payloads[copy_at]
        spans = self.size[src] + 1
        widths = np.zeros(len(tags), dtype=np.int64)
        widths[text_at] = 1
        widths[copy_at] = spans
        # entry i follows the roots of elements 0..owner[i] and the rows
        # of every earlier entry
        before = np.concatenate((_ZERO, widths.cumsum()))
        firsts = owner.searchsorted(np.arange(n + 1))
        bounds = before[firsts]
        roots = np.arange(n, dtype=np.int64) + bounds[:-1]
        frag_widths = bounds[1:] - bounds[:-1] + 1
        total = n + int(before[-1])
        dest = owner + 1 + before[:-1]
        parents = roots + base

        # written straight into the reserved tails of the node columns
        kind, size, level, frag, parent, name, value = self._node_tails(total)
        fid = len(self._frag_base)
        frag[:] = np.arange(fid, fid + n).repeat(frag_widths)
        kind[roots] = NK_ELEM
        size[roots] = frag_widths - 1
        level[roots] = 0
        parent[roots] = -1
        name[roots] = names
        value[roots] = -1
        if len(text_at):
            at = dest[text_at]
            kind[at] = NK_TEXT
            size[at] = 0
            level[at] = 1
            parent[at] = parents[owner[text_at]]
            name[at] = -1
            value[at] = payloads[text_at]
        if len(src):
            rows = multi_arange(src, src + spans)
            # copy c's rows move by shift[c] (plus the base once published)
            shift = dest[copy_at] - src
            to = rows + shift.repeat(spans)
            kind[to] = self.kind[rows]
            size[to] = self.size[rows]
            level[to] = self.level[rows] + (1 - self.level[src]).repeat(spans)
            parent[to] = self.parent[rows] + (to - rows + base)
            parent[dest[copy_at]] = parents[owner[copy_at]]
            name[to] = self.name[rows]
            value[to] = self.value[rows]

        # attributes — owner, name, value — in entry order: an element's
        # attribute entries come first, then its copies' attributes
        ids = owners = counts = _EMPTY
        if len(src):
            ids, owners, counts = self.attrs_in_spans(src, src + spans)
            owners = owners + (shift + base).repeat(counts)
        a_widths = np.zeros(len(tags), dtype=np.int64)
        a_widths[copy_at] = counts
        if attrs is not None:
            attr_at = (tags == C_ATTR).nonzero()[0]
            a_widths[attr_at] = 1
        a_before = np.concatenate((_ZERO, a_widths.cumsum()))
        abases = self.num_attrs + a_before[firsts][:-1]
        attr_rows = (owners, self.attr_name[ids], self.attr_value[ids])
        if attrs is not None:
            # interleave the attribute entries with the copied attributes
            copied = attr_rows
            attr_rows = np.empty((3, int(a_before[-1])), dtype=np.int64)
            attr_rows[:, a_before[attr_at]] = (parents[owner[attr_at]], *attrs)
            at = a_before[copy_at]
            attr_rows[:, multi_arange(at, at + counts)] = copied

        self._publish_transient(parents, abases, total)
        if len(attr_rows[0]):
            self.append_attrs(*attr_rows)
        return parents

    # ------------------------------------------------------------ updates
    def rebuild_with_delta(self, root: int, delta: TreeDelta) -> int:
        """Rebuild the fragment rooted at ``root`` with ``delta`` applied.

        This is the structural-update primitive behind the XQuery Update
        Facility: rows never change in place, so instead of shifting
        ``pre`` ranks the affected document is spliced into a **new
        fragment** on top of the stack and the caller swaps the catalog
        entry to the returned root — an epoch bump, not a re-shred of XML
        text.  The old rows stay valid for results that still hold them;
        :meth:`reclaim` pops them once nobody can.

        Only rows whose subtree holds a touched row are walked.  At each,
        the children that hold none split into runs of consecutive
        siblings, and since siblings are contiguous in pre order every
        run is one *region* ``[first, last + size[last] + 1)``, as is
        every copied subtree (a copied document node: the region of its
        children).  The regions are then copied into the new columns with
        one slice per column, their ``level`` shifted and ``parent``
        rebased; walked rows and new text nodes are single rows.  Among
        the children of a walked row adjacent text nodes merge and empty
        ones are dropped (XDM) — only there can an edit make them meet.
        """
        pool = self.pool
        content_tables = [getattr(delta, f) for f in TreeDelta.ROW_CONTENT_FIELDS]

        def text_tail(item) -> bool:
            """Whether ``item``'s last top-level node is a text node."""
            if item[0] != "r":
                return item[0] == "t"
            start, stop = item[1], item[2]
            return kind[stop - 1] == NK_TEXT and parent[stop - 1] == parent[start]

        def push(items: list, item) -> None:
            """Append a child item: a region ``("r", start, stop)``, text
            ``("t", [sid, ..])`` or walked row ``("n", row)``.  Text next
            to text merges into one item; a text node at the meeting end
            of a region is split off the region to merge."""
            rest = None
            if item[0] == "r" and kind[item[1]] == NK_TEXT and items and text_tail(items[-1]):
                start, stop = item[1], item[2]
                if start + 1 < stop:
                    rest = ("r", start + 1, stop)
                item = ("t", [int(value[start])])
            if item[0] == "t" and items and text_tail(items[-1]):
                last = items.pop()
                if last[0] == "t":
                    item = ("t", last[1] + item[1])
                else:
                    start, stop = last[1], last[2] - 1
                    if stop > start:
                        items.append(("r", start, stop))
                    item = ("t", [int(value[stop]), *item[1]])
            items.append(item)
            if rest is not None:
                items.append(rest)

        def content(entries, items: list) -> None:
            """Push inserted content: a copy is a region (a document
            node's: the region of its children), a copied text node or
            ``("text", sid)`` entry is text."""
            for tag, payload in entries:
                if tag == "text":
                    push(items, ("t", [payload]))
                elif kind[payload] == NK_TEXT:
                    push(items, ("t", [int(value[payload])]))
                else:
                    stop = payload + int(size[payload]) + 1
                    start = payload + int(kind[payload] == NK_DOC)
                    if start < stop:
                        push(items, ("r", start, stop))

        def children(row: int) -> list:
            """The child items of walked ``row``, in document order."""
            items: list = []
            if row in delta.replace_content:
                push(items, ("t", [delta.replace_content[row]]))
                return items
            content(delta.insert_first.get(row, ()), items)
            order, lo, hi = self.children_ranges(np.asarray((row,), dtype=np.int64))
            kids = order[int(lo[0]) : int(hi[0])]
            ends = kids + size[kids]
            hot = touched.searchsorted(kids) < touched.searchsorted(ends, side="right")
            first = 0
            for i in np.flatnonzero(hot):
                if i > first:
                    push(items, ("r", int(kids[first]), int(ends[i - 1]) + 1))
                first = i + 1
                child = int(kids[i])
                content(delta.insert_before.get(child, ()), items)
                if child in delta.delete:
                    pass
                elif child in delta.replace:
                    content(delta.replace[child], items)
                elif kind[child] == NK_TEXT:
                    sid = delta.replace_value.get(child, int(value[child]))
                    push(items, ("t", [sid]))
                else:
                    push(items, ("n", child))
                content(delta.insert_after.get(child, ()), items)
            if first < len(kids):
                push(items, ("r", int(kids[first]), int(ends[-1]) + 1))
            content(delta.insert_last.get(row, ()), items)
            return items

        def attributes(row: int, at: int) -> None:
            """The attributes of walked element ``row`` (new row ``at``):
            its span of the old table, or the edited list spliced in."""
            if row not in attr_edited:
                spans.append((row, row + 1, at))
                return
            span = len(spans)
            spans.append((row, row, at))
            for aid in self.attrs_in_span(row, row + 1)[0]:
                aid = int(aid)
                if aid in delta.delete_attrs:
                    continue
                if aid in delta.replace_attr:
                    pairs = delta.replace_attr[aid]
                else:
                    pairs = (
                        (
                            delta.rename_attr.get(aid, int(self.attr_name[aid])),
                            delta.replace_attr_value.get(aid, int(self.attr_value[aid])),
                        ),
                    )
                edits.extend((span, at, n, v) for n, v in pairs)
            edits.extend((span, at, n, v) for n, v in delta.insert_attrs.get(row, ()))

        def emit(row: int, depth: int, up: int) -> None:
            """Lay out walked ``row`` at ``depth`` under new row ``up``,
            then its children (``up`` and ``out`` are new row ids)."""
            nonlocal out
            at = out
            k = int(kind[row])
            name_id = delta.rename.get(row, int(name[row]))
            entry = [at, k, 0, depth, up, name_id, delta.replace_value.get(row, int(value[row]))]
            rows.append(entry)
            out += 1
            if k == NK_ELEM:
                attributes(row, at)
            if k == NK_ELEM or k == NK_DOC:
                for item in children(row):
                    if item[0] == "n":
                        emit(item[1], depth + 1, at)
                    elif item[0] == "t":
                        sids = item[1]
                        text = "".join(pool.values(sids))
                        if text:  # empty text nodes are dropped
                            sid = sids[0] if len(sids) == 1 else pool.intern(text)
                            rows.append([out, NK_TEXT, 0, depth + 1, at, -1, sid])
                            out += 1
                    else:
                        start, stop = item[1], item[2]
                        regions.append((start, stop, out, depth + 1, at))
                        spans.append((start, stop, out))
                        out += stop - start
            entry[2] = out - at - 1

        with self.mutation_lock:
            if root in delta.delete:
                raise DynamicError("an update may not delete the document root")
            # the old document and every copy source are read below;
            # fault them in up front (updates materialise their targets
            # by design — the rebuilt fragment is dirty and unevictable
            # until checkpointed)
            sources = [
                payload
                for table in content_tables
                for entries in table.values()
                for tag, payload in entries
                if tag == "copy"
            ]
            self.ensure_rows([root, *sources])
            #: elements whose attribute list the delta edits
            attr_edited = {
                int(self.attr_owner[aid])
                for f in TreeDelta.ATTR_FIELDS
                for aid in getattr(delta, f)
            }
            attr_edited.update(delta.insert_attrs)
            touched = np.asarray(
                sorted(
                    attr_edited.union(
                        delta.delete,
                        delta.replace_value,
                        delta.replace_content,
                        delta.rename,
                        *content_tables,
                    )
                ),
                dtype=np.int64,
            )
            kind, size, level, parent = self.kind, self.size, self.level, self.parent
            name, value = self.name, self.value
            base = out = self.num_nodes
            #: walked rows and new text nodes: new row id, then the
            #: kind, size, level, parent, name and value columns
            rows: list[list[int]] = []
            #: ``(start, stop, new row of start, new level, new parent)``
            regions: list[tuple[int, int, int, int, int]] = []
            #: attribute sources in output order, ``(start, stop, new row
            #: of start)``, and edited attributes spliced in before span i
            spans: list[tuple[int, int, int]] = []
            edits: list[tuple[int, int, int, int]] = []
            emit(root, 0, -1)
            # ``emit`` recurses through its own closure cell: unbinding it
            # breaks that reference cycle, so the piece lists above die
            # with this call instead of waiting for the cyclic collector
            del emit

            columns = np.empty((6, out - base), dtype=np.int64)
            kinds, sizes, levels, parents, names, values = columns
            for start, stop, at, depth, up in regions:
                src = slice(start, stop)
                dst = slice(at - base, at - base + stop - start)
                kinds[dst] = kind[src]
                sizes[dst] = size[src]
                levels[dst] = level[src] + (depth - int(level[start]))
                old = parent[src]
                parents[dst] = np.where(old >= start, old + (at - start), up)
                names[dst] = name[src]
                values[dst] = value[src]
            single = np.asarray(rows, dtype=np.int64).T
            columns[:, single[0] - base] = single[1:]

            a_cols = (_EMPTY, _EMPTY, _EMPTY)
            if spans:
                starts, stops, ats = np.asarray(spans, dtype=np.int64).T
                ids, owners, counts = self.attrs_in_spans(starts, stops)
                a_cols = (
                    owners + (ats - starts).repeat(counts),
                    self.attr_name[ids],
                    self.attr_value[ids],
                )
                if edits:
                    span, *edited = np.asarray(edits, dtype=np.int64).T
                    before = np.concatenate((_ZERO, counts.cumsum()))[span]
                    a_cols = [np.insert(col, before, new) for col, new in zip(a_cols, edited)]

            self.begin_fragment()
            first = self.append_nodes(kinds, sizes, levels, parents, names, values)
            if len(a_cols[0]):
                self.append_attrs(*a_cols)
            return first

    # ------------------------------------------------------------ node info
    def name_of(self, node: int) -> str:
        """Tag name of an element / PI target."""
        nid = int(self.name[node])
        return self.pool.value(nid) if nid >= 0 else ""
