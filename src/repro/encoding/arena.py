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
from typing import NamedTuple, Sequence

import numpy as np

from repro.encoding.paging import PageScope
from repro.errors import DynamicError
from repro.relational.items import StringPool

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
        self._reserve(len(values))
        self._data[self._len : self._len + len(values)] = values
        self._len += len(values)

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

    This is the arena-level half of the XQuery Update Facility: the
    pending-update-list compiler (:mod:`repro.compiler.updates`) resolves
    update primitives to *old* arena rows/attribute ids and fills these
    maps; :meth:`NodeArena.rebuild_with_delta` then re-emits the document
    as a brand-new fragment with the edits applied.  Content entries are
    ``("copy", row)`` (deep copy of an existing subtree) or ``("text",
    sid)`` (a new text node), exactly like the element constructor spec.
    """

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
    *persistent*; the constructors (:meth:`new_element`,
    :meth:`new_text_node`, :meth:`new_attribute`) append *transient*
    fragments, and the first of them after a pop records the watermark
    the stack returns to.

    Concurrency contract:

    * All *mutation* — appends, pops, index extension — goes through
      ``mutation_lock`` (a reentrant mutex).  Interleaved appends from
      two threads would violate the fragment-contiguity invariant the
      whole encoding rests on ("the global row id doubles as the pre
      rank"), so constructors hold the lock for their entire fragment and
      never read a navigation index between ``begin_fragment`` and their
      last append: an index only ever covers sealed fragments.
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
        """Fault in every paged fragment (whole-arena scans such as the
        SQL-host export)."""
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
    def begin_fragment(self, transient: bool = False) -> int:
        """Start a new fragment; returns its id.  The next appended node is
        the fragment root and must carry the total subtree ``size``.

        Fragments are persistent unless ``transient`` (the constructors
        below): a persistent fragment on top of constructed rows strands
        them until :meth:`reclaim`.

        Callers appending a multi-row fragment must hold
        ``mutation_lock`` across the whole begin/append sequence so the
        fragment's rows stay contiguous (the composite constructors
        below do; :func:`~repro.encoding.shred.shred_text` runs under the
        Database's exclusive catalog lock).
        """
        with self.mutation_lock:
            if transient:
                self._enter_transient()
            else:
                self._transient = None
            self._frag_base.append(self.num_nodes)
            self._frag_abase.append(self.num_attrs)
            return len(self._frag_base) - 1

    def _enter_transient(self) -> None:
        if self._transient is None:
            self._transient = self.mark()

    def append_node(
        self, kind: int, size: int, level: int, parent: int, name: int, value: int
    ) -> int:
        """Append one node row (pre-order position), returning its row id."""
        with self.mutation_lock:
            self._kind.append(kind)
            self._size.append(size)
            self._level.append(level)
            self._frag.append(len(self._frag_base) - 1)
            self._parent.append(parent)
            self._name.append(name)
            self._value.append(value)
            return self.num_nodes - 1

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

    def append_attr(self, owner: int, name: int, value: int) -> int:
        """Append one attribute, returning its attribute id."""
        with self.mutation_lock:
            self._attr_owner.append(owner)
            self._attr_name.append(name)
            self._attr_value.append(value)
            return self.num_attrs - 1

    def append_attrs(
        self,
        owners: Sequence[int],
        names: Sequence[int],
        values: Sequence[int],
    ) -> int:
        """Bulk append attributes; returns the first appended attribute id.

        The vectorised twin of :meth:`append_attr` — one array extend
        instead of a Python loop per attribute.
        """
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

    def attrs_in_span(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """All attributes owned by rows ``start .. stop-1``, batched.

        Returns ``(ids, counts)``: ``ids`` are attribute ids grouped by
        owner in ascending row order (within one owner, append == document
        order) and ``counts[i]`` is how many of them row ``start+i`` owns.
        Because pre-order subtrees are contiguous row ranges, this fetches
        the attributes of a whole subtree with two binary searches — the
        scan serializer's replacement for a per-node :meth:`attr_ranges`
        call.
        """
        index = self._extended(self._attrs, "attr_owner")
        owners = index.keys.view()
        lo, hi = np.searchsorted(owners, (start, stop))
        return index.order.view()[lo:hi], np.bincount(
            owners[lo:hi] - start, minlength=stop - start
        )

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
        Only nodes spanning several texts pay a per-node join.
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
            for i in np.nonzero(hi - lo > 1)[0]:
                sids[i] = self._joined_text_id(int(rows[i]), texts[lo[i] : hi[i]])
            out[inner] = sids
        return out

    def _joined_text_id(self, node: int, text_rows: np.ndarray) -> int:
        """Surrogate of the concatenated ``text_rows`` values.  Cached
        for persistent rows only, and :meth:`truncate_to` drops the
        entries of popped rows — a cached entry never outlives its row."""
        sid = self._strvalue_cache.get(node)
        if sid is None:
            sid = self.pool.intern(
                "".join(self.pool.values(self.value[text_rows]))
            )
            if node < self.persistent_rows:
                self._strvalue_cache[node] = sid
        return sid

    # --------------------------------------------------------- construction
    def new_text_node(self, value_id: int) -> int:
        """Construct a parentless text node (``text { ... }``)."""
        with self.mutation_lock:
            self.begin_fragment(transient=True)
            return self.append_node(NK_TEXT, 0, 0, -1, -1, value_id)

    def new_attribute(self, name_id: int, value_id: int) -> int:
        """Construct a parentless attribute (computed attribute constructor).

        The owner is ``-1`` until an element constructor copies it.
        """
        with self.mutation_lock:
            self._enter_transient()
            return self.append_attr(-1, name_id, value_id)

    def new_element(
        self,
        name_id: int,
        attrs: Sequence[tuple[int, int]],
        content: Sequence[tuple[str, int]],
    ) -> int:
        """Construct a new element tree (``element {..} {..}`` / direct).

        ``content`` entries are ``('copy', node_row)`` — a deep copy of an
        existing subtree (XQuery constructor copy semantics), ``('text',
        value_id)`` — a new text child, or ``('attr', attr_id)`` — an
        attribute to copy onto the new element.  Returns the new root row.
        """
        copy_rows = [payload for tag, payload in content if tag == "copy"]
        if copy_rows:
            self.ensure_rows(copy_rows)
        attr_ids = [payload for tag, payload in content if tag == "attr"]
        if attr_ids:
            self.ensure_attrs(attr_ids)
        with self.mutation_lock:
            # everything read from the attribute index is resolved before
            # the fragment begins: an unsealed fragment is never indexed
            copied_attrs = [
                self.attrs_in_span(row, row + int(self.size[row]) + 1)
                for row in copy_rows
            ]
            total = (
                1
                + sum(len(counts) for _, counts in copied_attrs)
                + sum(tag == "text" for tag, _ in content)
            )
            self.begin_fragment(transient=True)
            root = self.append_node(NK_ELEM, total - 1, 0, -1, name_id, -1)
            for name, value in attrs:
                self.append_attr(root, name, value)
            copies = iter(copied_attrs)
            for tag, payload in content:
                if tag == "attr":
                    self.append_attr(
                        root,
                        int(self.attr_name[payload]),
                        int(self.attr_value[payload]),
                    )
                elif tag == "text":
                    self.append_node(NK_TEXT, 0, 1, root, -1, payload)
                elif tag == "copy":
                    self._copy_subtree(payload, root, *next(copies))
                else:  # pragma: no cover - compiler always passes valid tags
                    raise DynamicError(f"bad constructor content tag {tag!r}")
            return root

    def new_document_fragment(self) -> int:
        """Reserved for document-node constructors (not in the dialect)."""
        raise DynamicError("document {} constructors are not supported")

    def _copy_subtree(
        self, src: int, new_parent: int, attr_ids: np.ndarray, attr_counts: np.ndarray
    ) -> int:
        """Deep-copy rows ``src..src+size`` under ``new_parent``;
        ``attr_ids``/``attr_counts`` are the source span's attributes
        (:meth:`attrs_in_span`).  The caller holds ``mutation_lock`` for
        the whole enclosing fragment."""
        count = len(attr_counts)
        dest = self.num_nodes
        rows = slice(src, src + count)
        levels = self.level[rows] + (int(self.level[new_parent]) + 1 - int(self.level[src]))
        parents = self.parent[rows] + (dest - src)
        parents[0] = new_parent
        self.append_nodes(
            self.kind[rows], self.size[rows], levels, parents,
            self.name[rows], self.value[rows],
        )
        if len(attr_ids):
            self.append_attrs(
                np.repeat(np.arange(dest, dest + count), attr_counts),
                self.attr_name[attr_ids],
                self.attr_value[attr_ids],
            )
        return dest

    # ------------------------------------------------------------ updates
    def _child_rows_of(self, row: int) -> list[int]:
        """Child rows of ``row`` in document order (helper for rebuilds)."""
        order, lo, hi = self.children_ranges(np.asarray([row], dtype=np.int64))
        return order[int(lo[0]) : int(hi[0])].tolist()

    def _attr_ids_of(self, row: int) -> list[int]:
        """Attribute ids owned by ``row`` (helper for rebuilds)."""
        order, lo, hi = self.attr_ranges(np.asarray([row], dtype=np.int64))
        return order[int(lo[0]) : int(hi[0])].tolist()

    def rebuild_with_delta(self, root: int, delta: TreeDelta) -> int:
        """Re-emit the fragment rooted at ``root`` with ``delta`` applied.

        This is the structural-update primitive behind the XQuery Update
        Facility: rows never change in place, so instead of shifting
        ``pre`` ranks the whole affected document is rebuilt as a **new
        fragment** on top of the stack (one pre-order pass over the old
        rows, exactly like shredding) and the caller swaps the catalog
        entry to the returned root — an epoch bump, not a re-shred of XML
        text.  The old rows stay valid for results that still hold them;
        :meth:`reclaim` pops them once nobody can.
        """
        # the whole old document is read during the re-emit; fault it in
        # up front (updates materialise their targets by design — the
        # rebuilt fragment is dirty and unevictable until checkpointed)
        self.ensure_rows((root,))
        kinds: list[int] = []
        sizes: list[int] = []
        levels: list[int] = []
        parents: list[int] = []
        names: list[int] = []
        values: list[int] = []
        attrs: list[tuple[int, int, int]] = []  # (owner offset, name, value)

        # rows the delta touches, sorted: any subtree free of them (and
        # every copied source subtree) is emitted as one vectorised slice
        # instead of row by row — updates cost O(touched path + content),
        # not O(document), on the hot rebuild loop
        touched_set: set[int] = set(delta.delete)
        for table in (
            delta.insert_before,
            delta.insert_after,
            delta.insert_first,
            delta.insert_last,
            delta.insert_attrs,
            delta.replace,
            delta.replace_value,
            delta.replace_content,
            delta.rename,
        ):
            touched_set.update(table)
        for attr_table in (
            delta.delete_attrs,
            delta.replace_attr,
            delta.replace_attr_value,
            delta.rename_attr,
        ):
            touched_set.update(int(self.attr_owner[a]) for a in attr_table)
        touched = np.asarray(sorted(touched_set), dtype=np.int64)

        def append_row(kind, level, parent, name, value) -> int:
            offset = len(kinds)
            kinds.append(kind)
            sizes.append(0)
            levels.append(level)
            parents.append(parent)
            names.append(name)
            values.append(value)
            return offset

        def bulk_copy(row: int, level: int, parent: int) -> int:
            """Copy the whole subtree of ``row`` verbatim as array slices
            (region copy: the subtree is rows ``row .. row+size``)."""
            count = int(self.size[row]) + 1
            base_off = len(kinds)
            src = slice(row, row + count)
            kinds.extend(self.kind[src].tolist())
            sizes.extend(self.size[src].tolist())
            levels.extend((self.level[src] - int(self.level[row]) + level).tolist())
            parents.extend((self.parent[src] - row + base_off).tolist())
            parents[base_off] = parent
            names.extend(self.name[src].tolist())
            values.extend(self.value[src].tolist())
            ids, _ = self.attrs_in_span(row, row + count)
            attrs.extend(
                zip(
                    (self.attr_owner[ids] + (base_off - row)).tolist(),
                    self.attr_name[ids].tolist(),
                    self.attr_value[ids].tolist(),
                )
            )
            return count

        def copy_fresh(row: int, level: int, parent: int) -> int:
            """Deep-copy ``row`` verbatim (inserted/replacement content is
            outside the delta's domain); returns rows appended."""
            if int(self.kind[row]) == NK_DOC:
                # a document-node source contributes its children
                return sum(
                    bulk_copy(c, level, parent) for c in self._child_rows_of(row)
                )
            return bulk_copy(row, level, parent)

        def emit_entry(entry, level: int, parent: int) -> int:
            tag, payload = entry
            if tag == "text":
                append_row(NK_TEXT, level, parent, -1, payload)
                return 1
            return copy_fresh(payload, level, parent)

        def emit_inserts(table: dict, row: int, level: int, parent: int) -> int:
            return sum(emit_entry(e, level, parent) for e in table.get(row, ()))

        def emit(row: int, level: int, parent: int) -> int:
            """Emit ``row`` with the delta applied; returns rows appended."""
            if row in delta.delete:
                return 0
            if row in delta.replace:
                return sum(
                    emit_entry(e, level, parent) for e in delta.replace[row]
                )
            # untouched subtree: one region copy instead of a row walk
            nxt = int(np.searchsorted(touched, row))
            if nxt == len(touched) or int(touched[nxt]) > row + int(self.size[row]):
                return bulk_copy(row, level, parent)
            kind = int(self.kind[row])
            name = delta.rename.get(row, int(self.name[row]))
            value = delta.replace_value.get(row, int(self.value[row]))
            offset = append_row(kind, level, parent, name, value)
            if kind == NK_ELEM:
                for aid in self._attr_ids_of(row):
                    if aid in delta.delete_attrs:
                        continue
                    if aid in delta.replace_attr:
                        for aname, avalue in delta.replace_attr[aid]:
                            attrs.append((offset, aname, avalue))
                        continue
                    aname = delta.rename_attr.get(aid, int(self.attr_name[aid]))
                    avalue = delta.replace_attr_value.get(
                        aid, int(self.attr_value[aid])
                    )
                    attrs.append((offset, aname, avalue))
                for aname, avalue in delta.insert_attrs.get(row, ()):
                    attrs.append((offset, aname, avalue))
            total = 1
            if kind in (NK_ELEM, NK_DOC):
                if row in delta.replace_content:
                    sid = delta.replace_content[row]
                    if self.pool.value(sid) != "":
                        total += emit_entry(("text", sid), level + 1, offset)
                else:
                    total += emit_inserts(delta.insert_first, row, level + 1, offset)
                    for child in self._child_rows_of(row):
                        total += emit_inserts(
                            delta.insert_before, child, level + 1, offset
                        )
                        total += emit(child, level + 1, offset)
                        total += emit_inserts(
                            delta.insert_after, child, level + 1, offset
                        )
                    total += emit_inserts(delta.insert_last, row, level + 1, offset)
            sizes[offset] = total - 1
            return total

        with self.mutation_lock:
            emitted = emit(root, 0, -1)
            # ``emit`` recurses through its own closure cell: unbinding it
            # breaks that reference cycle, so the row lists above die with
            # this call instead of waiting for the cyclic garbage collector
            del emit
            if emitted == 0:  # pragma: no cover - guarded upstream
                raise DynamicError("an update may not delete the document root")
            self.begin_fragment()
            first_row = self.num_nodes
            rebased = [p + first_row if p >= 0 else -1 for p in parents]
            base = self.append_nodes(kinds, sizes, levels, rebased, names, values)
            if attrs:
                owners, attr_names, attr_values = zip(*attrs)
                self.append_attrs(
                    np.asarray(owners, dtype=np.int64) + base,
                    attr_names,
                    attr_values,
                )
            return base

    # ------------------------------------------------------------ node info
    def name_of(self, node: int) -> str:
        """Tag name of an element / PI target."""
        nid = int(self.name[node])
        return self.pool.value(nid) if nid >= 0 else ""
