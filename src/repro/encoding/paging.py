"""Lazy fragment paging: mmap-cold columns under an eviction budget.

The paper's core bet is that the pre/size encoding lives in flat columns
the OS can page (Section 3.1); this module makes the arena honour it for
catalogs larger than RAM.  A :class:`FragmentPager` tracks *paged*
fragments — document fragments adopted from a persistent store whose
column data still lives in the store's memory-mapped files
(:class:`~repro.encoding.store.PagedFragment`).  For each one the arena
has merely **reserved** its row/attribute span (zero pages, nothing
written); the pager materialises the span on first touch (a *fault*) and
releases it again (an *eviction*) when the resident bytes of all tracked
fragments exceed ``budget_bytes``:

* **fault-in** copies the memmapped columns into the reserved arena
  span exactly once: parents/owners rebased by the span base, local
  string surrogates translated through the fragment's ``gsids`` table.
  The translation is deterministic, so a re-fault after eviction writes
  byte-identical values — row and attribute ids stay stable for the
  fragment's whole life.
* **eviction** picks the least-recently-touched unpinned fragment and
  returns its span to the OS with ``madvise(MADV_DONTNEED)`` over the
  page-aligned interior of each column slice (best effort; on platforms
  without ``madvise`` the accounting still works, the RSS just does not
  shrink).  Only *clean* fragments are tracked: anything rebuilt by a
  :class:`~repro.encoding.arena.TreeDelta` is untracked (pinned in
  memory) until a checkpoint re-registers its freshly written backing.
* **pinning** protects readers from eviction: every touch while a
  :class:`PageScope` is the thread's current scope (one per executing
  query / streaming serialization, see ``Database.read_locked``) pins
  the fragment until the scope closes, so a result can stream long
  after the catalog lock dropped.  While scopes are live the budget may
  transiently overshoot; closing the scope trims back down.  The same
  scope object is the reader's *lease* on the arena's transient region
  (``NodeArena.page_scope``): one life cycle covers "my fragments stay
  resident" and "my rows stay there".

Locking: the pager deliberately shares the arena's ``mutation_lock``
(one reentrant lock) instead of introducing a second one — faults and
evictions write/release arena spans, index extensions and pops read and
drop them, and a single lock means there is no ordering to get wrong
between them.
"""

from __future__ import annotations

import ctypes
import mmap as _mmap_mod
import sys
import threading

import numpy as np

#: resident arena bytes per node row (7 int64 columns in the flat bufs)
NODE_RESIDENT_BYTES = 7 * 8
#: resident arena bytes per attribute row (3 int64 columns)
ATTR_RESIDENT_BYTES = 3 * 8

_PAGE = _mmap_mod.PAGESIZE
_MADV_DONTNEED = 4
_libc = None
if sys.platform.startswith("linux"):  # pragma: no branch - CI is linux
    try:
        _libc = ctypes.CDLL(None, use_errno=True)
        _libc.madvise.argtypes = (
            ctypes.c_void_p,
            ctypes.c_size_t,
            ctypes.c_int,
        )
    except OSError:  # pragma: no cover - exotic libc
        _libc = None


def release_span(arr: np.ndarray, lo: int, hi: int) -> int:
    """``madvise(MADV_DONTNEED)`` the page-aligned interior of a slice.

    Returns the number of bytes advised (0 when the platform cannot, or
    the aligned interior is empty).  Partial edge pages are left alone —
    they may be shared with a neighbouring fragment's rows.
    """
    if _libc is None or hi <= lo:
        return 0
    item = arr.itemsize
    addr = arr.ctypes.data + lo * item
    end = arr.ctypes.data + hi * item
    start = -(-addr // _PAGE) * _PAGE
    stop = (end // _PAGE) * _PAGE
    if stop <= start:
        return 0
    if _libc.madvise(ctypes.c_void_p(start), ctypes.c_size_t(stop - start),
                     _MADV_DONTNEED) != 0:  # pragma: no cover - kernel refusal
        return 0
    return stop - start


def fill_adopted_span(arena, base: int, abase: int, source, fid: int) -> None:
    """Materialise ``source`` into the arena span reserved at ``base``.

    One pass per column, casting straight from the memmap into the flat
    buffers (no intermediate int64 copies): parents and attribute owners
    are rebased by ``base``, name/value surrogates translated through
    ``source.gsids``.  Deterministic — a re-fault after eviction writes
    the identical bytes.  Caller holds ``arena.mutation_lock``.
    """
    n, m = source.nodes, source.attrs
    cols = source.cols
    gsids = source.gsids
    arena._kind.view()[base : base + n] = cols["kind"]
    arena._size.view()[base : base + n] = cols["size"]
    arena._level.view()[base : base + n] = cols["level"]
    arena._frag.view()[base : base + n] = fid

    parent = cols["parent"].astype(np.int64)
    mask = parent >= 0
    parent[mask] += base
    parent[~mask] = -1
    arena._parent.view()[base : base + n] = parent

    for cname, buf in (("name", arena._name), ("value", arena._value)):
        local = cols[cname]
        out = buf.view()[base : base + n]
        out[:] = -1
        mask = local >= 0
        out[mask] = gsids[local[mask]]

    if m:
        acols = source.acols
        owner = arena._attr_owner.view()[abase : abase + m]
        owner[:] = acols["attr_owner"]
        owner += base
        for cname, buf in (
            ("attr_name", arena._attr_name),
            ("attr_value", arena._attr_value),
        ):
            local = acols[cname]
            out = buf.view()[abase : abase + m]
            out[:] = -1
            mask = local >= 0
            out[mask] = gsids[local[mask]]


class PageScope:
    """One reader's hold on an arena: a lease and a pin set in one.

    While the scope is open the arena pops no row (transient fragments
    live as long as the readers that may reference them); when the last
    open scope of an arena closes, its transient run is popped.  Used as
    a context manager the scope is also the calling thread's *current*
    scope (scopes nest per thread, innermost wins): paged fragments
    touched meanwhile are pinned against eviction until it closes.  A
    scope that is merely held — a ``QueryResult`` owns one, shared with
    the ``NodeHandle`` objects it hands out — collects no pins.
    ``close()`` is idempotent and also runs when the last reference goes
    (CPython refcounting: keep scopes out of reference cycles).
    """

    __slots__ = ("arena", "pinned", "closed", "_stack")

    def __init__(self, arena):
        self.arena = arena
        self.pinned: set[int] = set()
        self.closed = False
        #: the per-thread scope stack this scope was entered on
        self._stack: list | None = None
        arena._lease_opened()

    def __enter__(self) -> "PageScope":
        pager = self.arena.pager
        if pager is not None:
            self._stack = pager.scope_stack()
            self._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drop the pins, leave the thread's stack (from whichever thread
        closes a streamed result) and release the lease."""
        if self.closed:
            return
        self.closed = True
        if self._stack is not None:
            self._stack.remove(self)
        self.arena._lease_closed(self)

    def __del__(self):
        self.close()


class _FragmentRecord:
    """Pager-side state of one tracked (paged) fragment."""

    __slots__ = (
        "fid", "base", "abase", "source", "bytes",
        "hot", "pins", "last_touch", "touches",
    )

    def __init__(self, fid: int, base: int, abase: int, source):
        self.fid = fid
        self.base = base
        self.abase = abase
        self.source = source
        self.bytes = (
            source.nodes * NODE_RESIDENT_BYTES
            + source.attrs * ATTR_RESIDENT_BYTES
        )
        self.hot = False
        self.pins = 0
        self.last_touch = 0
        self.touches = 0


class FragmentPager:
    """Demand paging + LRU eviction over an arena's tracked fragments.

    One per :class:`~repro.encoding.arena.NodeArena` (created by
    ``NodeArena.enable_paging``).  All state is guarded by the arena's
    ``mutation_lock`` (see the module docstring for why it is shared).
    """

    def __init__(self, arena, budget_bytes: int | None):
        self.arena = arena
        self.budget_bytes = budget_bytes
        self._lock = arena.mutation_lock
        self._records: dict[int, _FragmentRecord] = {}
        #: per-thread stacks of entered scopes; the innermost collects
        #: the thread's pins (thread-local, so asking needs no lock)
        self._thread = threading.local()
        self.resident_bytes = 0
        self.faults = 0
        self.evictions = 0
        self.touches = 0
        self._clock = 0
        #: one past the highest tracked node row / attribute id — tails
        #: and pops above them concern no record
        self._tracked_end = (0, 0)
        #: set (lock-free) when a flat buffer reallocated: the copy made
        #: cold spans resident again, so they need re-releasing
        self._needs_release = False

    # ------------------------------------------------------------- tracking
    def register(
        self, fid: int, base: int, abase: int, source, hot: bool = False
    ) -> _FragmentRecord:
        """Track one paged fragment (``hot`` = its span is already
        materialised in the arena, e.g. a freshly persisted document)."""
        with self._lock:
            rec = _FragmentRecord(int(fid), int(base), int(abase), source)
            self._records[rec.fid] = rec
            self._tracked_end = (
                max(self._tracked_end[0], rec.base + source.nodes),
                max(self._tracked_end[1], rec.abase + source.attrs),
            )
            if hot:
                rec.hot = True
                self.resident_bytes += rec.bytes
                self._touch_locked(rec)
                self._evict_locked(protect={rec.fid})
            return rec

    def record_for_base(self, base: int) -> _FragmentRecord | None:
        """The tracked record whose fragment starts at row ``base``."""
        with self._lock:
            fid = self._fid_of_row(int(base))
            rec = self._records.get(fid)
            return rec if rec is not None and rec.base == int(base) else None

    def retire_rows(self, row: int) -> None:
        """Stop tracking the fragment containing ``row``, materialising
        it first.

        Used when a fragment's backing files are about to be garbage
        collected (document replaced / unloaded / updated): until the
        arena pops the span it must hold valid data, since whole-arena
        scanners (``export_arena``, the navigation indices) and results
        still holding its rows read it.
        """
        with self._lock:
            rec = self._records.get(self._fid_of_row(int(row)))
            if rec is None:
                return
            if not rec.hot:
                self._fault_locked(rec)
            self.resident_bytes -= rec.bytes
            del self._records[rec.fid]

    def forget_from(self, row: int) -> None:
        """Drop the records of fragments starting at ``row`` or above:
        the arena popped them (nothing is materialised — the rows are
        gone)."""
        if row >= self._tracked_end[0]:
            return
        with self._lock:
            for rec in [r for r in self._records.values() if r.base >= row]:
                if rec.hot:
                    self.resident_bytes -= rec.bytes
                del self._records[rec.fid]
            self._tracked_end = (
                max((r.base + r.source.nodes for r in self._records.values()),
                    default=0),
                max((r.abase + r.source.attrs for r in self._records.values()),
                    default=0),
            )

    # -------------------------------------------------------------- ensure
    def ensure_rows(self, rows) -> None:
        """Fault in (and touch/pin) every tracked fragment owning a row
        in ``rows``; then trim back to budget."""
        if not self._records:
            return
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        with self._lock:
            bases = self.arena.frag_base
            fids = np.unique(np.searchsorted(bases, rows, side="right") - 1)
            self._ensure_fids_locked(fids)

    def ensure_attrs(self, attr_ids) -> None:
        """Like :meth:`ensure_rows` for attribute ids."""
        if not self._records:
            return
        attr_ids = np.asarray(attr_ids, dtype=np.int64)
        if attr_ids.size == 0:
            return
        with self._lock:
            fids = []
            for rec in self._records.values():
                if rec.source.attrs and np.any(
                    (attr_ids >= rec.abase)
                    & (attr_ids < rec.abase + rec.source.attrs)
                ):
                    fids.append(rec.fid)
            if fids:
                self._ensure_fids_locked(np.asarray(fids, dtype=np.int64))

    def ensure_all(self) -> None:
        """Fault in every tracked fragment (whole-arena scans)."""
        if not self._records:
            return
        with self._lock:
            self._ensure_fids_locked(
                np.asarray(list(self._records), dtype=np.int64)
            )

    def _ensure_fids_locked(self, fids: np.ndarray) -> None:
        touched: set[int] = set()
        for fid in fids.tolist():
            rec = self._records.get(int(fid))
            if rec is None:
                continue
            self._touch_locked(rec)
            touched.add(rec.fid)
            if not rec.hot:
                self._fault_locked(rec)
        if self._needs_release:
            self._rerelease_cold_locked()
        if touched:
            self._evict_locked(protect=touched)

    def _touch_locked(self, rec: _FragmentRecord) -> None:
        self._clock += 1
        rec.last_touch = self._clock
        rec.touches += 1
        self.touches += 1
        stack = self.scope_stack()
        if stack and rec.fid not in stack[-1].pinned:
            stack[-1].pinned.add(rec.fid)
            rec.pins += 1

    # --------------------------------------------------------- fault/evict
    def _fault_locked(self, rec: _FragmentRecord) -> None:
        fill_adopted_span(self.arena, rec.base, rec.abase, rec.source, rec.fid)
        rec.hot = True
        self.resident_bytes += rec.bytes
        self.faults += 1

    def _release_locked(self, rec: _FragmentRecord) -> None:
        rec.hot = False
        self.resident_bytes -= rec.bytes
        self.evictions += 1
        self._advise_cold_locked(rec)

    def _advise_cold_locked(self, rec: _FragmentRecord) -> None:
        arena = self.arena
        n, m = rec.source.nodes, rec.source.attrs
        for buf in (arena._kind, arena._size, arena._level, arena._frag,
                    arena._parent, arena._name, arena._value):
            release_span(buf._data, rec.base, rec.base + n)
        if m:
            for buf in (arena._attr_owner, arena._attr_name,
                        arena._attr_value):
                release_span(buf._data, rec.abase, rec.abase + m)

    def _rerelease_cold_locked(self) -> None:
        """After a flat-buffer reallocation, re-advise every cold span
        (the growth copy made their garbage pages resident again)."""
        self._needs_release = False
        for rec in self._records.values():
            if not rec.hot:
                self._advise_cold_locked(rec)

    def _evict_locked(self, protect=frozenset()) -> None:
        budget = self.budget_bytes
        if budget is None:
            return
        while self.resident_bytes > budget:
            victim = None
            for rec in self._records.values():
                if rec.hot and rec.pins == 0 and rec.fid not in protect:
                    if victim is None or rec.last_touch < victim.last_touch:
                        victim = rec
            if victim is None:
                break
            self._release_locked(victim)

    def evict_to_budget(self) -> None:
        """Trim resident tracked fragments back under the budget."""
        with self._lock:
            self._evict_locked()

    def evict_all(self) -> int:
        """Evict every unpinned hot fragment (stress-test hook).

        Returns how many fragments were released.
        """
        with self._lock:
            victims = [
                r for r in self._records.values() if r.hot and r.pins == 0
            ]
            for rec in victims:
                self._release_locked(rec)
            return len(victims)

    # -------------------------------------------------------------- scopes
    def scope_stack(self) -> list:
        """The calling thread's stack of entered scopes.  A scope keeps
        the list it was pushed on, so it can leave it from whichever
        thread closes it — a streamed result starts on one service
        thread and may finish on another."""
        stack = getattr(self._thread, "scopes", None)
        if stack is None:
            stack = self._thread.scopes = []
        return stack

    def unpin_scope(self, scope: PageScope) -> None:
        """Drop a closing scope's pins and enforce the budget again."""
        if not scope.pinned:
            return
        with self._lock:
            for fid in scope.pinned:
                rec = self._records.get(fid)
                if rec is not None and rec.pins > 0:
                    rec.pins -= 1
            scope.pinned.clear()
            self._evict_locked()

    # ------------------------------------------------------------- columns
    def patched_tail(self, name: str, start: int, tail: np.ndarray) -> np.ndarray:
        """``tail`` — arena column ``name`` from row (attribute id, for
        ``attr_owner``) ``start`` on — with cold tracked spans filled
        from their memmapped sources (rebased/translated exactly as a
        fault would), so navigation indices and statistics are built
        without materialising anything.  Only the spans inside the tail
        are read; a copy is made only when there is one."""
        is_attr = name == "attr_owner"
        if start >= self._tracked_end[is_attr]:
            return tail
        with self._lock:
            cold = [
                r for r in self._records.values()
                if not r.hot and (r.abase if is_attr else r.base) >= start
            ]
            if not cold:
                return tail
            out = tail.copy()
            for rec in cold:
                src = rec.source
                n, base = src.nodes, rec.base
                lo = base - start
                if name in ("kind", "size", "level"):
                    out[lo : lo + n] = src.cols[name]
                elif name == "frag":
                    out[lo : lo + n] = rec.fid
                elif name == "parent":
                    seg = src.cols["parent"].astype(np.int64)
                    mask = seg >= 0
                    seg[mask] += base
                    seg[~mask] = -1
                    out[lo : lo + n] = seg
                elif name in ("name", "value"):
                    local = src.cols[name]
                    seg = np.full(n, -1, dtype=np.int64)
                    mask = local >= 0
                    seg[mask] = src.gsids[local[mask]]
                    out[lo : lo + n] = seg
                elif is_attr:
                    m, lo = src.attrs, rec.abase - start
                    if m:
                        out[lo : lo + m] = (
                            src.acols["attr_owner"].astype(np.int64) + base
                        )
                else:  # pragma: no cover - callers pass known columns
                    raise KeyError(name)
            return out

    # --------------------------------------------------------------- misc
    def _fid_of_row(self, row: int) -> int:
        bases = self.arena.frag_base
        return int(np.searchsorted(bases, row, side="right") - 1)

    def note_buffer_growth(self) -> None:
        """Called (lock-free) when a flat buffer reallocates; cold spans
        are re-released on the next ensure/evict."""
        self._needs_release = True

    def status(self) -> dict:
        """Counters for the ``/stats`` ``"paging"`` section."""
        with self._lock:
            records = list(self._records.values())
            hot = sum(1 for r in records if r.hot)
            return {
                "budget_bytes": self.budget_bytes,
                "resident_bytes": self.resident_bytes,
                "mapped_bytes": sum(r.source.disk_bytes for r in records),
                "tracked_bytes": sum(r.bytes for r in records),
                "fragments": len(records),
                "hot_fragments": hot,
                "cold_fragments": len(records) - hot,
                "pinned_fragments": sum(1 for r in records if r.pins > 0),
                "faults": self.faults,
                "evictions": self.evictions,
                "touches": self.touches,
            }
