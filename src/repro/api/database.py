"""The Database layer: node arena, document catalog, shared plan cache.

A :class:`Database` is the process-wide, shareable state — every
:class:`~repro.api.session.Session` connected to it sees the same
documents and benefits from the same compile-once plan cache.  Sessions
carry the per-client state (variable bindings, statistics).

Document catalog semantics:

* ``load_document(uri, xml)`` shreds and registers a document.  Loading
  an already-registered URI raises unless ``replace=True``, which swaps
  the catalog entry for a freshly shredded tree.  (The arena is a stack of
  fragments: a replaced, unloaded or updated tree on top of it is
  popped — and the new copy settles in its place — as soon as no
  result still holds a lease; a dead tree *below* a live document
  waits until everything above it is superseded too.  See
  :meth:`Database.arena_report`.)
* **The first loaded document implicitly becomes the default** used by
  absolute paths (``/site/...``) unless/until ``default=True`` or
  :meth:`set_default_document` says otherwise.  This implicit behaviour
  is kept for convenience and backward compatibility; call
  :meth:`set_default_document` to be explicit, and check
  :attr:`default_is_implicit` to know which case you are in.
* every load/replace/update bumps the document's *epoch*, which
  versions its content (WAL, manifest, ``/documents``).
  Cached plans do not follow epochs: a plan stays valid while every
  document it reads is loaded
  (:meth:`~repro.api.plan_cache.CachedPlan.is_current`), since plans
  resolve their documents at run time — updates and replaces keep the
  plans hot, and only an unload recompiles them.

Concurrency model (the serving contract):

* the catalog is guarded by a write-preferring
  :class:`~repro.api.concurrency.RWLock` — query compilation and
  execution hold it *shared*, ``load_document`` / ``unload_document`` /
  ``set_default_document`` hold it *exclusive*.  A hot document replace
  therefore waits for in-flight queries, then swaps the catalog entry
  and bumps the epoch before the next query starts: readers never see a
  torn catalog.
* the plan cache compiles each key once at a time: N sessions racing
  on the same cold key run the front-end once (the others wait and
  adopt the result), so a burst of one new query text does not trigger
  a compilation stampede.
* sessions share nothing mutable with each other — variable bindings
  and statistics are per-:class:`~repro.api.session.Session` —
  so each server worker (or client thread) owning its own session needs
  no further locking.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

from repro.api.concurrency import RWLock
from repro.api.plan_cache import (
    CachedPlan,
    CompileStep,
    PlanCache,
    plan_documents,
)
from repro.compiler.loop_lifting import Compiler
from repro.encoding.arena import NodeArena, TreeDelta
from repro.encoding.paging import PageScope
from repro.encoding.shred import shred_text
from repro.encoding.storage import StorageReport, measure_storage
from repro.encoding.store import (
    DocumentStore,
    materialize_delta,
    serialize_delta,
    shard_of,
)
from repro.errors import PathfinderError
from repro.relational import algebra as alg
from repro.relational.optimizer import (
    CardinalityEstimator,
    OptimizerStats,
    normalize,
    optimize,
)
from repro.xquery.core import desugar_module
from repro.xquery.parser import parse_query


class Database:
    """Documents + arena + plan cache; the shared, thread-safe layer of
    the API (see the module docstring for the locking contract)."""

    def __init__(
        self,
        plan_cache_size: int = 128,
        store: "DocumentStore | str | None" = None,
        checkpoint_wal_bytes: int | None = 4 * 1024 * 1024,
        page_budget_bytes: int | None = None,
        shard: tuple[int, int] = (0, 1),
    ):
        if page_budget_bytes is not None and store is None:
            raise PathfinderError(
                "page_budget_bytes needs a persistent store to page from "
                "(pass store=PATH)"
            )
        if tuple(shard) != (0, 1) and store is None:
            raise PathfinderError(
                "a shard-scoped open needs a persistent store (pass "
                "store=PATH)"
            )
        self.arena = NodeArena()
        #: eviction budget for mmap-paged fragments (None = eager arena)
        self.page_budget_bytes = page_budget_bytes
        if page_budget_bytes is not None:
            self.arena.enable_paging(page_budget_bytes)
        self.documents: dict[str, int] = {}
        self.doc_epochs: dict[str, int] = {}
        self.plan_cache = PlanCache(plan_cache_size)
        self._default_document: str | None = None
        self._default_explicit = False
        self._epoch_counter = itertools.count(1)
        self._xml_bytes = 0
        # catalog lock: queries shared, load/unload/replace exclusive
        self._rwlock = RWLock()
        self._estimator_lock = threading.Lock()
        # arena statistics for the optimizer, rebuilt by the first
        # compile after a catalog change
        self._estimator: CardinalityEstimator | None = None
        #: the attached persistent store (None = pure in-memory catalog)
        self.store: DocumentStore | None = None
        #: auto-checkpoint once the WAL outgrows this (None disables)
        self.checkpoint_wal_bytes = checkpoint_wal_bytes
        if store is not None:
            if not isinstance(store, DocumentStore):
                store = DocumentStore(store, shard=shard)
            elif tuple(shard) not in ((0, 1), store.shard):
                raise PathfinderError(
                    "the given DocumentStore was opened with a different "
                    "shard spec"
                )
            self.store = store
            with self._rwlock.write_locked():
                self._recover_locked()

    @classmethod
    def open(
        cls,
        path: "DocumentStore | str",
        plan_cache_size: int = 128,
        checkpoint_wal_bytes: int | None = 4 * 1024 * 1024,
        page_budget_bytes: int | None = None,
        shard: tuple[int, int] = (0, 1),
    ) -> "Database":
        """Open (or create) a persistent database at ``path``.

        Restart is an mmap + WAL replay, not a re-parse: every document
        in the store manifest is adopted from its memory-mapped column
        files, then any un-checkpointed
        :class:`~repro.encoding.arena.TreeDelta` records in the WAL tail
        are replayed on top, leaving the catalog exactly as the last
        fsynced update saw it.

        With ``page_budget_bytes`` set, adoption is *lazy*: fragments
        stay mmap-cold until a query touches them and are evicted LRU
        once resident bytes exceed the budget — the catalog may be
        several times larger than the budget (docs/storage.md).

        ``shard=(index, count)`` opens one cluster worker's view: only
        documents :func:`~repro.encoding.store.shard_of` assigns to
        ``index`` are adopted, and writes go to the shard's own WAL with
        merge-committed manifests (docs/serving.md).  The default
        ``(0, 1)`` owns every document.
        """
        return cls(
            plan_cache_size=plan_cache_size,
            store=path,
            checkpoint_wal_bytes=checkpoint_wal_bytes,
            page_budget_bytes=page_budget_bytes,
            shard=shard,
        )

    def _recover_locked(self) -> None:
        """Load manifest fragments, replay the WAL tail, restore epochs.

        The open adopts only the documents its shard owns; foreign WAL
        records are skipped by the same base-epoch check that makes
        replay idempotent (a document never loaded has no epoch to
        match).  An open that replayed a record of another layout's log
        (a crash under another worker count) checkpoints before it
        returns, so its later records never interleave with that log.
        """
        store = self.store
        store.gc_unreferenced()
        for uri, meta in sorted(store.manifest["documents"].items()):
            if not store.owns(uri):
                continue
            self.documents[uri] = store.load_fragment(self.arena, uri)
            self.doc_epochs[uri] = meta["epoch"]
            self._xml_bytes += meta.get("xml_bytes", 0)
        last_epoch = store.manifest.get("last_epoch", 0)
        fold = False
        for record, other_layout in store.read_wal():
            # a part already folded in by a checkpoint/replace is skipped
            parts = {
                p["uri"]: p
                for p in record.get("docs", ())
                if self.doc_epochs.get(p["uri"]) == p["base_epoch"]
            }
            if parts:
                self._apply_deltas_locked(
                    {
                        uri: materialize_delta(self.arena, self.documents[uri], p["delta"])
                        for uri, p in parts.items()
                    },
                    {uri: p["new_epoch"] for uri, p in parts.items()},
                )
                store.dirty.update(parts)
                store.replayed += len(parts)
                fold = fold or other_layout
            last_epoch = max(
                last_epoch,
                max((p["new_epoch"] for p in record.get("docs", ())), default=0),
            )
        self._epoch_counter = itertools.count(last_epoch + 1)
        default = store.manifest.get("default_document")
        if default is not None and default in self.documents:
            self._default_document = default
            self._default_explicit = True
        elif self.documents:
            # same implicit rule as in-memory first-load (manifest order)
            self._default_document = next(iter(sorted(self.documents)))
            self._default_explicit = False
        if fold:
            self._checkpoint_locked()  # see the docstring

    @contextmanager
    def read_locked(self):
        """Context manager holding the catalog lock shared.

        Execution paths (``PreparedQuery.execute``, ``Session.explain``)
        use this so no catalog mutation lands mid-query; reentrant per
        thread, so nested API calls are safe.  A page scope opens with
        the shared hold: it is the reader's lease on the arena (no row
        is popped under it) and every paged fragment the reader touches
        stays pinned against eviction until the scope closes
        (eviction-vs-readers, see :mod:`repro.encoding.paging`).
        """
        with self._rwlock.read_locked():
            with self.arena.page_scope():
                yield self

    # ------------------------------------------------------------ documents
    @property
    def default_document(self) -> str | None:
        """The document absolute paths resolve against (see module docs
        for the implicit-first-load rule)."""
        return self._default_document

    @property
    def default_is_implicit(self) -> bool:
        """True when the default document was chosen by the first-load
        rule rather than by ``default=True``/``set_default_document``."""
        return self._default_document is not None and not self._default_explicit

    def set_default_document(self, uri: str, persist: bool = True) -> None:
        """Explicitly pick the document absolute paths resolve against.

        ``persist=False`` skips the store commit — used by cluster
        workers pinning the router's cluster-wide default locally
        without contending for the shared manifest.
        """
        with self._rwlock.write_locked():
            if uri not in self.documents:
                raise PathfinderError(f"document {uri!r} is not loaded")
            self._default_document = uri
            self._default_explicit = True
            if self.store is not None and persist:
                self.store.set_default(uri)

    def load_document(
        self,
        uri: str,
        xml_text: str,
        default: bool = False,
        replace: bool = False,
    ) -> int:
        """Parse, shred and register a document; returns its node count.

        ``replace=True`` allows re-loading an existing URI: the catalog
        entry is swapped.  Cached plans reading it stay valid and read
        the new tree.  The swap is atomic for concurrent readers — it
        runs under the exclusive catalog lock, so every query sees
        either the old or the new tree, never a partially shredded one.
        """
        with self._rwlock.write_locked():
            return self._load_document_locked(uri, xml_text, default, replace)

    def replace_document(self, uri: str, xml_text: str) -> dict:
        """Load-or-replace in one exclusive hold (the ``PUT /documents``
        semantics): returns uri, node count, whether an existing entry
        was replaced, and the new epoch — all observed atomically."""
        with self._rwlock.write_locked():
            replaced = uri in self.documents
            nodes = self._load_document_locked(uri, xml_text, False, True)
            return {
                "uri": uri,
                "nodes": nodes,
                "replaced": replaced,
                "epoch": self.doc_epochs[uri],
            }

    def _load_document_locked(
        self, uri: str, xml_text: str, default: bool, replace: bool
    ) -> int:
        """The load/replace body; caller holds the catalog lock exclusive."""
        if self.store is not None and not self.store.owns(uri):
            index, count = self.store.shard
            raise PathfinderError(
                f"document {uri!r} belongs to shard "
                f"{shard_of(uri, count)}, not this worker's shard {index}"
            )
        if uri in self.documents and not replace:
            raise PathfinderError(
                f"document {uri!r} already loaded (pass replace=True to swap it)"
            )
        fresh = self.arena.mark()
        root = shred_text(self.arena, xml_text)
        nodes = self.arena.num_nodes - fresh.nodes
        epoch = next(self._epoch_counter)
        xml_bytes = len(xml_text.encode("utf-8"))
        if default:
            new_default, explicit = uri, True
        elif self._default_document is None:
            # implicit first-load default — see the module docstring
            new_default, explicit = uri, False
        else:
            new_default, explicit = self._default_document, self._default_explicit
        if self.store is not None:
            if default:
                # this open chose the default: merge-commits keep it
                self.store.default_override = True
            # a replace supersedes the old fragment's backing files:
            # materialize-and-untrack it before the store GCs them, or
            # the pager could later fault from a deleted directory
            old_root = self.documents.get(uri)
            if old_root is not None:
                self.arena.retire_fragment(old_root)
            # persist before publishing: a failed write leaves the
            # catalog unchanged (the shredded rows are unreferenced
            # orphans until the next reclaim pops them)
            self.store.persist_document(
                uri,
                epoch,
                self.arena,
                root,
                xml_bytes=xml_bytes,
                default_document=new_default,
            )
        self.documents[uri] = root
        self.doc_epochs[uri] = epoch
        self._estimator = None
        self._xml_bytes += xml_bytes
        self._default_document = new_default
        self._default_explicit = explicit
        self._reclaim_locked(fresh, (uri,))
        if self.arena.pager is not None:
            # the freshly persisted fragment files can now back the
            # in-arena rows: track them so the span is evictable
            self.arena.register_paged_backing(
                self.documents[uri], self.store.open_paged(self.arena.pool, uri)
            )
        return nodes

    def _reclaim_locked(self, fresh, fresh_uris=()) -> None:
        """Pop what the catalog no longer reaches off the top of the
        arena (see :meth:`NodeArena.reclaim
        <repro.encoding.arena.NodeArena.reclaim>`); the documents
        ``fresh_uris``, built from arena mark ``fresh`` up, settle in
        the freed place.  Caller holds the catalog lock exclusive."""
        shift = self.arena.reclaim(
            [r for u, r in self.documents.items() if u not in fresh_uris], fresh
        )
        for uri in fresh_uris:
            self.documents[uri] -= shift

    def _apply_deltas_locked(
        self,
        deltas: dict[str, TreeDelta],
        new_epochs: dict[str, int],
        lease: PageScope | None = None,
    ) -> None:
        """Apply one update's per-document deltas to the catalog: a live
        update (after its WAL append) and a replayed WAL record alike.

        Every document is rebuilt as a new fragment, each superseded
        root is retired (so the pager never re-faults a backing the next
        checkpoint garbage-collects), the roots and epochs are swapped,
        and the arena is reclaimed once.  ``lease`` is the caller's page
        scope, if it holds one: the rebuild may copy nodes constructed
        under it, and the reclaim pops nothing until it is closed, so it
        is closed in between.  Caller holds the catalog lock exclusive.
        """
        fresh = self.arena.mark()
        new_roots = {
            uri: self.arena.rebuild_with_delta(self.documents[uri], delta)
            for uri, delta in deltas.items()
        }
        for uri, new_root in new_roots.items():
            self.arena.retire_fragment(self.documents[uri])
            self.documents[uri] = new_root
            self.doc_epochs[uri] = new_epochs[uri]
        if lease is not None:
            lease.close()
        self._estimator = None
        self._reclaim_locked(fresh, tuple(deltas))

    def apply_update(
        self,
        core_module,
        bindings: dict | None = None,
        deadline: float | None = None,
    ) -> dict:
        """Apply one updating module (XQuery Update Facility) atomically.

        The whole update — pending-update-list collection, structural
        rebuild, catalog swap and epoch bump — runs under the
        **exclusive** catalog lock: in-flight queries finish against the
        old tree first, and every query starting after this returns sees
        the new tree.  Cached plans are not touched: they resolve their
        documents at run time, so they stay valid (see
        :mod:`repro.api.plan_cache`).  This is the same write path a
        hot document replace takes, but the rebuild works from the
        existing pre/size/level rows (the old copy is read, a new one
        appended, and — once no result holds a lease — the old one is
        popped and the new one settles in its place), not from
        re-shredding XML text.

        With a persistent store attached this is the WAL write path:
        the collected deltas are serialized and fsynced to the log
        *before* the arena mutates, so once this method returns the
        update survives a crash — recovery replays the record on top of
        the last checkpointed fragments.  The WAL is folded away (and
        truncated) by :meth:`checkpoint`, which also runs automatically
        once the log outgrows ``checkpoint_wal_bytes``.

        ``deadline`` is a budget in seconds from this call; past it
        target/source evaluation raises :class:`DeadlineExceeded` and
        nothing is applied.

        Returns a JSON-ready summary: primitive counts under
        ``"applied"`` and the new per-document node counts/epochs under
        ``"documents"``.
        """
        from repro.compiler.updates import PendingUpdateCompiler

        # the wait for the write lock spends the budget too
        expiry = None if deadline is None else time.monotonic() + deadline
        with self._rwlock.write_locked():
            t0 = time.perf_counter()
            # the scope is the update's own lease: target and source
            # evaluation may construct nodes, which the deltas copy from
            with self.arena.page_scope() as lease:
                # delta collection and serialization read arena rows
                # through many paths; pin everything resident for the
                # duration (the scope exit trims back to budget)
                self.arena.ensure_all()
                deltas, applied = PendingUpdateCompiler(
                    self.arena,
                    self.documents,
                    self._default_document,
                    deadline=None if expiry is None else expiry - time.monotonic(),
                ).collect(core_module, bindings)
                new_epochs = {uri: next(self._epoch_counter) for uri in deltas}
                if self.store is not None and deltas:
                    # one record per update: multi-document updates
                    # recover atomically (all documents replay or none do)
                    self.store.append_wal(
                        {
                            "docs": [
                                {
                                    "uri": uri,
                                    "base_epoch": self.doc_epochs[uri],
                                    "new_epoch": new_epochs[uri],
                                    "delta": serialize_delta(
                                        self.arena, self.documents[uri], delta
                                    ),
                                }
                                for uri, delta in deltas.items()
                            ]
                        }
                    )
                if deltas:
                    self._apply_deltas_locked(deltas, new_epochs, lease)
            if (
                self.store is not None
                and self.checkpoint_wal_bytes is not None
                and self.store.wal_bytes >= self.checkpoint_wal_bytes
            ):
                self._checkpoint_locked()
            return {
                "applied": applied,
                "documents": {
                    uri: {
                        "nodes": int(self.arena.size[self.documents[uri]]) + 1,
                        "epoch": self.doc_epochs[uri],
                    }
                    for uri in deltas
                },
                "seconds": time.perf_counter() - t0,
            }

    def checkpoint(self) -> dict:
        """Fold the WAL into fragment files and truncate it.

        Rewrites the mmap fragments of every document with logged
        deltas, swaps the manifest atomically, then empties the log —
        after this, reopening needs no replay.  Requires an attached
        store; runs under the exclusive catalog lock (same write path
        as a hot replace).
        """
        if self.store is None:
            raise PathfinderError("no persistent store is attached")
        with self._rwlock.write_locked():
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> dict:
        dirty = {u for u in self.store.dirty if u in self.documents}
        # a dirty document on top of the arena is about to be rewritten
        # and re-tracked anyway: let it first settle over dead rows that
        # a result held across its update stranded beneath it
        top = max(dirty, key=self.documents.get, default=None)
        if top is not None:
            root = self.documents[top]
            if root + self.arena.subtree_nodes(root) == self.arena.num_nodes:
                self._reclaim_locked(self.arena.mark(root), (top,))
        result = self.store.checkpoint(
            self.arena, self.documents, self.doc_epochs, self._default_document
        )
        if self.arena.pager is not None:
            # checkpoint rewrote the fragment files of every dirty
            # document; the rebuilt in-arena spans now have durable
            # backings again, so re-track them as evictable
            for uri in sorted(dirty):
                self.arena.register_paged_backing(
                    self.documents[uri],
                    self.store.open_paged(self.arena.pool, uri),
                )
        return result

    def store_status(self) -> dict | None:
        """The attached store's operational summary (None when absent)."""
        return None if self.store is None else self.store.status()

    def paging_status(self) -> dict | None:
        """The pager's operational summary — budget, resident/mapped
        bytes, fault/eviction counters (None when paging is off)."""
        pager = self.arena.pager
        return None if pager is None else pager.status()

    def arena_report(self) -> dict:
        """The arena's lifetime counters (the ``/stats`` ``"arena"``
        section): rows by region, live leases, pops, and the persistent
        rows no catalogued document reaches (``dead_persistent_rows`` —
        superseded copies waiting under a live document or a held
        result)."""
        with self._rwlock.read_locked():
            report = self.arena.lifetime_report()
            report["dead_persistent_rows"] = report["persistent_rows"] - sum(
                self.arena.subtree_nodes(root) for root in self.documents.values()
            )
            return report

    def unload_document(self, uri: str) -> None:
        """Remove a document from the catalog.

        The document stops being addressable by queries at once (a
        cached plan reading it fails its next validity check and
        recompiles, which raises ``err:FODC0002``); its
        rows are popped off the arena when they are on top of it and no
        result holds a lease, and otherwise wait as dead rows for a
        later reclaim (:meth:`arena_report`).
        """
        with self._rwlock.write_locked():
            if uri not in self.documents:
                raise PathfinderError(f"document {uri!r} is not loaded")
            root = self.documents.pop(uri)
            del self.doc_epochs[uri]
            self._estimator = None
            if self._default_document == uri:
                self._default_document = None
                self._default_explicit = False
            if self.store is not None:
                # removal deletes the backing files: stop paging from
                # them first (materializes the span if it was cold)
                self.arena.retire_fragment(root)
                self.store.remove_document(uri, self._default_document)
            self._reclaim_locked(None)

    def storage_report(self) -> StorageReport:
        """Byte-level storage accounting (Section 3.1 experiment)."""
        return measure_storage(self.arena, self._xml_bytes)

    def catalog_snapshot(self) -> list[dict]:
        """One consistent view of the catalog (the ``/documents`` endpoint):
        per document its URI, node count, load epoch and default flag."""
        with self._rwlock.read_locked():
            return [
                {
                    "uri": uri,
                    # subtree_nodes answers from the paging record for a
                    # cold fragment — listing the catalog must not fault
                    # every document in
                    "nodes": self.arena.subtree_nodes(root),
                    "epoch": self.doc_epochs[uri],
                    "default": uri == self._default_document,
                }
                for uri, root in sorted(self.documents.items())
            ]

    # ------------------------------------------------------------- sessions
    def connect(
        self,
        use_staircase: bool = True,
        use_optimizer: bool = True,
    ) -> "Session":
        """Open a new session (per-client execution context) over this
        database."""
        from repro.api.session import Session

        return Session(
            self, use_staircase=use_staircase, use_optimizer=use_optimizer
        )

    # ------------------------------------------------------------- compiler
    def cache_key(self, query: str, use_optimizer: bool) -> tuple:
        """The plan-cache key: query text, whether the plan is optimized,
        and the default document absolute paths were resolved against."""
        return (query, use_optimizer, self._default_document)

    def compile_query(
        self, query: str, use_optimizer: bool, *, one_shot: bool = False
    ) -> CachedPlan:
        """One full front-end run (parse → desugar → loop-lift →
        optimize), bypassing the plan cache.  Cardinality estimates are
        seeded from this database's arena statistics.  ``one_shot`` stops
        the optimizer after stage 1 (:func:`normalize`): a plan to run
        once, which :meth:`upgrade_plan` finishes on its first reuse."""
        with self._rwlock.read_locked():
            t0 = time.perf_counter()
            module = parse_query(query)
            core = desugar_module(module)
            plan = Compiler(
                self.documents, self._default_document
            ).compile_module(core)
            # record document dependencies from the unoptimized plan:
            # rewrites may drop a DocRoot leaf, but the query still
            # depends on it
            doc_deps = plan_documents(plan)
            stats = OptimizerStats()
            if not use_optimizer:
                stats.ops_before = stats.ops_after = alg.op_count(plan)
            elif one_shot:
                plan = normalize(plan, stats)
            else:
                plan = optimize(plan, stats, estimator=self._get_estimator())
            final = not (use_optimizer and one_shot)
            if final:
                _ = plan.schedule  # a reused plan is scheduled with its compile
            return CachedPlan(
                query=query,
                plan=plan,
                stats=stats,
                external_vars=tuple(core.external_vars),
                module=module,
                core=core,
                documents=doc_deps,
                compile_seconds=time.perf_counter() - t0,
                default_document=self._default_document,
                final=final,
            )

    def upgrade_plan(
        self, entry: CachedPlan, stats: OptimizerStats | None = None
    ) -> CachedPlan:
        """Stage 2: ``entry`` (a stage-1 plan) with the global passes run
        on it — the plan and statistics of a one-step compile, its
        seconds the sum of both stages.  ``stats``, when given, receives
        the statistics of stage 2 alone."""
        t0 = time.perf_counter()
        stage2 = OptimizerStats() if stats is None else stats
        with self._rwlock.read_locked():
            plan = optimize(entry.plan, stage2, estimator=self._get_estimator())
            _ = plan.schedule  # the upgraded plan is the one that is reused
        return replace(
            entry,
            plan=plan,
            stats=entry.stats.followed_by(stage2),
            compile_seconds=entry.compile_seconds + time.perf_counter() - t0,
            final=True,
        )

    def _get_estimator(self) -> CardinalityEstimator:
        """The cached arena statistics, rebuilt (once) after a catalog
        change; double-checked so racing compilers build it one time."""
        estimator = self._estimator
        if estimator is None:
            with self._estimator_lock:
                estimator = self._estimator
                if estimator is None:
                    estimator = CardinalityEstimator.from_database(
                        self.arena, self.documents
                    )
                    self._estimator = estimator
        return estimator

    def compile_cached(
        self, query: str, use_optimizer: bool, *, one_shot: bool = False
    ) -> tuple[CachedPlan, bool, CompileStep | None]:
        """Compile ``query`` through the plan cache.

        Returns ``(entry, hit, step)`` where ``hit`` says whether the plan
        came from the cache — or from a concurrent compilation of the same
        key: N racing sessions run the front-end once and the waiters
        adopt the leader's entry (reported as hits; they paid no
        compilation).  Compilation errors are not cached and propagate
        to every waiter.  ``step`` is the compile or upgrade this call
        ran itself, None when it ran neither.

        ``one_shot`` is a lookup that will not come back with the plan
        (``Session.execute``): on a miss it compiles stage 1 only.  A
        later lookup of the text is the reuse that upgrades the entry
        (:meth:`upgrade_plan`); every other lookup returns the final plan.
        """
        steps: list[CompileStep] = []

        def compile_plan() -> CachedPlan:
            entry = self.compile_query(query, use_optimizer, one_shot=one_shot)
            steps.append(CompileStep(entry.stats, entry.compile_seconds))
            return entry

        def upgrade_plan(entry: CachedPlan) -> CachedPlan:
            stage2 = OptimizerStats()
            final = self.upgrade_plan(entry, stage2)
            steps.append(
                CompileStep(stage2, final.compile_seconds - entry.compile_seconds)
            )
            return final

        # every participant holds the catalog lock shared, so the catalog
        # cannot change between the leader's compile and a waiter's
        # adoption of the entry
        with self._rwlock.read_locked():
            entry, hit = self.plan_cache.get_or_compile(
                self.cache_key(query, use_optimizer),
                self.documents,
                self._default_document,
                compile_plan,
                upgrade_plan,
                one_shot=one_shot,
            )
        return entry, hit, (steps[0] if steps else None)


def connect(
    database: Database | None = None,
    use_staircase: bool = True,
    use_optimizer: bool = True,
    store: "DocumentStore | str | None" = None,
    page_budget_bytes: int | None = None,
) -> "Session":
    """Open a session — the front door of the API.

    ``repro.connect()`` creates a private in-memory :class:`Database` and
    returns a session on it; pass an existing ``database`` to share one
    catalog and plan cache between sessions, or ``store=PATH`` for a
    **persistent** database: documents load from the store's
    memory-mapped fragments (replaying any write-ahead-log tail) and
    every load/update is crash-safely persisted — see ``docs/storage.md``.
    ``page_budget_bytes`` (requires ``store``) caps resident column
    bytes: fragments page in lazily from the store's mmaps and are
    evicted LRU past the budget.  ``use_optimizer=False`` and
    ``use_staircase=False`` are the reference switches: the unoptimized
    plan, and the tree-unaware axis steps instead of the staircase
    kernels, answer exactly like the defaults.
    """
    if database is None:
        database = Database(store=store, page_budget_bytes=page_budget_bytes)
    elif store is not None or page_budget_bytes is not None:
        raise PathfinderError(
            "pass store=/page_budget_bytes= when creating the Database, "
            "not to connect() on an existing one"
        )
    return database.connect(
        use_staircase=use_staircase, use_optimizer=use_optimizer
    )
