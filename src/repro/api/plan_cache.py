"""The compile-once plan cache shared by every session of a Database.

Pathfinder's whole front-end (parse → desugar → loop-lift → optimize) is
deterministic given the query text, whether the plan is optimized and
the document catalog, and the emitted plan is an immutable DAG — so
compiled plans are perfect cache entries.  The cache is a plain LRU
keyed by ``(query text, use_optimizer, default document)``
(:meth:`~repro.api.database.Database.cache_key`).

A plan touches the data only through its ``DocRoot`` leaves, which the
evaluator resolves against the catalog at run time; name tests and
string literals are resolved at run time too.  So a plan is *correct*
against any catalog in which the documents it reads are loaded, however
large they are.  Each entry records the documents its plan reads, and
one rule — :meth:`CachedPlan.is_current` — decides validity: the
catalog default is the one the plan was compiled against and every such
document is still loaded.  Updates and replaces keep the plans hot
(they read the new tree); an unload costs the plans reading that
document one recompile on their next lookup.  Nothing is dropped
eagerly: stale entries are revalidated lazily and age out through the
LRU.

The cache also decides how much optimizing a plan is worth.  Planning
has two stages (:mod:`repro.relational.optimizer`): the local rules
(:func:`~repro.relational.optimizer.normalize`) and the global passes
(:func:`~repro.relational.optimizer.optimize` of the stage-1 plan).
A *one-shot* lookup (``Session.execute``, the server's ``/query``) that
misses compiles stage 1 only and caches it (:attr:`CachedPlan.final`
false).  The next hit on that entry is its reuse: it runs stage 2 on
the cached plan and replaces the entry (an *upgrade*, counted as a hit
and in :attr:`PlanCacheStats.upgrades`).  Every other lookup —
``prepare()``, ``explain()``, a ``PreparedQuery``'s revalidation —
returns the final plan, compiling in one step on a miss.  Reuse is the
only signal; there is no setting.

The cache is thread-safe and owns the compilations of its own keys:
:meth:`PlanCache.get_or_compile` runs under one internal mutex, and a
miss raced by many threads compiles once — the first caller compiles,
the others wait for its entry (or its exception).  Upgrades are
single-flight the same way, except that a one-shot caller never waits
for one: it runs the stage-1 plan.
"""

from __future__ import annotations

import threading

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import PathfinderError
from repro.relational import algebra as alg
from repro.relational.optimizer import OptimizerStats
from repro.xquery import ast


def plan_documents(plan: alg.Op) -> tuple[str, ...]:
    """The URIs of every document a plan DAG reads (its DocRoot leaves)."""
    return tuple(
        sorted({op.uri for op in alg.walk(plan) if isinstance(op, alg.DocRoot)})
    )


@dataclass
class CachedPlan:
    """One compiled query: the plan plus everything needed to re-execute
    and to revalidate the entry."""

    query: str
    plan: alg.Op
    stats: OptimizerStats
    external_vars: tuple[ast.ExternalVar, ...]
    module: ast.Module
    core: ast.Module
    #: every document the plan reads
    documents: tuple[str, ...]
    compile_seconds: float
    #: the catalog default at compile time — absolute paths were resolved
    #: against it, so a held PreparedQuery must recompile when it changes
    default_document: str | None = None
    #: False for a stage-1 plan (the local rules only, compiled for a
    #: one-shot run): its first reuse runs the global passes on it
    final: bool = True

    def is_current(self, catalog, default_document: str | None) -> bool:
        """The validity rule: ``default_document`` is the compile-time
        default and every document the plan reads is a key of
        ``catalog``; callers hold the catalog lock shared."""
        return self.default_document == default_document and all(
            uri in catalog for uri in self.documents
        )


class CompileStep(NamedTuple):
    """The optimizer work one lookup ran itself: a compile (stage 1 or
    one step) or an upgrade (stage 2 alone)."""

    stats: OptimizerStats
    seconds: float


@dataclass
class PlanCacheStats:
    """Cumulative cache counters (all sessions of the Database)."""

    hits: int = 0
    #: lookups without a current entry, waiters on a compilation included
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    #: misses that waited for a concurrent compilation of the same key
    waits: int = 0
    #: hits that ran the global passes on a stage-1 entry (its first reuse)
    upgrades: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Pending:
    """One compilation or upgrade in progress: waiters park on ``done``."""

    __slots__ = ("done", "entry", "error")

    def __init__(self):
        self.done = threading.Event()
        self.entry: CachedPlan | None = None
        self.error: BaseException | None = None

    def wait(self) -> CachedPlan:
        """The entry it produced, or its exception raised."""
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.entry


class PlanCache:
    """A bounded, thread-safe LRU mapping cache keys to
    :class:`CachedPlan` entries, with at most one compilation per key
    in flight."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise PathfinderError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()
        self._pending: dict[tuple, _Pending] = {}
        self._upgrading: dict[tuple, _Pending] = {}
        self._lock = threading.Lock()
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_compile(
        self,
        key: tuple,
        catalog,
        default_document: str | None,
        compile_plan,
        upgrade_plan=None,
        *,
        one_shot: bool = False,
    ) -> tuple[CachedPlan, bool]:
        """The entry for ``key``, compiled by ``compile_plan()`` on a miss.

        Returns ``(entry, hit)``.  A cached entry must be current
        (:meth:`CachedPlan.is_current` against ``catalog`` and
        ``default_document``) to be a hit; a stale one is dropped and
        counted as an invalidation.  On a miss the first caller compiles
        outside the mutex and caches the entry only on success; callers
        that miss while it runs wait and adopt its entry (``hit`` true:
        they paid no compilation) or raise its exception.

        A hit on a stage-1 entry (:attr:`CachedPlan.final` false) —
        adopting one counts — is its reuse: :meth:`_reuse` upgrades it
        with ``upgrade_plan(entry)``.  ``one_shot`` callers never wait
        for an upgrade another caller runs; the rest get the final plan.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and not entry.is_current(
                catalog, default_document
            ):
                del self._entries[key]
                self.stats.invalidations += 1
                entry = None
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
            else:
                self.stats.misses += 1
                pending = self._pending.get(key)
                leader = pending is None
                if leader:
                    pending = self._pending[key] = _Pending()
                else:
                    self.stats.waits += 1
        if entry is None and leader:
            try:
                pending.entry = compile_plan()
            except BaseException as exc:
                pending.error = exc
                raise
            finally:
                with self._lock:
                    del self._pending[key]
                    if pending.error is None:
                        self._entries[key] = pending.entry
                        while len(self._entries) > self.capacity:
                            self._entries.popitem(last=False)
                            self.stats.evictions += 1
                pending.done.set()
            return pending.entry, False
        if entry is None:
            entry = pending.wait()
        if entry.final:
            return entry, True
        return self._reuse(key, entry, upgrade_plan, one_shot), True

    def _reuse(self, key: tuple, entry: CachedPlan, upgrade_plan, one_shot):
        """``entry``, a stage-1 plan, upgraded — at most once per key at a
        time.  While another caller upgrades it, a ``one_shot`` caller
        runs ``entry`` as it is and the others wait for the upgrade.  The
        upgraded entry replaces ``entry`` only if ``entry`` is still the
        cached one: an upgrade that finishes after its entry was cleared,
        evicted or invalidated is handed to its callers and dropped."""
        with self._lock:
            pending = self._upgrading.get(key)
            leader = pending is None
            if leader:
                pending = self._upgrading[key] = _Pending()
                self.stats.upgrades += 1
            elif one_shot:
                return entry
        if not leader:
            return pending.wait()
        try:
            pending.entry = upgrade_plan(entry)
        except BaseException as exc:
            pending.error = exc
            raise
        finally:
            with self._lock:
                del self._upgrading[key]
                if pending.error is None and self._entries.get(key) is entry:
                    self._entries[key] = pending.entry
            pending.done.set()
        return pending.entry

    def clear(self) -> None:
        """Drop every entry (counters and pending compiles are kept)."""
        with self._lock:
            self._entries.clear()
