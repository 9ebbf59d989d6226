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
against any catalog in which the documents it reads are loaded, and the
catalog's statistics only decide how good its join order is.  Each
entry therefore records the documents its plan reads together with
their **size class** (:func:`size_class`, ≈ 19 % wide buckets of the
node count), and one rule — :meth:`CachedPlan.is_current` — decides
validity: every such document is still loaded and still in its class.
Updates and same-class replaces keep the plans hot (they read the new
tree); a document that grows or shrinks out of its class, or is
unloaded, costs its plans one recompile on their next lookup.  Nothing
is dropped eagerly: stale entries are revalidated lazily and age out
through the LRU.

The cache is thread-safe: every operation runs under one internal mutex,
so N sessions (or N server workers) can share it without external
locking.  Compilation itself is *not* serialised here — the Database
layers a :class:`~repro.api.concurrency.SingleFlight` in front of the
cache so a miss raced by many threads compiles once.
"""

from __future__ import annotations

import math
import threading

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import PathfinderError
from repro.relational import algebra as alg
from repro.relational.optimizer import OptimizerStats
from repro.xquery import ast

#: size classes per doubling of a document's node count: one class spans
#: a factor of 2 ** (1/4) ≈ 1.19, so a document that grows or shrinks by
#: about a fifth has its plans planned again with fresh statistics
CLASSES_PER_DOUBLING = 4


def size_class(nodes: int) -> int:
    """The size class of a document of ``nodes`` nodes (see module docs)."""
    return round(CLASSES_PER_DOUBLING * math.log2(nodes))


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
    #: the size class of every document the plan reads, at compile time
    doc_classes: dict[str, int]
    compile_seconds: float
    #: the catalog default at compile time — absolute paths were resolved
    #: against it, so a held PreparedQuery must recompile when it changes
    default_document: str | None = None

    def is_current(self, document_class) -> bool:
        """The validity rule: every document the plan reads is still
        loaded and still in its compile-time size class.
        ``document_class(uri)`` answers the class now, None when the
        document is not loaded; callers hold the catalog lock shared."""
        return all(
            document_class(uri) == cls for uri, cls in self.doc_classes.items()
        )


@dataclass
class PlanCacheStats:
    """Cumulative cache counters (all sessions of the Database)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """A bounded, thread-safe LRU mapping cache keys to
    :class:`CachedPlan` entries."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise PathfinderError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple, document_class) -> CachedPlan | None:
        """Look up a plan; a hit requires the entry to be current
        (:meth:`CachedPlan.is_current` against ``document_class``) — a
        stale entry is dropped and counted as an invalidation."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if not entry.is_current(document_class):
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: tuple, entry: CachedPlan) -> None:
        """Insert (or refresh) an entry, evicting LRU entries over capacity."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
