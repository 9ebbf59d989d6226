"""The layered client API: Database → Session → PreparedQuery → QueryResult.

* :class:`~repro.api.database.Database` owns the node arena, the named
  document catalog (load/unload/replace, explicit default) and a shared
  LRU plan cache keyed by query text, optimizer switch and default
  document;
* :class:`~repro.api.session.Session` (``Database.connect()`` /
  ``repro.connect()``) is one client's execution context: settings,
  session-level variable bindings and statistics; ``explain()`` returns
  an :class:`~repro.api.session.ExplainReport` of every compilation
  stage;
* :class:`~repro.api.prepared.PreparedQuery` is a compiled, cacheable
  plan supporting external-variable binding, so one compilation serves
  many parameterized executions;
* :class:`~repro.api.prepared.QueryResult` serialises lazily and
  iterates the result sequence without materialising the text form.

The layer is thread-safe for concurrent serving: the Database guards its
catalog with a readers/writer lock (:mod:`repro.api.concurrency`), the
plan cache is an internally-locked LRU that compiles a key raced by many
threads once, and sessions share nothing mutable with each other — one
session per thread needs no extra locking.
"""

from repro.api.concurrency import RWLock
from repro.api.database import Database, connect
from repro.api.plan_cache import CachedPlan, PlanCache, PlanCacheStats
from repro.api.prepared import PreparedQuery, QueryResult
from repro.api.session import ExplainReport, Session, SessionStats

__all__ = [
    "Database",
    "Session",
    "SessionStats",
    "ExplainReport",
    "PreparedQuery",
    "QueryResult",
    "PlanCache",
    "PlanCacheStats",
    "CachedPlan",
    "RWLock",
    "connect",
]
