"""The query service: sessions, deadlines and operational counters.

:class:`QueryService` is the protocol-independent core of the serving
subsystem — the HTTP layer (:mod:`repro.server.router`) is a thin JSON
codec in front of it, and tests can drive it directly.

Execution model:

* a request runs on the **calling thread** with one of ``workers``
  :class:`~repro.api.Session` objects on the shared Database, checked
  out for its duration; sessions share the document catalog, arena and
  plan cache (behind the Database's locks) but no mutable session
  state — the isolation contract of the API layer.
* every request carries a wall-clock **deadline** (default
  ``deadline_seconds``, per-request override), one absolute
  :func:`time.monotonic` expiry.  A request that gets no session in
  time is shed; an executing query stops at the next operator boundary
  (the evaluator checks the expiry before each operator), a result
  stream between chunks.  Expiry surfaces as :class:`DeadlineExceeded`.
* document load/replace/unload and updates go straight to the
  Database's exclusive catalog lock — a replace waits for in-flight
  queries, then atomically swaps the tree.  Cached plans stay valid
  while the documents they read are loaded (:mod:`repro.api.plan_cache`),
  so the next queries are cache hits that read the new tree; an unload
  makes the next lookup recompile (once: the plan cache compiles a key
  raced by many requests one time).
* :meth:`QueryService.stats` aggregates the operational surface:
  request/timeout/shed/error counters, in-flight gauge, plan-cache hit
  rates, waits on a concurrent compilation of the same query
  (``single_flight_waits``), upgrades of stage-1 plans on their first
  reuse (``upgrades``), and per-pass optimizer totals summed over every
  compile and upgrade the service's sessions ran — from ``/query`` and
  ``/explain`` alike.
* ``/query`` is a one-shot lookup (``Session.execute``): a new text is
  compiled to stage 1 and run; its next request upgrades the cached plan
  (:mod:`repro.api.plan_cache`).  ``/explain`` always reports the final
  plan.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.api.database import Database
from repro.errors import DeadlineExceeded, PathfinderError


def budget_seconds(deadline, default: float) -> float:
    """A request's ``deadline`` field as seconds (``None``: ``default``).
    Anything but a number in (0, :data:`threading.TIMEOUT_MAX`] — a bool,
    ``NaN``, ``Infinity`` — raises :class:`PathfinderError` (HTTP 400)."""
    if deadline is None:
        return default
    if (
        isinstance(deadline, bool)
        or not isinstance(deadline, (int, float))
        or not 0 < deadline <= threading.TIMEOUT_MAX  # NaN fails both
    ):
        raise PathfinderError(
            "deadline must be a number of seconds in "
            f"(0, {threading.TIMEOUT_MAX:g}], got {deadline!r}"
        )
    return float(deadline)


class QueryService:
    """Query execution over one shared Database, ``workers`` at a time."""

    def __init__(
        self,
        database: Database | None = None,
        workers: int = 4,
        deadline_seconds: float = 30.0,
    ):
        if workers < 1:
            raise PathfinderError("the service needs at least 1 worker")
        if deadline_seconds <= 0:
            raise PathfinderError("deadline_seconds must be positive")
        self.database = database if database is not None else Database()
        self.workers = workers
        self.deadline_seconds = deadline_seconds
        self._all_sessions = [self.database.connect() for _ in range(workers)]
        self._idle_sessions: queue.LifoQueue = queue.LifoQueue()
        for session in self._all_sessions:
            self._idle_sessions.put(session)
        self._stats_lock = threading.Lock()
        self._started = time.monotonic()
        self._in_flight = 0
        self._requests = 0
        self._timeouts = 0
        self._shed = 0
        self._errors = 0
        self._closed = False

    # ------------------------------------------------------------ requests
    def _submit(self, fn, deadline: float | None):
        """Run ``fn(session, expiry)`` on the calling thread with a
        checked-out session; ``expiry`` is the request's absolute
        :func:`time.monotonic` deadline."""
        with self._stats_lock:
            self._requests += 1
        try:
            if self._closed:
                raise PathfinderError("the query service is shut down")
            budget = budget_seconds(deadline, self.deadline_seconds)
        except PathfinderError:
            # requests rejected at validation still show in /stats
            with self._stats_lock:
                self._errors += 1
            raise
        expiry = time.monotonic() + budget
        try:
            session = self._idle_sessions.get(timeout=budget)
        except queue.Empty:
            with self._stats_lock:
                self._shed += 1
            exc = DeadlineExceeded(
                f"request shed after waiting {budget:.3f}s for a session"
            )
            exc.queue_shed = True
            raise exc from None
        with self._stats_lock:
            self._in_flight += 1
        try:
            return fn(session, expiry)
        except DeadlineExceeded:
            with self._stats_lock:
                self._timeouts += 1
            raise
        except Exception:
            # client errors and unexpected failures alike: /stats must
            # report every request that did not produce a result
            with self._stats_lock:
                self._errors += 1
            raise
        finally:
            with self._stats_lock:
                self._in_flight -= 1
            self._idle_sessions.put(session)

    # ------------------------------------------------------------- queries
    def execute(
        self,
        query: str,
        bindings: dict | None = None,
        deadline: float | None = None,
    ) -> dict:
        """Compile (cache-backed) and execute one query.

        Returns a JSON-ready payload with the serialized result and the
        execution metadata the ``/query`` endpoint exposes.  The HTTP
        layer prefers :meth:`execute_stream`, which defers serialization
        so the result text never exists as one string.
        """
        meta, chunks = self.execute_stream(query, bindings, deadline=deadline)
        return {"result": "".join(chunks), **meta}

    def execute_stream(
        self,
        query: str,
        bindings: dict | None = None,
        deadline: float | None = None,
        edge_meta: bool = False,
    ) -> tuple[dict, object]:
        """Execute one query, deferring serialization to the caller.

        Returns ``(meta, chunks)``: ``meta`` is the ``/query`` payload
        *without* its ``"result"`` field, ``chunks`` an iterator of
        serialized text pieces (:meth:`QueryResult.iter_serialized`).
        Compile + execute hold a session under the usual
        deadline/shedding discipline; the chunks are pulled after it is
        returned, which is safe without a lock — the result table is
        immutable and the result's lease keeps every arena row it
        references in place, so a concurrent hot replace cannot tear
        the scan.

        The request's wall-clock budget covers the stream too: when it
        expires between chunks the iterator raises
        :class:`DeadlineExceeded` (counted as a timeout in ``/stats``;
        an HTTP response already under way can then only be truncated),
        and any other mid-stream failure is counted as an error, so
        ``/stats`` reports every request that did not produce a result.

        ``edge_meta=True`` adds a ``"_edges"`` field to ``meta`` saying
        whether the sequence's first/last items are atomic values — the
        cluster router needs this to decide whether a space separator
        belongs between two shards' streams when it concatenates a
        scattered sequence (XQuery serialization separates *adjacent
        atomics* with a space; nodes get no separator).
        """

        def run(session, expiry):
            result = session.execute(
                query, bindings or {}, deadline=expiry - time.monotonic()
            )
            meta = {
                "items": len(result),
                "from_cache": result.from_cache,
                "compile_seconds": result.compile_seconds,
                "execute_seconds": result.execute_seconds,
                "parameters": [v.name for v in result.parameters],
            }
            if edge_meta:
                from repro.compiler.serialize import ordered_items
                from repro.relational.items import K_ATTR, K_NODE

                kinds = ordered_items(result.table).kinds
                atomic = lambda k: int(k) not in (K_NODE, K_ATTR)  # noqa: E731
                meta["_edges"] = {
                    "first_atomic": len(kinds) > 0 and atomic(kinds[0]),
                    "last_atomic": len(kinds) > 0 and atomic(kinds[-1]),
                }
            return meta, self._stream(result, expiry)

        return self._submit(run, deadline)

    def _stream(self, result, expiry: float):
        """``result``'s serialized chunks, cut off at ``expiry``; the
        result's lease on the arena ends with the stream — drained, failed
        or abandoned (a generator's close() runs the finally)."""
        try:
            for chunk in result.iter_serialized():
                if time.monotonic() > expiry:
                    with self._stats_lock:
                        self._timeouts += 1
                    raise DeadlineExceeded(
                        "serialization ran past the request's deadline "
                        "(result truncated)"
                    )
                yield chunk
        except DeadlineExceeded:
            raise
        except Exception:
            with self._stats_lock:
                self._errors += 1
            raise
        finally:
            result.close()

    def execute_update(
        self,
        query: str,
        bindings: dict | None = None,
        deadline: float | None = None,
    ) -> dict:
        """Apply an updating query (``POST /update``).

        Same deadline discipline as :meth:`execute`; what is left of the
        budget bounds the wait for the exclusive lock and the update's
        target/source evaluation, so an update answered
        :class:`DeadlineExceeded` has changed nothing.
        """

        def run(session, expiry):
            payload = session.execute_update(
                query, bindings or {}, deadline=expiry - time.monotonic()
            )
            payload["updates_executed"] = sum(
                s.stats.updates_executed for s in self._all_sessions
            )
            return payload

        return self._submit(run, deadline)

    def explain(self, query: str, deadline: float | None = None) -> dict:
        """Compile a query and return its plan stages (``/explain``); the
        deadline bounds only the wait for a session."""

        def run(session, expiry):
            report = session.explain(query)
            stats = report.stats
            return {
                "ops_before": stats.ops_before,
                "ops_after": stats.ops_after,
                "reduction_pct": stats.reduction_pct,
                "passes": [
                    {
                        "name": ps.name,
                        "runs": ps.runs,
                        "rewrites": ps.rewrites,
                        "ops_before": ps.ops_before,
                        "ops_after": ps.ops_after,
                        "seconds": ps.seconds,
                    }
                    for ps in stats.pass_stats
                ],
                "plan": report.plan_ascii,
                "parameters": [v.name for v in report.core.external_vars],
            }

        return self._submit(run, deadline)

    # ----------------------------------------------------------- documents
    def list_documents(self) -> list[dict]:
        """The catalog as the ``/documents`` endpoint reports it."""
        return self.database.catalog_snapshot()

    def put_document(self, uri: str, xml_text: str) -> dict:
        """Load or hot-replace a document (``PUT /documents/<uri>``).

        Takes no session: it waits for the exclusive catalog lock
        only, never behind queued queries for a session.
        """
        return self.database.replace_document(uri, xml_text)

    def delete_document(self, uri: str) -> dict:
        """Unload a document (``DELETE /documents/<uri>``)."""
        self.database.unload_document(uri)
        return {"uri": uri, "unloaded": True}

    def checkpoint(self) -> dict:
        """Fold the store's WAL into fragments (``POST /checkpoint``).

        Takes no session, like :meth:`put_document`: it waits for the
        exclusive catalog lock only.
        Raises :class:`PathfinderError` when no store is attached.
        """
        return self.database.checkpoint()

    # --------------------------------------------------------------- stats
    def health(self) -> dict:
        """Liveness/readiness summary (the cluster's per-worker probe)."""
        with self._stats_lock:
            return {
                "ok": not self._closed,
                "in_flight": self._in_flight,
                "documents": len(self.database.documents),
                "uptime_seconds": time.monotonic() - self._started,
            }

    def stats(self) -> dict:
        """The operational counters behind ``GET /stats``."""
        cache = self.database.plan_cache
        with self._stats_lock:
            payload = {
                "uptime_seconds": time.monotonic() - self._started,
                "workers": self.workers,
                "deadline_seconds": self.deadline_seconds,
                "requests_total": self._requests,
                "in_flight": self._in_flight,
                "timeouts": self._timeouts,
                "shed": self._shed,
                "errors": self._errors,
            }
        executed = sum(s.stats.queries_executed for s in self._all_sessions)
        updates = sum(s.stats.updates_executed for s in self._all_sessions)
        pass_totals: dict[str, dict] = {}
        for session in self._all_sessions:
            # list(): one atomic copy while the session's thread may add
            for name, slot in list(session.stats.pass_totals.items()):
                total = pass_totals.setdefault(name, dict.fromkeys(slot, 0))
                for counter, value in list(slot.items()):
                    total[counter] += value
        payload.update(
            {
                "queries_executed": executed,
                "updates_executed": updates,
                "optimizer_pass_totals": dict(sorted(pass_totals.items())),
                "plan_cache": {
                    "size": len(cache),
                    "capacity": cache.capacity,
                    "hits": cache.stats.hits,
                    "misses": cache.stats.misses,
                    "hit_rate": cache.stats.hit_rate,
                    "invalidations": cache.stats.invalidations,
                    "evictions": cache.stats.evictions,
                    "single_flight_waits": cache.stats.waits,
                    "upgrades": cache.stats.upgrades,
                },
                "documents": len(self.database.documents),
            }
        )
        store = self.database.store_status()
        if store is not None:
            payload["store"] = store
        paging = self.database.paging_status()
        if paging is not None:
            payload["paging"] = paging
        payload["arena"] = self.database.arena_report()
        return payload

    # ------------------------------------------------------------ shutdown
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for every request
        that holds a session to return it.

        With a persistent store attached, a draining shutdown also
        checkpoints it (best effort): the WAL folds into the fragment
        files so the next ``--store`` start mmap-loads without replay.
        Recovery does not depend on this — a kill -9 merely replays.
        """
        self._closed = True
        if wait:
            drained = [self._idle_sessions.get() for _ in self._all_sessions]
            for session in drained:
                self._idle_sessions.put(session)
        if wait and self.database.store is not None:
            try:
                self.database.checkpoint()
            except Exception:  # pragma: no cover - disk full at shutdown
                pass
