"""The query service: worker pool, deadlines and operational counters.

:class:`QueryService` is the protocol-independent core of the serving
subsystem — the HTTP layer (:mod:`repro.server.router`) is a thin JSON
codec in front of it, and tests can drive it directly.

Execution model:

* a fixed pool of worker threads (``workers``) executes queries; each
  worker lazily opens **its own** :class:`~repro.api.Session` on the
  shared Database, so workers share the document catalog, arena and
  plan cache (behind the Database's locks) but no mutable session
  state — the isolation contract of the API layer.
* every request carries a wall-clock **deadline** (default
  ``deadline_seconds``, per-request override).  The deadline is the
  baseline interpreter's budget idea applied to serving: a request that
  has already overstayed its budget while queued is shed without
  executing, and a caller stops waiting once the budget is spent (the
  worker's result is discarded).  Expiry surfaces as
  :class:`DeadlineExceeded`.
* document load/replace/unload and updates go straight to the
  Database's exclusive catalog lock — a replace waits for in-flight
  queries, then atomically swaps the tree.  Cached plans stay valid
  while the documents they read keep their size class
  (:mod:`repro.api.plan_cache`), so the next queries are cache hits
  that read the new tree; a class change or an unload makes the next
  lookup recompile (once, thanks to single-flight).
* :meth:`QueryService.stats` aggregates the operational surface:
  request/timeout/error counters, in-flight gauge, plan-cache hit
  rates, single-flight waits, and per-pass optimizer totals summed over
  every compilation the service performed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.api.database import Database
from repro.errors import DynamicError, PathfinderError


class DeadlineExceeded(DynamicError):
    """A request exceeded its wall-clock budget (queued or executing)."""


class QueryService:
    """Thread-pooled query execution over one shared Database."""

    def __init__(
        self,
        database: Database | None = None,
        workers: int = 4,
        deadline_seconds: float = 30.0,
        session_options: dict | None = None,
    ):
        if workers < 1:
            raise PathfinderError("the worker pool needs at least 1 worker")
        if deadline_seconds <= 0:
            raise PathfinderError("deadline_seconds must be positive")
        self.database = database if database is not None else Database()
        self.workers = workers
        self.deadline_seconds = deadline_seconds
        #: keyword arguments for every worker's ``Database.connect()``
        self.session_options = dict(session_options or {})
        # a throwaway session runs the Session constructor's checks now,
        # so bad options fail here instead of on every request
        self.database.connect(**self.session_options)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query"
        )
        self._sessions = threading.local()
        self._all_sessions: list = []
        self._stats_lock = threading.Lock()
        self._started = time.monotonic()
        self._in_flight = 0
        self._requests = 0
        self._timeouts = 0
        self._shed = 0
        self._errors = 0
        # per-pass optimizer totals over every compile this service did
        self._pass_totals: dict[str, dict[str, int]] = {}
        self._closed = False

    # ------------------------------------------------------------- workers
    def _session(self):
        """This worker thread's private session (created on first use)."""
        session = getattr(self._sessions, "session", None)
        if session is None:
            session = self.database.connect(**self.session_options)
            self._sessions.session = session
            with self._stats_lock:
                self._all_sessions.append(session)
        return session

    def _submit(self, fn, deadline: float | None):
        """Run ``fn(session)`` on the pool under a wall-clock budget."""
        with self._stats_lock:
            self._requests += 1
        try:
            if self._closed:
                raise PathfinderError("the query service is shut down")
            if deadline is None:
                budget = self.deadline_seconds
            else:
                try:
                    budget = float(deadline)
                except (TypeError, ValueError):
                    raise PathfinderError(
                        f"deadline must be a number of seconds, got {deadline!r}"
                    ) from None
            if budget <= 0:
                raise PathfinderError("deadline must be positive")
        except Exception:
            # requests rejected at validation still show in /stats
            with self._stats_lock:
                self._errors += 1
            raise
        enqueued = time.monotonic()

        def task():
            # budget spent while queued (and the caller's cancel lost the
            # race): give up instead of burning a worker on an answer
            # nobody is waiting for
            if time.monotonic() - enqueued > budget:
                exc = DeadlineExceeded(
                    f"request shed after waiting {budget:.3f}s in the queue"
                )
                exc.queue_shed = True
                raise exc
            with self._stats_lock:
                self._in_flight += 1
            try:
                return fn(self._session())
            finally:
                with self._stats_lock:
                    self._in_flight -= 1

        future = self._pool.submit(task)
        try:
            return future.result(timeout=budget)
        except FutureTimeoutError:
            # shed and timed-out are mutually exclusive per request: a
            # successful cancel means no worker ever ran it (shed); an
            # unsuccessful one means it expired while executing (timeout)
            if future.cancel():
                with self._stats_lock:
                    self._shed += 1
                exc = DeadlineExceeded(
                    f"request shed after waiting {budget:.3f}s in the queue"
                )
                # mark it like the task-side shed, so callers (and the
                # cluster's wire protocol) see one shedding semantic
                exc.queue_shed = True
                raise exc from None
            with self._stats_lock:
                self._timeouts += 1
            raise DeadlineExceeded(
                f"query exceeded its {budget:.3f}s budget (DNF)"
            ) from None
        except CancelledError:  # pragma: no cover - shutdown race
            raise DeadlineExceeded("request cancelled at shutdown") from None
        except DeadlineExceeded as exc:
            # a queue-shed raised by the task itself (it beat the
            # caller's own timer to the expiry) still counts as shed
            if getattr(exc, "queue_shed", False):
                with self._stats_lock:
                    self._shed += 1
            raise
        except Exception:
            # client errors and unexpected failures alike: /stats must
            # report every request that did not produce a result
            with self._stats_lock:
                self._errors += 1
            raise

    def _record_pass_stats(self, optimizer_stats) -> None:
        """Fold one compilation's per-pass counters into the totals."""
        with self._stats_lock:
            for ps in optimizer_stats.pass_stats:
                slot = self._pass_totals.setdefault(
                    ps.name,
                    {"runs": 0, "rewrites": 0, "compilations": 0, "seconds": 0.0},
                )
                slot["runs"] += ps.runs
                slot["rewrites"] += ps.rewrites
                slot["compilations"] += 1
                slot["seconds"] += ps.seconds

    # ------------------------------------------------------------- queries
    def execute(
        self,
        query: str,
        bindings: dict | None = None,
        deadline: float | None = None,
    ) -> dict:
        """Compile (cache-backed) and execute one query on the pool.

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
        Compile + execute run on the worker pool under the usual
        deadline/shedding discipline; the chunk iteration happens on the
        caller's thread (for HTTP: one of the router's service-call
        threads), which is safe without a lock — the result table is
        immutable and the result's lease keeps every arena row it
        references in place, so a concurrent hot replace cannot tear
        the scan.

        The request's wall-clock budget covers the stream too: when it
        expires between chunks the iterator raises
        :class:`DeadlineExceeded` (counted as a timeout in ``/stats``;
        an HTTP response already under way can then only be truncated),
        and any other mid-stream failure is counted as an error, so the
        '/stats reports every request that did not produce a result'
        contract survives the move off the worker pool.

        ``edge_meta=True`` adds a ``"_edges"`` field to ``meta`` saying
        whether the sequence's first/last items are atomic values — the
        cluster router needs this to decide whether a space separator
        belongs between two shards' streams when it concatenates a
        scattered sequence (XQuery serialization separates *adjacent
        atomics* with a space; nodes get no separator).
        """

        def run(session):
            prepared = session.prepare(query)
            if not prepared.from_cache:
                self._record_pass_stats(prepared.optimizer_stats)
            result = prepared.execute(bindings or {})
            meta = {
                "items": len(result),
                "from_cache": prepared.from_cache,
                "compile_seconds": result.compile_seconds,
                "execute_seconds": result.execute_seconds,
                "parameters": [v.name for v in prepared.parameters],
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
            return meta, result

        started = time.monotonic()
        meta, result = self._submit(run, deadline)
        budget = self.deadline_seconds if deadline is None else float(deadline)

        def stream():
            # the result's lease on the arena ends with the stream —
            # drained, failed or abandoned (a generator's close() runs
            # the finally) — so its constructed nodes can be popped
            try:
                for chunk in result.iter_serialized():
                    if time.monotonic() - started > budget:
                        with self._stats_lock:
                            self._timeouts += 1
                        raise DeadlineExceeded(
                            f"serialization exceeded the {budget:.3f}s "
                            "budget (result truncated)"
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

        return meta, stream()

    def execute_update(
        self,
        query: str,
        bindings: dict | None = None,
        deadline: float | None = None,
    ) -> dict:
        """Apply an updating query on the pool (``POST /update``).

        Same deadline discipline as :meth:`execute` — overstayed queued
        requests are shed, and the wall-clock budget also bounds the
        update's target/source evaluation; the exclusive-lock application
        itself rides the Database's write path (identical to a hot
        document replace), so no pool worker can deadlock on it.
        """
        try:
            budget = self.deadline_seconds if deadline is None else float(deadline)
        except (TypeError, ValueError):
            budget = self.deadline_seconds  # _submit rejects the request

        def run(session):
            from repro.baseline.interpreter import QueryTimeout

            try:
                payload = session.execute_update(
                    query, bindings or {}, deadline=budget
                )
            except QueryTimeout as exc:
                raise DeadlineExceeded(str(exc)) from None
            with self._stats_lock:
                payload["updates_executed"] = sum(
                    s.stats.updates_executed for s in self._all_sessions
                )
            return payload

        return self._submit(run, deadline)

    def explain(self, query: str, deadline: float | None = None) -> dict:
        """Compile a query and return its plan stages (``/explain``)."""

        def run(session):
            report = session.explain(query)
            stats = report.stats
            return {
                "ops_before": stats.ops_before,
                "ops_after": stats.ops_after,
                "reduction_pct": stats.reduction_pct,
                "optimizer_mode": report.optimizer_mode,
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

        Runs on the caller's thread, not the pool: it takes the
        exclusive catalog lock, so routing it through the worker pool
        would let queued queries and a replace deadlock the pool.
        """
        return self.database.replace_document(uri, xml_text)

    def delete_document(self, uri: str) -> dict:
        """Unload a document (``DELETE /documents/<uri>``)."""
        self.database.unload_document(uri)
        return {"uri": uri, "unloaded": True}

    def checkpoint(self) -> dict:
        """Fold the store's WAL into fragments (``POST /checkpoint``).

        Caller's thread, not the pool, for the same reason as
        :meth:`put_document`: it takes the exclusive catalog lock.
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
            sessions = list(self._all_sessions)
            payload = {
                "uptime_seconds": time.monotonic() - self._started,
                "workers": self.workers,
                "deadline_seconds": self.deadline_seconds,
                "requests_total": self._requests,
                "in_flight": self._in_flight,
                "timeouts": self._timeouts,
                "shed": self._shed,
                "errors": self._errors,
                "optimizer_pass_totals": {
                    name: dict(slot)
                    for name, slot in sorted(self._pass_totals.items())
                },
            }
        executed = sum(s.stats.queries_executed for s in sessions)
        updates = sum(s.stats.updates_executed for s in sessions)
        by_mode: dict[str, int] = {}
        for s in sessions:
            by_mode[s.optimizer_mode] = (
                by_mode.get(s.optimizer_mode, 0) + s.stats.queries_executed
            )
        payload.update(
            {
                "queries_executed": executed,
                "queries_by_mode": dict(sorted(by_mode.items())),
                "updates_executed": updates,
                "plan_cache": {
                    "size": len(cache),
                    "capacity": cache.capacity,
                    "hits": cache.stats.hits,
                    "misses": cache.stats.misses,
                    "hit_rate": cache.stats.hit_rate,
                    "invalidations": cache.stats.invalidations,
                    "evictions": cache.stats.evictions,
                    "single_flight_waits": self.database.single_flight_waits,
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
        """Stop accepting work and (optionally) drain in-flight queries.

        With a persistent store attached, a draining shutdown also
        checkpoints it (best effort): the WAL folds into the fragment
        files so the next ``--store`` start mmap-loads without replay.
        Recovery does not depend on this — a kill -9 merely replays.
        """
        self._closed = True
        self._pool.shutdown(wait=wait)
        if wait and self.database.store is not None:
            try:
                self.database.checkpoint()
            except Exception:  # pragma: no cover - disk full at shutdown
                pass
