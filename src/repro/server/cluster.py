"""The scatter-gather layer: N worker processes behind one service facade.

:class:`ClusterService` presents the same interface as
:class:`~repro.server.service.QueryService` — ``execute_stream``,
``execute_update``, document CRUD, ``stats``, ``health``, ``shutdown`` —
but executes on a fleet of worker *processes* (:mod:`repro.server.worker`),
each owning one shard of the document catalog.  The GIL stops being the
ceiling: every worker is a full interpreter with its own arena, plan
cache and thread pool, opened shard-scoped over the shared
:class:`~repro.encoding.store.DocumentStore` directory (or empty, for an
in-memory cluster fed over HTTP).

Routing: the shard map is :func:`~repro.encoding.store.shard_of` — pure
hashing, so router and workers agree without coordination.  A query's
document dependencies are read *statically* from its AST (``fn:doc``
requires a string literal in this engine, so the analysis is complete;
absolute paths depend on the cluster default document).  Single-shard
queries stream straight through.  A query spanning shards is scattered:
its top-level comma sequence is split textually (conservatively — see
``_split_toplevel``), the operands execute on their shards in parallel,
and the streams are concatenated in operand order with the XQuery
space-separator rule applied at the seams (adjacent *atomic* edge items
get one space; nodes get none), which keeps the merged bytes identical
to the single-process serializer.  A multi-shard query that cannot be
split raises :class:`RoutingError` (HTTP 400) — the documented routing
limitation.

Failure semantics: deadlines and shedding are enforced *inside* each
worker by its QueryService (the single source of truth for those
counters); the router only adds a grace timeout so a hung or dead worker
cannot strand a request.  A worker that dies is respawned (spawn
context — fork is unsafe with the router's threads), recovers its shard
from the store, and re-announces its catalog; requests that raced the
crash fail with :class:`~repro.server.protocol.WorkerUnavailable`
(HTTP 503).  Without a store, a respawned worker comes back empty.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

from repro.encoding.store import MANIFEST_NAME, shard_of
from repro.errors import PathfinderError
from repro.server import protocol
from repro.server.protocol import WorkerUnavailable
from repro.server.service import DeadlineExceeded
from repro.server.worker import worker_main
from repro.xquery.parser import parse_query

#: extra wall-clock the router allows past a request's budget before
#: declaring the worker hung (the worker enforces the budget itself)
GRACE_SECONDS = 5.0
#: how long to wait for a (re)spawned worker's hello
READY_TIMEOUT = 60.0
#: ceiling for admin ops that carry no deadline (document PUT, stats...)
ADMIN_TIMEOUT = 120.0
#: give up respawning a shard after this many consecutive deaths
RESTART_LIMIT = 5


class RoutingError(PathfinderError):
    """The router cannot place a request on a single shard (HTTP 400)."""


# --------------------------------------------------------------------------
# static document-dependency analysis
# --------------------------------------------------------------------------
def _walk_deps(node, uris: set, flags: dict) -> None:
    """Collect ``doc("literal")`` URIs and absolute-path markers."""
    from dataclasses import fields, is_dataclass

    from repro.xquery import ast

    if isinstance(node, (list, tuple)):
        for item in node:
            _walk_deps(item, uris, flags)
        return
    if not is_dataclass(node):
        return
    if isinstance(node, ast.FunctionCall) and node.name in ("doc", "fn:doc"):
        args = node.args
        if len(args) == 1 and isinstance(args[0], ast.Literal) and isinstance(
            args[0].value, str
        ):
            uris.add(args[0].value)
        else:
            # non-literal doc() — the compiler rejects it anyway; route
            # anywhere and let the worker raise the same error
            flags["dynamic"] = True
    if isinstance(node, ast.PathExpr) and node.absolute:
        flags["default"] = True
    for field in fields(node):
        _walk_deps(getattr(node, field.name), uris, flags)


@lru_cache(maxsize=1024)
def _analyze(query: str) -> tuple[frozenset, bool, bool]:
    """``query`` → (doc URIs, depends-on-default, has-dynamic-doc)."""
    module = parse_query(query)
    uris: set = set()
    flags = {"default": False, "dynamic": False}
    _walk_deps(module, uris, flags)
    return frozenset(uris), flags["default"], flags["dynamic"]


def _split_toplevel(text: str) -> list[str] | None:
    """Split a query at its top-level commas, or None when unsafe.

    Tracks paren/bracket/brace depth, string literals (with XQuery's
    quote doubling) and nested ``(: :)`` comments.  Bails out on any
    ``<`` outside strings/comments: it could open a direct constructor,
    whose content makes tokenization context-dependent — the split must
    never be *wrong*, only unavailable.
    """
    pieces: list[str] = []
    start = 0
    depth = 0
    comment_depth = 0
    in_string: str | None = None
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if in_string is not None:
            if ch == in_string:
                if i + 1 < n and text[i + 1] == in_string:
                    i += 2  # doubled quote: an escaped quote character
                    continue
                in_string = None
            i += 1
            continue
        if comment_depth:
            if ch == "(" and i + 1 < n and text[i + 1] == ":":
                comment_depth += 1
                i += 2
                continue
            if ch == ":" and i + 1 < n and text[i + 1] == ")":
                comment_depth -= 1
                i += 2
                continue
            i += 1
            continue
        if ch == "(" and i + 1 < n and text[i + 1] == ":":
            comment_depth = 1
            i += 2
            continue
        if ch in "'\"":
            in_string = ch
        elif ch == "<":
            return None
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                return None
        elif ch == "," and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
        i += 1
    if in_string is not None or comment_depth or depth != 0:
        return None
    pieces.append(text[start:])
    if len(pieces) < 2 or any(not p.strip() for p in pieces):
        return None
    return pieces


# --------------------------------------------------------------------------
# one worker process, as the router sees it
# --------------------------------------------------------------------------
class WorkerHandle:
    """Owns one worker process: connection, demux, respawn."""

    def __init__(self, index: int, count: int, config: dict, ctx, on_hello=None):
        self.index = index
        self.config = {**config, "index": index, "count": count}
        self._ctx = ctx
        self._on_hello = on_hello
        self.process = None
        self.conn = None
        self.ready = threading.Event()
        self.hello: dict | None = None
        self.restarts = 0
        self.dead = False
        self._closed = False
        self._pending: dict[int, queue.Queue] = {}
        self._pending_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._respawn_lock = threading.Lock()
        self._ids = itertools.count(1)

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Spawn the worker process and its frame-reader thread."""
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child, self.config),
            daemon=True,
            name=f"repro-shard-{self.index}",
        )
        process.start()
        child.close()
        self.conn = parent
        self.process = process
        reader = threading.Thread(
            target=self._read_loop,
            args=(parent,),
            daemon=True,
            name=f"shard{self.index}-reader",
        )
        reader.start()

    def close(self, join_timeout: float = 10.0) -> None:
        """Stop the worker: best-effort shutdown op, then close + join."""
        self._closed = True
        try:
            self.call("shutdown", timeout=join_timeout)
        except Exception:
            pass
        try:
            if self.conn is not None:
                self.conn.close()
        except OSError:
            pass
        if self.process is not None:
            self.process.join(timeout=join_timeout)
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.terminate()
                self.process.join(timeout=join_timeout)

    def _read_loop(self, conn) -> None:
        """Demultiplex this connection's frames into per-request queues."""
        try:
            while True:
                frame = protocol.recv_frame(conn)
                if "hello" in frame:
                    self.hello = frame["hello"]
                    self.ready.set()
                    if self._on_hello is not None:
                        self._on_hello(self, frame["hello"])
                    continue
                rid = frame.get("id")
                with self._pending_lock:
                    q = self._pending.get(rid)
                    # terminal frames retire the pending slot here, so an
                    # abandoned caller cannot leak its queue forever
                    if q is not None and (
                        "error" in frame or "result" in frame or frame.get("done")
                    ):
                        self._pending.pop(rid, None)
                if q is not None:
                    q.put(frame)
        except (EOFError, OSError):
            pass
        finally:
            if conn is self.conn and not self._closed:
                self._connection_lost()

    def _connection_lost(self) -> None:
        """The worker died: fail pending requests, then respawn."""
        self.ready.clear()
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        down = {
            "error": f"shard {self.index} worker process died",
            "kind": "WorkerUnavailable",
            "status": 503,
        }
        for q in pending:
            q.put(down)
        with self._respawn_lock:
            if self._closed:
                return
            if self.restarts >= RESTART_LIMIT:
                self.dead = True
                return
            self.restarts += 1
            try:
                self.process.join(timeout=5.0)
            except Exception:  # pragma: no cover - already reaped
                pass
            self.start()

    # ------------------------------------------------------------ requests
    def _await_ready(self, timeout: float = READY_TIMEOUT) -> None:
        if self.dead:
            raise WorkerUnavailable(
                f"shard {self.index} is down (restart limit reached)"
            )
        if not self.ready.wait(timeout):
            raise WorkerUnavailable(f"shard {self.index} is not ready")

    def _register(self) -> tuple[int, queue.Queue]:
        rid = next(self._ids)
        q: queue.Queue = queue.Queue()
        with self._pending_lock:
            self._pending[rid] = q
        return rid, q

    def _unregister(self, rid: int) -> None:
        with self._pending_lock:
            self._pending.pop(rid, None)

    def _send(self, frame: dict) -> None:
        try:
            with self._send_lock:
                protocol.send_frame(self.conn, frame)
        except (OSError, ValueError) as exc:
            raise WorkerUnavailable(
                f"shard {self.index} connection is down: {exc}"
            ) from None

    def call(self, op: str, timeout: float = ADMIN_TIMEOUT, **fields):
        """One unary op; raises the reconstructed worker exception."""
        self._await_ready()
        rid, q = self._register()
        try:
            self._send({"id": rid, "op": op, **fields})
            try:
                frame = q.get(timeout=timeout)
            except queue.Empty:
                raise WorkerUnavailable(
                    f"shard {self.index} did not answer {op!r} within "
                    f"{timeout:.0f}s"
                ) from None
            if "error" in frame:
                protocol.raise_remote(frame)
            return frame.get("result")
        finally:
            self._unregister(rid)

    def query(self, query: str, bindings: dict, deadline, budget: float):
        """The streaming op — returns a :class:`_QueryStream`."""
        self._await_ready()
        rid, q = self._register()
        try:
            self._send(
                {
                    "id": rid,
                    "op": "query",
                    "query": query,
                    "bindings": bindings,
                    "deadline": deadline,
                }
            )
            try:
                head = q.get(timeout=budget + GRACE_SECONDS)
            except queue.Empty:
                raise DeadlineExceeded(
                    f"shard {self.index} produced no result within the "
                    f"{budget:.3f}s budget (+grace)"
                ) from None
            if "error" in head:
                protocol.raise_remote(head)
        except BaseException:
            self._unregister(rid)
            raise
        return _QueryStream(self, rid, q, head["meta"], head["edges"], budget)


class _QueryStream:
    """One in-flight scattered query leg: its meta, edges and chunks."""

    def __init__(self, handle, rid, frames, meta, edges, budget):
        self.handle = handle
        self.rid = rid
        self.frames = frames
        self.meta = meta
        self.edges = edges
        self.budget = budget

    def chunks(self):
        """Yield the leg's serialized text chunks; terminal on error."""
        try:
            while True:
                try:
                    frame = self.frames.get(timeout=self.budget + GRACE_SECONDS)
                except queue.Empty:
                    raise DeadlineExceeded(
                        f"shard {self.handle.index} stalled mid-stream past "
                        f"the {self.budget:.3f}s budget (+grace)"
                    ) from None
                if frame.get("done"):
                    return
                if "error" in frame:
                    protocol.raise_remote(frame)
                yield frame["chunk"]
        finally:
            self.discard()

    def discard(self) -> None:
        """Release the pending slot (idempotent; safe if never streamed)."""
        self.handle._unregister(self.rid)


# --------------------------------------------------------------------------
# the cluster facade
# --------------------------------------------------------------------------
class ClusterService:
    """QueryService-shaped facade over N shard worker processes."""

    def __init__(
        self,
        workers: int,
        store: str | None = None,
        threads: int = 4,
        deadline_seconds: float = 30.0,
        session_options: dict | None = None,
        plan_cache_size: int = 128,
        page_budget_bytes: int | None = None,
    ):
        if workers < 1:
            raise PathfinderError("a cluster needs at least 1 worker process")
        if deadline_seconds <= 0:
            raise PathfinderError("deadline_seconds must be positive")
        # the workers' QueryService and PlanCache reject these too, but
        # only after a spawn; checking here fails before any process starts
        if threads < 1:
            raise PathfinderError("the worker pool needs at least 1 worker")
        if plan_cache_size < 1:
            raise PathfinderError("plan cache capacity must be >= 1")
        self.workers = workers
        self.threads = threads
        self.deadline_seconds = deadline_seconds
        self.store = store
        self._started = time.monotonic()
        self._closed = False
        self._routing: dict[str, dict] = {}
        self._routing_lock = threading.Lock()
        self._default: str | None = None
        self._rr = itertools.count()
        self._scatter_queries = 0
        self._routing_errors = 0
        # the scatter fan-out pool: legs of one query run concurrently
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=max(8, workers * 2), thread_name_prefix="scatter"
        )
        per_worker_budget = (
            None if page_budget_bytes is None
            else max(1, page_budget_bytes // workers)
        )
        config = {
            "count": workers,
            "store": store,
            "threads": threads,
            "deadline_seconds": deadline_seconds,
            "session_options": dict(session_options or {}),
            "plan_cache_size": plan_cache_size,
            "page_budget_bytes": per_worker_budget,
        }
        # fork is unsafe here: the router is threaded by construction
        ctx = multiprocessing.get_context("spawn")
        self._handles = [
            WorkerHandle(i, workers, config, ctx, on_hello=self._hello)
            for i in range(workers)
        ]
        for handle in self._handles:
            handle.start()
        deadline = time.monotonic() + READY_TIMEOUT
        for handle in self._handles:
            # poll, so a worker that keeps dying on startup (a config it
            # rejects) fails the cluster once its restarts run out
            while not handle.ready.wait(0.05):
                if handle.dead or time.monotonic() > deadline:
                    self.shutdown(wait=False)
                    reason = (
                        "kept dying on startup"
                        if handle.dead
                        else f"failed to start within {READY_TIMEOUT:.0f}s"
                    )
                    raise PathfinderError(f"shard {handle.index} {reason}")
        if store is not None:
            self._adopt_manifest_default()

    # ------------------------------------------------------------- routing
    def _hello(self, handle: WorkerHandle, hello: dict) -> None:
        """(Re)build the shard's routing entries from its hello."""
        with self._routing_lock:
            for uri in [
                u for u, e in self._routing.items() if e["shard"] == handle.index
            ]:
                del self._routing[uri]
            for doc in hello.get("documents", ()):
                self._routing[doc["uri"]] = {
                    "shard": handle.index,
                    "epoch": doc["epoch"],
                    "nodes": doc["nodes"],
                }

    def _adopt_manifest_default(self) -> None:
        """Pick the cluster default from the store manifest at startup.

        Mirrors the single-process recovery rule — the manifest's
        explicit choice, else the first sorted document — and pins it on
        the owning worker so absolute paths resolve identically there.
        """
        manifest_path = os.path.join(self.store, MANIFEST_NAME)
        default = None
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                default = json.load(handle).get("default_document")
        except (OSError, ValueError):
            default = None
        with self._routing_lock:
            if default is None and self._routing:
                default = sorted(self._routing)[0]
            if default is not None and default not in self._routing:
                default = None
            self._default = default
        if default is not None:
            self._handles[shard_of(default, self.workers)].call(
                "set_default", uri=default, persist=False
            )

    def _shards_for(self, query: str) -> set[int]:
        """The set of shards a query's static dependencies live on."""
        uris, uses_default, dynamic = _analyze(query)
        targets = {shard_of(uri, self.workers) for uri in uris}
        if uses_default or dynamic:
            with self._routing_lock:
                default = self._default
            if default is not None:
                targets.add(shard_of(default, self.workers))
            # no default: any worker raises the same compile error
        return targets

    def _pick(self, targets: set[int]) -> WorkerHandle:
        if targets:
            return self._handles[min(targets)]
        # dependency-free query (e.g. pure arithmetic): spread the load
        return self._handles[next(self._rr) % self.workers]

    def _budget(self, deadline) -> float:
        if deadline is None:
            return self.deadline_seconds
        try:
            budget = float(deadline)
        except (TypeError, ValueError):
            raise PathfinderError(
                f"deadline must be a number of seconds, got {deadline!r}"
            ) from None
        if budget <= 0:
            raise PathfinderError("deadline must be positive")
        return budget

    # ------------------------------------------------------------- queries
    def execute(self, query, bindings=None, deadline=None) -> dict:
        """Buffered execute — ``execute_stream`` joined (tests, parity)."""
        meta, chunks = self.execute_stream(query, bindings, deadline=deadline)
        return {"result": "".join(chunks), **meta}

    def execute_stream(self, query, bindings=None, deadline=None):
        """Route one query; scatter across shards when it must.

        Same contract as :meth:`QueryService.execute_stream`: returns
        ``(meta, chunks)`` with the serialized text deferred to the
        iterator, and the merged bytes identical to the single-process
        serializer (the edge-atomics separator rule, see module docs).
        """
        budget = self._budget(deadline)
        bindings = bindings or {}
        targets = self._shards_for(query)
        if len(targets) <= 1:
            stream = self._pick(targets).query(query, bindings, deadline, budget)
            return stream.meta, stream.chunks()
        return self._scatter(query, bindings, deadline, budget, targets)

    def _scatter(self, query, bindings, deadline, budget, targets):
        """Split, dispatch in parallel, merge in operand order."""
        with self._routing_lock:
            self._scatter_queries += 1
        pieces = _split_toplevel(query)
        if pieces is None:
            self._routing_error(
                f"query depends on documents across {len(targets)} shards "
                "and is not a splittable top-level sequence"
            )
        legs = []
        for piece in pieces:
            try:
                piece_targets = self._shards_for(piece)
            except PathfinderError:
                self._routing_error(
                    "query spans multiple shards and a split operand does "
                    "not parse standalone"
                )
            if len(piece_targets) > 1:
                self._routing_error(
                    "a top-level operand itself depends on documents from "
                    "multiple shards"
                )
            legs.append((piece, self._pick(piece_targets)))
        futures = [
            self._scatter_pool.submit(
                handle.query, piece, bindings, deadline, budget
            )
            for piece, handle in legs
        ]
        streams: list[_QueryStream] = []
        try:
            for future in futures:
                streams.append(future.result(timeout=budget + GRACE_SECONDS))
        except BaseException:
            for future in futures:
                future.cancel()
            for stream in streams:
                stream.discard()
            raise
        meta = {
            "items": sum(s.meta["items"] for s in streams),
            "from_cache": all(s.meta["from_cache"] for s in streams),
            "compile_seconds": max(s.meta["compile_seconds"] for s in streams),
            "execute_seconds": max(s.meta["execute_seconds"] for s in streams),
            "parameters": list(
                dict.fromkeys(
                    p for s in streams for p in s.meta["parameters"]
                )
            ),
            "scattered": len(streams),
        }

        def merged():
            try:
                prev_last_atomic = False
                for stream in streams:
                    if stream.meta["items"]:
                        if prev_last_atomic and stream.edges.get("first_atomic"):
                            # the seam separator: XQuery serialization
                            # puts one space between adjacent atomics
                            yield " "
                        prev_last_atomic = bool(
                            stream.edges.get("last_atomic")
                        )
                    for chunk in stream.chunks():
                        yield chunk
            finally:
                for stream in streams:
                    stream.discard()

        return meta, merged()

    def _routing_error(self, message: str):
        with self._routing_lock:
            self._routing_errors += 1
        raise RoutingError(message)

    def execute_update(self, query, bindings=None, deadline=None) -> dict:
        """Route an updating query to the single shard it touches."""
        budget = self._budget(deadline)
        targets = self._shards_for(query)
        if len(targets) > 1:
            self._routing_error(
                "an updating query must target documents on one shard"
            )
        handle = self._pick(targets)
        result = handle.call(
            "update",
            timeout=budget + GRACE_SECONDS,
            query=query,
            bindings=bindings or {},
            deadline=deadline,
        )
        with self._routing_lock:
            for uri, info in result.get("documents", {}).items():
                entry = self._routing.get(uri)
                if entry is not None:
                    # the epoch bump propagates into the routing table
                    entry["epoch"] = info["epoch"]
                    entry["nodes"] = info["nodes"]
        return result

    def explain(self, query, deadline=None) -> dict:
        """Compile on the owning shard and return its plan stages."""
        budget = self._budget(deadline)
        targets = self._shards_for(query)
        if len(targets) > 1:
            self._routing_error(
                "explain needs the query's documents on one shard"
            )
        return self._pick(targets).call(
            "explain", timeout=budget + GRACE_SECONDS,
            query=query, deadline=deadline,
        )

    # ----------------------------------------------------------- documents
    def list_documents(self) -> list[dict]:
        """The merged catalog; the default flag is the *cluster* default."""
        docs: list[dict] = []
        with self._routing_lock:
            default = self._default
        for handle in self._handles:
            docs.extend(handle.call("list_documents"))
        for doc in docs:
            doc["default"] = doc["uri"] == default
        return sorted(docs, key=lambda d: d["uri"])

    def put_document(self, uri: str, xml_text: str) -> dict:
        """Load or hot-replace on the owning shard; update routing."""
        shard = shard_of(uri, self.workers)
        handle = self._handles[shard]
        result = handle.call("put_document", uri=uri, xml=xml_text)
        with self._routing_lock:
            self._routing[uri] = {
                "shard": shard,
                "epoch": result["epoch"],
                "nodes": result["nodes"],
            }
            became_default = False
            if self._default is None:
                # the implicit first-load rule, cluster-wide
                self._default = uri
                became_default = True
            default = self._default
        if shard_of(default, self.workers) == shard:
            # the put may have shifted this worker's *local* implicit
            # default; re-pin the cluster's choice (and persist it the
            # first time, so restarts agree)
            handle.call(
                "set_default",
                uri=default,
                persist=became_default and self.store is not None,
            )
        return {**result, "shard": shard}

    def delete_document(self, uri: str) -> dict:
        """Unload on the owning shard; drop routing and default."""
        handle = self._handles[shard_of(uri, self.workers)]
        result = handle.call("delete_document", uri=uri)
        with self._routing_lock:
            self._routing.pop(uri, None)
            if self._default == uri:
                self._default = None
        return result

    def checkpoint(self) -> dict:
        """Checkpoint every shard; aggregate the summaries."""
        results = [h.call("checkpoint") for h in self._handles]
        return {
            "documents_rewritten": sum(
                r["documents_rewritten"] for r in results
            ),
            "wal_bytes": sum(r["wal_bytes"] for r in results),
            "shards": len(results),
        }

    # --------------------------------------------------------------- stats
    def health(self) -> dict:
        """Router + per-worker liveness/readiness (``GET /healthz``)."""
        workers = []
        for handle in self._handles:
            alive = handle.process is not None and handle.process.is_alive()
            workers.append(
                {
                    "shard": handle.index,
                    "alive": alive,
                    "ready": handle.ready.is_set(),
                    "pid": None if handle.process is None else handle.process.pid,
                    "restarts": handle.restarts,
                }
            )
        return {
            "ok": not self._closed
            and all(w["alive"] and w["ready"] for w in workers),
            "role": "router",
            "workers": workers,
        }

    def stats(self) -> dict:
        """Aggregated operational counters plus per-shard sections."""
        shard_stats: list[dict | None] = []
        for handle in self._handles:
            try:
                shard_stats.append(handle.call("stats", timeout=30.0))
            except PathfinderError:
                shard_stats.append(None)
        live = [s for s in shard_stats if s is not None]

        def total(key):
            return sum(s.get(key, 0) for s in live)

        cache_hits = sum(s["plan_cache"]["hits"] for s in live)
        cache_misses = sum(s["plan_cache"]["misses"] for s in live)
        lookups = cache_hits + cache_misses
        pass_totals: dict[str, dict[str, int]] = {}
        for s in live:
            for name, slot in s.get("optimizer_pass_totals", {}).items():
                agg = pass_totals.setdefault(
                    name, {"runs": 0, "rewrites": 0, "compilations": 0}
                )
                for key in agg:
                    agg[key] += slot.get(key, 0)
        with self._routing_lock:
            router = {
                "scatter_queries": self._scatter_queries,
                "routing_errors": self._routing_errors,
                "worker_restarts": sum(h.restarts for h in self._handles),
                "routing_table_size": len(self._routing),
                "default_document": self._default,
            }
        payload = {
            "uptime_seconds": time.monotonic() - self._started,
            "workers": self.workers,
            "threads_per_worker": self.threads,
            "deadline_seconds": self.deadline_seconds,
            "requests_total": total("requests_total"),
            "in_flight": total("in_flight"),
            "timeouts": total("timeouts"),
            "shed": total("shed"),
            "errors": total("errors"),
            "queries_executed": total("queries_executed"),
            "updates_executed": total("updates_executed"),
            "documents": total("documents"),
            "optimizer_pass_totals": dict(sorted(pass_totals.items())),
            "plan_cache": {
                "size": sum(s["plan_cache"]["size"] for s in live),
                "capacity": sum(s["plan_cache"]["capacity"] for s in live),
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": (cache_hits / lookups) if lookups else 0.0,
                "invalidations": sum(
                    s["plan_cache"]["invalidations"] for s in live
                ),
                "evictions": sum(s["plan_cache"]["evictions"] for s in live),
                "single_flight_waits": sum(
                    s["plan_cache"]["single_flight_waits"] for s in live
                ),
            },
            "router": router,
            "shards": [
                {"shard": i, **(s if s is not None else {"down": True})}
                for i, s in enumerate(shard_stats)
            ],
        }
        for section in ("store", "paging", "arena"):
            parts = [s[section] for s in live if s.get(section)]
            if parts:
                agg: dict = {}
                for part in parts:
                    for key, value in part.items():
                        if isinstance(value, (int, float)) and not isinstance(
                            value, bool
                        ):
                            agg[key] = agg.get(key, 0) + value
                payload[section] = agg
        return payload

    # ------------------------------------------------------------ shutdown
    def shutdown(self, wait: bool = True) -> None:
        """Drain and stop every worker, then the scatter pool.

        Each worker's own shutdown checkpoints its shard (best effort)
        when a store is attached — same contract as the single-process
        service.
        """
        self._closed = True
        for handle in self._handles:
            handle.close(join_timeout=15.0 if wait else 1.0)
        self._scatter_pool.shutdown(wait=wait)
