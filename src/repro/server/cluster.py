"""The scatter-gather layer: N worker processes behind one service facade.

:class:`ClusterService` presents the same interface as
:class:`~repro.server.service.QueryService` — ``execute_stream``,
``execute_update``, document CRUD, ``stats``, ``health``, ``shutdown`` —
but executes on a fleet of worker *processes* (:mod:`repro.server.worker`),
each owning one shard of the document catalog.  The GIL stops being the
ceiling: every worker is a full interpreter with its own arena, plan
cache and query sessions, opened shard-scoped over the shared
:class:`~repro.encoding.store.DocumentStore` directory (or empty, for an
in-memory cluster fed over HTTP).

Routing: the shard map is :func:`~repro.encoding.store.shard_of` — pure
hashing, so router and workers agree without coordination.  A query's
document dependencies are read *statically* from its AST (``fn:doc``
requires a string literal in this engine, so the analysis is complete;
absolute paths depend on the cluster default document).  Single-shard
queries stream straight through.  A query spanning shards is scattered:
its body's top-level comma sequence is split where the parser found the
commas (:func:`~repro.xquery.parser.parse_parts`), each operand runs
behind the prolog declarations it uses on its shard, in parallel, and
the streams are concatenated in operand order with the XQuery
space-separator rule applied at the seams (adjacent *atomic* edge items
get one space; nodes get none), which keeps the merged bytes identical
to the single-process serializer.  A multi-shard query that cannot be
split, or one of whose operands with its declarations still spans
shards, raises :class:`RoutingError` (HTTP 400) — the documented routing
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
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from typing import NamedTuple

from repro.encoding.store import MANIFEST_NAME, shard_of
from repro.errors import PathfinderError
from repro.server import protocol
from repro.server.protocol import WorkerUnavailable
from repro.server.service import DeadlineExceeded, budget_seconds
from repro.server.worker import worker_main
from repro.xquery import ast
from repro.xquery.parser import parse_parts

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


def _numeric_sum(parts: list[dict]) -> dict:
    """Key-wise sum of the numeric (not bool) fields of ``parts``: how
    ``/stats`` merges the shards' counters into cluster totals."""
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] = total.get(key, 0) + value
    return total


# --------------------------------------------------------------------------
# static document-dependency analysis
# --------------------------------------------------------------------------
_Deps = tuple[frozenset, bool, bool]


@dataclass
class _Refs:
    """What part of a query reads: ``doc("literal")`` URIs, whether it
    reads the default document (an absolute path) or a non-literal
    ``doc()``, and the names it uses (``$name`` for a variable)."""

    uris: set = field(default_factory=set)
    default: bool = False
    dynamic: bool = False
    names: set = field(default_factory=set)

    def add(self, other: _Refs) -> None:
        self.uris |= other.uris
        self.default |= other.default
        self.dynamic |= other.dynamic
        self.names |= other.names

    def deps(self) -> _Deps:
        """(doc URIs, depends-on-default, has-dynamic-doc)."""
        return frozenset(self.uris), self.default, self.dynamic


def _walk(node, refs: _Refs) -> _Refs:
    """Add what ``node`` (an AST node, or a list of them) reads to ``refs``."""
    if isinstance(node, (list, tuple)):
        for item in node:
            _walk(item, refs)
        return refs
    if not is_dataclass(node):
        return refs
    if isinstance(node, ast.FunctionCall):
        refs.names.add(node.name)
        if node.name in ("doc", "fn:doc"):
            args = node.args
            if len(args) == 1 and isinstance(args[0], ast.Literal) and isinstance(
                args[0].value, str
            ):
                refs.uris.add(args[0].value)
            else:
                # non-literal doc() — the compiler rejects it anyway; route
                # anywhere and let the worker raise the same error
                refs.dynamic = True
    elif isinstance(node, ast.VarRef):
        refs.names.add("$" + node.name)
    elif isinstance(node, ast.PathExpr) and node.absolute:
        refs.default = True
    for f in fields(node):
        _walk(getattr(node, f.name), refs)
    return refs


class _Analysis(NamedTuple):
    #: what the whole query reads
    deps: _Deps
    #: per top-level comma operand of the body: (leg query text, deps)
    legs: tuple[tuple[str, _Deps], ...]


@lru_cache(maxsize=1024)
def _analyze(query: str) -> _Analysis:
    """``query``, parsed once → its dependencies and its scatter legs.

    A leg is one operand behind the prolog declarations it names,
    transitively, and every external-variable and namespace declaration.
    Names are matched globally, so a local variable that shadows a
    global one only keeps a declaration too many.  Declarations no
    operand names ride on the first leg, so every declaration still
    compiles somewhere, as in the whole query.
    """
    declarations, operands = parse_parts(query)
    names = [
        node.name if isinstance(node, ast.FunctionDecl)
        else "$" + node.var if isinstance(node, ast.LetClause)
        else None  # external variable or namespace: on every leg
        for _, node in declarations
    ]
    decl_refs = [_walk(node, _Refs()) for _, node in declarations]

    def leg(expr, seed=()) -> tuple[set, _Refs]:
        refs = _walk(expr, _Refs())
        kept: set = set()
        wanted = set(seed) | {
            i for i, name in enumerate(names)
            if name is None or name in refs.names
        }
        while wanted:
            kept |= wanted
            for i in wanted:
                refs.add(decl_refs[i])
            wanted = {
                i for i, name in enumerate(names)
                if i not in kept and name in refs.names
            }
        return kept, refs

    legs = [leg(expr) for _, expr in operands]
    unnamed = set(range(len(declarations))).difference(*(k for k, _ in legs))
    if unnamed:
        legs[0] = leg(operands[0][1], unnamed)
    whole = _Refs()
    for _, refs in legs:
        whole.add(refs)
    return _Analysis(
        whole.deps(),
        tuple(
            ("".join(declarations[i][0] for i in sorted(kept)) + text, refs.deps())
            for (text, _), (kept, refs) in zip(operands, legs)
        ),
    )


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
        #: the URIs loaded on some shard (a URI's shard is ``shard_of``)
        self._routing: set[str] = set()
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
            self._routing = {
                u for u in self._routing
                if shard_of(u, self.workers) != handle.index
            } | {doc["uri"] for doc in hello.get("documents", ())}

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

    def _shards_for(self, deps: _Deps) -> set[int]:
        """The set of shards static dependencies (see :class:`_Refs`)
        live on."""
        uris, uses_default, dynamic = deps
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
        budget = budget_seconds(deadline, self.deadline_seconds)
        bindings = bindings or {}
        analysis = _analyze(query)
        targets = self._shards_for(analysis.deps)
        if len(targets) <= 1:
            stream = self._pick(targets).query(query, bindings, deadline, budget)
            return stream.meta, stream.chunks()
        return self._scatter(analysis, bindings, deadline, budget, targets)

    def _scatter(self, analysis, bindings, deadline, budget, targets):
        """Split, dispatch in parallel, merge in operand order."""
        with self._routing_lock:
            self._scatter_queries += 1
        if len(analysis.legs) < 2:
            self._routing_error(
                f"query depends on documents across {len(targets)} shards "
                "and is not a top-level sequence"
            )
        legs = []
        for piece, deps in analysis.legs:
            piece_targets = self._shards_for(deps)
            if len(piece_targets) > 1:
                self._routing_error(
                    "a top-level operand, with the declarations it uses, "
                    "depends on documents from multiple shards"
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
        budget = budget_seconds(deadline, self.deadline_seconds)
        targets = self._shards_for(_analyze(query).deps)
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
        return result

    def explain(self, query, deadline=None) -> dict:
        """Compile on the owning shard and return its plan stages."""
        budget = budget_seconds(deadline, self.deadline_seconds)
        targets = self._shards_for(_analyze(query).deps)
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
            self._routing.add(uri)
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
            self._routing.discard(uri)
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
        cache = _numeric_sum([s["plan_cache"] for s in live])
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
        passes: dict[str, list[dict]] = {}
        for s in live:
            for name, slot in s.get("optimizer_pass_totals", {}).items():
                passes.setdefault(name, []).append(slot)
        with self._routing_lock:
            router = {
                "scatter_queries": self._scatter_queries,
                "routing_errors": self._routing_errors,
                "worker_restarts": sum(h.restarts for h in self._handles),
                "routing_table_size": len(self._routing),
                "default_document": self._default,
            }
        # every numeric counter of the shard payloads sums; the fields
        # below describe the cluster itself and replace the sums
        payload = {
            **_numeric_sum(live),
            "uptime_seconds": time.monotonic() - self._started,
            "workers": self.workers,
            "threads_per_worker": self.threads,
            "deadline_seconds": self.deadline_seconds,
            "optimizer_pass_totals": {
                name: _numeric_sum(slots)
                for name, slots in sorted(passes.items())
            },
            "plan_cache": cache,
            "router": router,
            "shards": [
                {"shard": i, **(s if s is not None else {"down": True})}
                for i, s in enumerate(shard_stats)
            ],
        }
        for section in ("store", "paging", "arena"):
            parts = [s[section] for s in live if s.get(section)]
            if parts:
                payload[section] = _numeric_sum(parts)
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
