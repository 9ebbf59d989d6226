"""One cluster worker process: a shard-scoped QueryService behind a pipe.

:func:`worker_main` is the child-process entry point spawned by
:class:`~repro.server.cluster.ClusterService`.  It opens its shard of
the catalog — a shard-scoped :class:`~repro.api.database.Database` over
the shared store directory, or an empty in-memory catalog when the
cluster runs without ``--store`` — wraps it in a perfectly ordinary
:class:`~repro.server.service.QueryService`, and serves request frames
from the router until the connection closes or a ``shutdown`` op
arrives.

Concurrency inside the worker: the main thread reads frames and hands
each request to a small handler pool, so a slow query never blocks the
next frame.  The handler thread runs the request itself, with a session
checked out of the QueryService — the sessions (and with them the
deadline and shedding discipline) are the QueryService's own, exactly
as in the single-process server.  All writes to the connection go through one
lock, so interleaved chunk streams of concurrent queries stay
frame-atomic.
"""

from __future__ import annotations

import signal
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api.database import Database
from repro.server import protocol
from repro.server.service import QueryService


def _build_service(config: dict) -> QueryService:
    """Open this worker's shard and wrap it in a QueryService."""
    index, count = config["index"], config["count"]
    if config.get("store"):
        database = Database(
            plan_cache_size=config.get("plan_cache_size", 128),
            store=config["store"],
            page_budget_bytes=config.get("page_budget_bytes"),
            shard=(index, count),
        )
    else:
        database = Database(plan_cache_size=config.get("plan_cache_size", 128))
    return QueryService(
        database,
        workers=config.get("threads", 4),
        deadline_seconds=config.get("deadline_seconds", 30.0),
    )


class _Handler:
    """Dispatches decoded request frames onto the service."""

    def __init__(self, conn, service: QueryService, config: dict):
        self.conn = conn
        self.service = service
        self.config = config
        self._send_lock = threading.Lock()

    def send(self, frame: dict) -> None:
        """Write one frame (serialized against concurrent senders)."""
        with self._send_lock:
            protocol.send_frame(self.conn, frame)

    def hello(self) -> None:
        """Announce readiness: shard id, pid and the owned catalog."""
        import os

        self.send(
            {
                "hello": {
                    "index": self.config["index"],
                    "pid": os.getpid(),
                    "documents": self.service.list_documents(),
                }
            }
        )

    # ---------------------------------------------------------------- ops
    def handle(self, frame: dict) -> None:
        """Run one request frame; every outcome becomes a reply frame."""
        request_id = frame.get("id")
        op = frame.get("op")
        try:
            if op == "query":
                self._query(request_id, frame)
                return
            result = self._unary(op, frame)
        except Exception as exc:
            self.send(protocol.error_frame(request_id, exc))
            return
        self.send({"id": request_id, "result": result})

    def _query(self, request_id: int, frame: dict) -> None:
        """The streaming op: meta frame, chunk frames, done frame."""
        meta, chunks = self.service.execute_stream(
            frame.get("query", ""),
            frame.get("bindings") or {},
            deadline=frame.get("deadline"),
            edge_meta=True,
        )
        edges = meta.pop("_edges", {})
        self.send({"id": request_id, "meta": meta, "edges": edges})
        try:
            for chunk in chunks:
                self.send({"id": request_id, "chunk": chunk})
        except Exception as exc:
            # terminal mid-stream error; the router truncates exactly
            # as the in-process chunked response would
            self.send(protocol.error_frame(request_id, exc))
            return
        self.send({"id": request_id, "done": True})

    def _unary(self, op: str | None, frame: dict):
        service = self.service
        if op == "update":
            return service.execute_update(
                frame.get("query", ""),
                frame.get("bindings") or {},
                deadline=frame.get("deadline"),
            )
        if op == "explain":
            return service.explain(
                frame.get("query", ""), deadline=frame.get("deadline")
            )
        if op == "put_document":
            return service.put_document(frame["uri"], frame["xml"])
        if op == "delete_document":
            return service.delete_document(frame["uri"])
        if op == "set_default":
            service.database.set_default_document(
                frame["uri"], persist=frame.get("persist", False)
            )
            return {"uri": frame["uri"], "default": True}
        if op == "list_documents":
            return service.list_documents()
        if op == "stats":
            return service.stats()
        if op == "health":
            return service.health()
        if op == "checkpoint":
            return service.checkpoint()
        if op == "ping":
            return {"ok": True}
        raise protocol.RemoteError(f"unknown worker op {op!r}", "ValueError", 400)


def worker_main(conn, config: dict) -> None:
    """The child-process entry point: serve frames until EOF/shutdown.

    The worker's lifecycle is connection-driven — the router closing its
    end (crash included) drains and exits the worker — so terminal
    signals are ignored here and coordinated by the router instead.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    service = _build_service(config)
    handler = _Handler(conn, service, config)
    handler.hello()
    pool = ThreadPoolExecutor(
        max_workers=config.get("threads", 4) * 2 + 2,
        thread_name_prefix=f"shard{config['index']}-handler",
    )
    try:
        while True:
            try:
                frame = protocol.recv_frame(conn)
            except (EOFError, OSError):
                break
            if frame.get("op") == "shutdown":
                handler.send({"id": frame.get("id"), "result": {"ok": True}})
                break
            pool.submit(handler.handle, frame)
    finally:
        pool.shutdown(wait=True)
        service.shutdown(wait=True)
        try:
            conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
