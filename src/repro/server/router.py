"""The HTTP front end: one asyncio router, keep-alive, chunked results.

One event loop owns every socket, so thousands of keep-alive
connections cost file descriptors, not threads.  Blocking service calls
(query execution, admin ops) hop onto a thread pool via
``run_in_executor`` — the event loop itself never blocks on a query.
An in-process service runs the query on that very thread; there is no
second hand-off.

The router serves whatever implements the service surface
(``execute_stream``, ``execute_update``, ``explain``,
``list_documents``, ``put_document``, ``delete_document``,
``checkpoint``, ``health``, ``stats``, ``shutdown``,
``deadline_seconds``): an in-process
:class:`~repro.server.service.QueryService` for ``--workers 0`` or a
:class:`~repro.server.cluster.ClusterService` fanning out to worker
processes.  It never asks which one it has, so clients cannot tell
which tier answered — ``tests/test_cluster.py`` holds the two
byte-identical behind this one front end.

Endpoints (all JSON unless noted):

=======  =====================  ===========================================
method   path                   behaviour
=======  =====================  ===========================================
POST     ``/query``             ``{"query": ..., "bindings": {...},
                                "deadline": secs}`` → serialized result,
                                streamed as a chunked-transfer response
POST     ``/update``            same body shape, updating query →
                                applied-primitive counts + new epochs
POST     ``/checkpoint``        fold the store's WAL into fragment
                                files (400 when no store is attached)
GET      ``/explain``           ``?q=<query>`` → plan stages + pass stats
GET      ``/documents``         catalog listing (uri, nodes, epoch, default)
PUT      ``/documents/<uri>``   body = XML; load or hot-replace
DELETE   ``/documents/<uri>``   unload
GET      ``/stats``             operational counters (see QueryService)
GET      ``/healthz``           ``service.health()`` (also plain ``/``);
                                503 when it reports ``"ok": false``
=======  =====================  ===========================================

Errors map onto status codes through
:func:`repro.server.protocol.status_for`: compile/static errors and
malformed requests are 400, unknown documents 404, an unavailable
worker 503, deadline expiry 504, anything unexpected 500.  Every error
body is ``{"error": message, "kind": exception class}``.  A request
whose framing the router cannot follow (bad ``Content-Length``, a
chunked request body, an oversized body) is answered 400 and the
connection closed, so body bytes are never parsed as a request line.

Graceful shutdown (SIGINT/SIGTERM): stop accepting, close connections
that are between requests, let responses in flight finish, then
``service.shutdown`` — which waits for the requests still holding a
session (and, for a cluster, drains every worker process) and
checkpoints the store — before :func:`serve` returns.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs, unquote, urlparse

from repro.errors import PathfinderError
from repro.server.protocol import status_for

#: request bodies above this size are rejected (64 MiB — a scale-0.1
#: XMark document is ~11 MiB, so hot reloads fit with headroom)
MAX_BODY_BYTES = 64 * 1024 * 1024

#: an idle keep-alive connection is closed after this many seconds
IDLE_TIMEOUT = 10.0

#: serialized result text is pulled off the service and written to the
#: socket in pieces of about this size: one thread hand-off per piece,
#: not per serializer chunk
STREAM_BATCH_BYTES = 64 * 1024

#: threads for blocking service calls.  A request holds one while the
#: service runs it or it waits there for a session, so this bounds the
#: requests that can wait *inside* the service — where their deadlines
#: shed them — rather than in front of it, where nothing would
SERVICE_CALL_THREADS = 64

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _error_body(exc: BaseException) -> dict:
    # a RemoteError carries the worker-side class name, so an error
    # raised behind the process hop reads like one raised in process
    kind = getattr(exc, "kind", None) or type(exc).__name__
    return {"error": str(exc), "kind": kind}


def _parse_head(head: bytes) -> tuple[str, str, bool, dict, int]:
    """Request line + headers → (method, target, keep-alive?, headers,
    body length); raises on framing the router cannot follow."""
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except ValueError:
        raise PathfinderError("malformed request line") from None
    headers = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if colon:
            headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise PathfinderError(
            "request bodies with a Transfer-Encoding are not supported; "
            "send a Content-Length"
        )
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError:
        length = -1
    if length < 0:
        raise PathfinderError(
            f"bad Content-Length {headers['content-length']!r}"
        )
    if length > MAX_BODY_BYTES:
        raise PathfinderError(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    keep_alive = (
        version != "HTTP/1.0"
        and headers.get("connection", "").lower() != "close"
    )
    return method, target, keep_alive, headers, length


def _query_body(body: bytes) -> tuple[str, dict, object]:
    """Validate a ``/query``-shaped JSON body → (query, bindings,
    deadline); shared by the ``/query`` and ``/update`` routes."""
    payload = json.loads(body or b"{}")
    query = payload.get("query") if isinstance(payload, dict) else None
    if not isinstance(query, str) or not query.strip():
        raise PathfinderError(
            'the request body needs a non-empty "query" string field'
        )
    bindings = payload.get("bindings") or {}
    if not isinstance(bindings, dict):
        raise PathfinderError('"bindings" must be a JSON object')
    return query, bindings, payload.get("deadline")


def _pull_batch(chunks) -> tuple[bytes, bool]:
    """The next ~``STREAM_BATCH_BYTES`` of a result stream, escaped for
    the inside of a JSON string; returns (bytes, stream exhausted?).

    ``json.dumps`` escapes characterwise, so escaping each chunk
    separately concatenates to exactly the buffered encoding.
    """
    parts, size = [], 0
    for chunk in chunks:
        piece = json.dumps(chunk)[1:-1].encode("utf-8")
        parts.append(piece)
        size += len(piece)
        if size >= STREAM_BATCH_BYTES:
            return b"".join(parts), False
    return b"".join(parts), True


class Router:
    """The asyncio protocol engine behind :class:`RouterServer`."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self.address: tuple | None = None
        self._tasks: set = set()
        #: connection tasks parked between requests (⊆ ``_tasks``)
        self._idle: set = set()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=SERVICE_CALL_THREADS, thread_name_prefix="repro-http"
        )

    # ------------------------------------------------------------ lifecycle
    async def run(self, ready: "threading.Event | None" = None) -> None:
        """Serve until :meth:`request_stop`; then drain connections."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._client_connected, self.host, self.port
            )
            self.address = server.sockets[0].getsockname()[:2]
            if ready is not None:
                ready.set()
            await self._stop.wait()
            server.close()
            # the accept loop is closed.  Connections between requests
            # have nothing to finish; responses in flight get as long
            # as the service lets a request run
            for task in list(self._idle):
                task.cancel()
            if self._tasks:
                await asyncio.wait(
                    list(self._tasks),
                    timeout=self.service.deadline_seconds + 1.0,
                )
            for task in list(self._tasks):
                task.cancel()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            await server.wait_closed()
        finally:
            self._executor.shutdown(wait=False)

    def request_stop(self) -> None:
        """Thread-safe stop signal (the loop may live on another thread)."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)

    async def _call(self, fn, *args):
        """Run one blocking service call on the router's thread pool."""
        return await self._loop.run_in_executor(self._executor, fn, *args)

    # ---------------------------------------------------------- connections
    def _client_connected(self, reader, writer) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve_connection(self, reader, writer) -> None:
        """One keep-alive connection: request loop until close/idle."""
        task = asyncio.current_task()
        try:
            # a stop that lands while a response is being written cannot
            # cancel this task as idle, so it is tested again afterwards
            while not self._stop.is_set():
                self._idle.add(task)
                # closing the transport ends the read below with EOF
                idle_timer = self._loop.call_later(IDLE_TIMEOUT, writer.close)
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    ConnectionError,
                ):
                    return
                finally:
                    idle_timer.cancel()
                    self._idle.discard(task)
                keep_alive = await self._serve_request(head, reader, writer)
                if not keep_alive:
                    return
        except (
            ConnectionError,
            asyncio.IncompleteReadError,  # the client left mid-body
            asyncio.CancelledError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(self, head: bytes, reader, writer) -> bool:
        """Read, route and answer one request; returns keep-alive?"""
        try:
            method, target, keep_alive, headers, length = _parse_head(head)
        except PathfinderError as exc:
            # where this request ends is unknown (or its body refused),
            # so the stream cannot be followed past the answer
            await self._json(writer, 400, _error_body(exc), keep_alive=False)
            return False
        if length and headers.get("expect", "").lower() == "100-continue":
            # the client (curl, for any body over 1 KiB) holds the body
            # back until told the head was acceptable
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = await reader.readexactly(length) if length else b""
        url = urlparse(target)
        try:
            if method == "POST" and url.path == "/query":
                return await self._query(body, writer, keep_alive)
            status, payload = await self._route(method, url, body)
        except Exception as exc:
            status, payload = status_for(exc), _error_body(exc)
        await self._json(writer, status, payload, keep_alive)
        return keep_alive

    # -------------------------------------------------------------- routing
    async def _route(self, method, url, body) -> tuple[int, dict]:
        """Every route but ``POST /query`` → (status, JSON payload)."""
        service = self.service
        path = url.path
        if method == "GET":
            if path in ("/", "/healthz"):
                health = await self._call(service.health)
                return (200 if health.get("ok") else 503), health
            if path == "/stats":
                return 200, await self._call(service.stats)
            if path == "/documents":
                return 200, {
                    "documents": await self._call(service.list_documents)
                }
            if path == "/explain":
                params = parse_qs(url.query)
                query = (params.get("q") or params.get("query") or [""])[0]
                if not query:
                    raise PathfinderError("pass the query as ?q=<xquery>")
                return 200, await self._call(service.explain, query)
        elif method == "POST":
            if path == "/update":
                return 200, await self._call(
                    service.execute_update, *_query_body(body)
                )
            if path == "/checkpoint":
                return 200, await self._call(service.checkpoint)
        elif method in ("PUT", "DELETE"):
            prefix = "/documents/"
            if not path.startswith(prefix) or len(path) == len(prefix):
                return 404, {"error": "expected /documents/<name>"}
            uri = unquote(path[len(prefix):])
            if method == "DELETE":
                return 200, await self._call(service.delete_document, uri)
            xml_text = body.decode("utf-8")
            if not xml_text.strip():
                raise PathfinderError(
                    "the request body must be the XML document"
                )
            return 200, await self._call(service.put_document, uri, xml_text)
        return 404, {"error": f"no route {method} {path}"}

    def _start_stream(self, body: bytes) -> tuple[dict, object, bytes, bool]:
        """Blocking half of ``POST /query``: execute, then serialize the
        first batch — one thread hand-off for both."""
        meta, chunks = self.service.execute_stream(*_query_body(body))
        chunks = iter(chunks)
        return (meta, chunks, *_pull_batch(chunks))

    async def _query(self, body, writer, keep_alive) -> bool:
        """``POST /query`` with a chunked-transfer response.

        The service compiles and executes under its deadline discipline;
        the serialized result then streams from the arena scan onto the
        socket batch by batch — byte-identical to ``json.dumps`` of the
        buffered payload, but no in-flight request ever assembles a
        multi-MB result string.  The first batch is pulled before the
        200 is committed, so a budget already spent (or an immediate
        serialization failure) still gets its proper status line; only
        a failure after that can truncate a response.
        """
        meta, chunks, data, exhausted = await self._call(
            self._start_stream, body
        )
        connection = "keep-alive" if keep_alive else "close"
        # a batch goes to the socket in one write: head, result text and
        # tail of a small result leave as one segment, not four
        out = [
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/json\r\n"
                "Transfer-Encoding: chunked\r\n"
                f"Connection: {connection}\r\n\r\n"
            ).encode("latin-1")
        ]

        def send_chunk(data: bytes) -> None:
            if data:  # a zero-length chunk would terminate the stream
                out.append(b"%X\r\n%s\r\n" % (len(data), data))

        send_chunk(b'{"result": "' + data)
        while not exhausted:
            writer.write(b"".join(out))
            out.clear()
            await writer.drain()
            try:
                data, exhausted = await self._call(_pull_batch, chunks)
            except Exception:
                # mid-stream failure: the response can only be truncated —
                # close the connection rather than desync the stream
                return False
            send_chunk(data)
        tail = '", ' + json.dumps(meta)[1:]
        send_chunk(tail.encode("utf-8"))
        out.append(b"0\r\n\r\n")
        writer.write(b"".join(out))
        await writer.drain()
        return keep_alive

    async def _json(
        self, writer, status: int, payload: dict, keep_alive: bool
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        writer.write(
            (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {connection}\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()


class RouterServer:
    """The router on a background thread — the test/CLI harness.

    ``start()`` spins up the event loop thread and blocks until the
    socket listens (returning the bound address, for ``port=0``);
    ``stop()`` runs the graceful sequence: stop accepting, drain
    connections, then (optionally) shut the service — which waits for
    its in-flight requests or drains its worker processes — before
    returning.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.router = Router(service, host, port)
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple | None:
        """The bound ``(host, port)`` once :meth:`start` returned."""
        return self.router.address

    def start(self) -> tuple:
        """Start the loop thread; returns the bound address."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.router.run(ready=self._ready)),
            daemon=True,
            name="repro-router",
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise PathfinderError("the router failed to start listening")
        return self.router.address

    def stop(self, shutdown_service: bool = True) -> None:
        """Graceful stop; shuts the service down too when asked."""
        if self._thread is not None:  # a second stop finds no loop to stop
            self.router.request_stop()
            self._thread.join(timeout=self.service.deadline_seconds + 15.0)
            self._thread = None
        if shutdown_service:
            self.service.shutdown(wait=True)


def serve(
    service,
    host: str = "127.0.0.1",
    port: int = 8080,
    install_signal_handlers: bool = True,
    ready: threading.Event | None = None,
    out=None,
) -> None:
    """Blocking entry point: serve until SIGINT/SIGTERM, then drain.

    The shutdown order is the graceful contract: close the listening
    socket, finish in-flight responses, then ``service.shutdown`` —
    which waits for the requests still holding a session (for a
    :class:`~repro.server.cluster.ClusterService`: drains every worker
    process) and checkpoints the store — before returning.  ``ready``
    (if given) is set once the socket is listening.
    """
    server = RouterServer(service, host, port)
    address = server.start()
    stop = threading.Event()

    def request_shutdown(signum, frame):  # pragma: no cover - signal path
        stop.set()

    if install_signal_handlers:  # pragma: no cover - exercised via CLI
        signal.signal(signal.SIGINT, request_shutdown)
        signal.signal(signal.SIGTERM, request_shutdown)
    if out is not None:
        print(
            f"serving on http://{address[0]}:{address[1]} "
            f"({service.deadline_seconds:g}s deadline)",
            file=out,
            flush=True,
        )
    if ready is not None:
        ready.set()
    try:
        stop.wait()
    finally:
        server.stop(shutdown_service=True)
