"""The router ↔ worker wire protocol: length-prefixed JSON frames.

Workers are separate processes connected to the router by a
:class:`multiprocessing.connection.Connection` pair (a socketpair under
the hood).  ``Connection.send_bytes`` already writes a length-prefixed
frame, so the protocol layer is just a JSON codec plus the error
vocabulary that carries the service's failure semantics — deadline
expiry, shedding, client errors — across the process hop with their
HTTP status intact.

Frame shapes (all JSON objects):

* request: ``{"id": n, "op": name, ...op args}``
* unary response: ``{"id": n, "result": payload}``
* query stream: ``{"id": n, "meta": {...}, "edges": {...}}`` then any
  number of ``{"id": n, "chunk": text}`` then ``{"id": n, "done": true}``
* error: ``{"id": n, "error": msg, "kind": cls, "status": http, "shed": bool}``
  — terminal for its request, including mid-stream (the router
  truncates the HTTP response exactly as the in-process path would).

Every frame carries the request id, so one reader thread per worker can
demultiplex interleaved streams of concurrent requests.
"""

from __future__ import annotations

import json

from repro.errors import PathfinderError
from repro.server.service import DeadlineExceeded


class WorkerUnavailable(PathfinderError):
    """The owning worker is dead (or restarting) — surfaced as HTTP 503."""


class RemoteError(PathfinderError):
    """A worker-side failure reconstructed on the router.

    Carries the original exception class name and the HTTP status the
    worker computed, so an error answered across the process hop is
    byte-identical to the same error raised in process.
    """

    def __init__(self, message: str, kind: str, status: int):
        super().__init__(message)
        self.kind = kind
        self.status = status


def status_for(exc: BaseException) -> int:
    """The HTTP status an exception maps to — the one such mapping,
    used by the router for its responses and by workers for the
    ``status`` of their error frames."""
    if isinstance(exc, DeadlineExceeded):
        return 504
    if isinstance(exc, WorkerUnavailable):
        return 503
    if isinstance(exc, RemoteError):
        return exc.status
    if isinstance(exc, PathfinderError):
        return 404 if "is not loaded" in str(exc) else 400
    if isinstance(exc, (ValueError, json.JSONDecodeError)):
        return 400
    return 500


def send_frame(conn, frame: dict) -> None:
    """Serialize one frame onto a Connection (length-prefixed by mp)."""
    conn.send_bytes(json.dumps(frame, separators=(",", ":")).encode("utf-8"))


def recv_frame(conn) -> dict:
    """Read one frame; raises ``EOFError`` when the peer died."""
    return json.loads(conn.recv_bytes().decode("utf-8"))


def error_frame(request_id: int, exc: BaseException) -> dict:
    """Encode an exception as a terminal error frame for ``request_id``."""
    return {
        "id": request_id,
        "error": str(exc),
        "kind": type(exc).__name__,
        "status": status_for(exc),
        "shed": bool(getattr(exc, "queue_shed", False)),
    }


def raise_remote(frame: dict) -> None:
    """Re-raise a worker's error frame as the matching router exception.

    Deadline expiry becomes a real :class:`DeadlineExceeded` (the HTTP
    layer and the shedding counters key on the type); everything else
    becomes a :class:`RemoteError` carrying the worker's status code.
    """
    status = int(frame.get("status", 500))
    message = frame.get("error", "worker error")
    if status == 504:
        exc = DeadlineExceeded(message)
        exc.queue_shed = bool(frame.get("shed", False))
        raise exc
    raise RemoteError(message, frame.get("kind", "Exception"), status)
