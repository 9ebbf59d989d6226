"""``serve-single`` and ``serve-cluster``: the HTTP client's workloads.

``python -m repro serve`` runs as a subprocess over a persisted catalog
of four XMark documents; two closed-loop keep-alive clients (threads of
this process — each sends its next request only after the previous
response was read in full) replay a seeded request mix.  Queries take
1–10 ms here, so HTTP parsing, the thread-pool hand-off, the plan-cache
hit, parameter binding and chunked serialization are most of the
latency.  ``serve-cluster`` sends the identical traffic through the
asyncio router and two worker processes: the difference between the two
workloads is the router hop and its frame protocol, seen from outside.

A server gets slower as it serves: the parameterised query and Q17
construct nodes, the append-only arena keeps them, and ``serve-single``'s
median latency rose from 6.2 to 8.7 ms over 8000 requests.  The timed
phase is therefore three *segments*, each against a freshly set-up
server (which also gives ``setup_s`` three samples): segments are
identically distributed and each metric is the median of the three.  A
segment is timed in three slices with a calibration kernel run between
them (``perf/speed.py``), while the clients are idle.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import repro

from perf import SRC, inputs, rounds, stats
from perf.common import (
    Config, Outcome, Samples, end_to_end, in_memory, peak_rss_mb, scratch_dir,
)
from perf.speed import Speed

CLIENTS = 2
#: freshly set-up servers per run, and timed slices per server
SEGMENTS = 3
SLICES = 3
#: the slices take this share of ``--seconds``; the rest is for the update
#: rounds and the restart that end every segment
SLICE_SHARE = 0.6
SERVER_ARGS = {
    "serve-single": ["--workers", "0", "--threads", "2"],
    "serve-cluster": ["--workers", "2", "--threads", "1"],
}


# ------------------------------------------------------------------ server
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def group_pids(pgid: int) -> list[int]:
    """Every live process of a process group (the server's tree)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we were listing
        if int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


class Server:
    """A ``repro serve`` subprocess in its own process group, so the
    whole tree (router + workers) can always be swept on the way out."""

    def __init__(self, workload: str, store: str):
        self.port = free_port()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store,
             "--port", str(self.port), *SERVER_ARGS[workload]],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with code {self.proc.returncode}")
            try:
                with Client(self.port) as client:
                    if client.get("/healthz")[0] == 200:
                        return
            except OSError:
                time.sleep(0.005)
        raise RuntimeError("repro serve did not become healthy in time")

    def stats(self) -> dict:
        with Client(self.port) as client:
            return json.loads(client.get("/stats")[1])

    def pids(self) -> list[int]:
        return group_pids(self.proc.pid)

    def stop(self) -> None:
        """Kill the whole process group (its store is scratch)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # everything already exited
        self.proc.wait()


# ------------------------------------------------------------------ client
class Client:
    """A minimal keep-alive HTTP/1.1 client on a raw socket: request
    bytes are prebuilt, so the generator spends little CPU per request."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def get(self, path: str) -> tuple[int, bytes]:
        self.sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: perf\r\n\r\n".encode("ascii"))
        return self.read_response()

    def post(self, request: bytes) -> tuple[int, bytes]:
        self.sock.sendall(request)
        return self.read_response()

    def read_response(self) -> tuple[int, bytes]:
        reader = self.reader
        status_line = reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length, chunked = 0, False
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"transfer-encoding":
                chunked = b"chunked" in value.lower()
        if not chunked:
            return status, reader.read(length)
        parts = []
        while True:
            size = int(reader.readline().split(b";")[0], 16)
            if size == 0:
                reader.readline()
                return status, b"".join(parts)
            parts.append(reader.read(size))
            reader.read(2)


def post_request(path: str, text: str, bindings: dict | None) -> bytes:
    """The bytes of a ``POST /query`` or ``POST /update``."""
    payload = {"query": text}
    if bindings:
        payload["bindings"] = bindings
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: perf\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def query_request(text: str, bindings: dict | None) -> bytes:
    return post_request("/query", text, bindings)


# ----------------------------------------------------------------- catalog
def catalog_documents(cfg: Config) -> dict[str, str]:
    return {
        inputs.serve_uri(k): inputs.document(cfg.scale, cfg.seed + k)
        for k in range(inputs.SERVE_DOCS)
    }


def client_streams(cfg: Config) -> list:
    return [inputs.request_stream(cfg.seed, c, cfg.scale)
            for c in range(CLIENTS)]


def request_key(text: str, bindings: dict | None) -> tuple:
    return text, bindings["id"] if bindings else None


def build_catalog(cfg: Config, store: str) -> tuple[dict[str, str], float]:
    """Generate the four documents and persist them; returns the texts
    and stored bytes per XML byte."""
    docs = catalog_documents(cfg)
    database = repro.connect(store=store).database
    for uri, text in docs.items():
        database.load_document(uri, text)
    database.checkpoint()
    xml_bytes = sum(len(t.encode("utf-8")) for t in docs.values())
    return docs, database.store_status()["fragment_bytes"] / xml_bytes


def warmup_requests() -> list[bytes]:
    """Every distinct query text once, so the plan caches are hot."""
    out = []
    for k in range(inputs.SERVE_DOCS):
        uri = inputs.serve_uri(k)
        for name in inputs.SERVE_CHEAP + (inputs.SERVE_LARGE,):
            out.append(query_request(inputs.on_document(name, uri), None))
        out.append(query_request(
            inputs.PARAM_QUERY.format(uri=uri), {"id": "person0"}))
    return out


class Library:
    """The reference: the same documents in an in-memory Database,
    answering each distinct (query, bindings) once."""

    def __init__(self, docs: dict[str, str]):
        self.session = in_memory(docs).connect()
        self.cache: dict[tuple, str] = {}

    def result(self, text: str, bindings: dict | None) -> str:
        key = request_key(text, bindings)
        if key not in self.cache:
            self.cache[key] = self.session.execute(text, bindings).serialize()
        return self.cache[key]


def start_server(cfg: Config, store: str) -> tuple[Server, float]:
    """Spawn ``repro serve`` on ``store``; returns it with the seconds
    from the spawn to its first Q1 answer."""
    t0 = time.perf_counter()
    server = Server(cfg.workload, store)
    try:
        server.wait_ready()
        with Client(server.port) as client:
            status, _ = client.post(query_request(
                inputs.on_document("Q1", inputs.serve_uri(0)), None))
        if status != 200:
            raise RuntimeError(f"first query returned {status}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


@contextmanager
def serving(cfg: Config, store: str, samples: Samples, speed: Speed):
    """One complete, timed set-up — generate, persist, spawn,
    ``/healthz``, first Q1, warm-up — whose server is killed on exit.
    Yields ``(server, docs, stored bytes per XML byte)``."""
    speed.start()
    t0 = time.perf_counter()
    docs, ratio = build_catalog(cfg, store)
    server, reopened = start_server(cfg, store)
    try:
        with Client(server.port) as client:
            for request in warmup_requests():
                client.post(request)
        seconds = time.perf_counter() - t0
        _, factor = speed.stop()
        samples.setups.append(seconds * factor)
        samples.reopens.append(reopened * factor)
        yield server, docs, ratio
    finally:
        server.stop()


def restart(cfg: Config, store: str, samples: Samples, speed: Speed) -> None:
    """A killed server's store reopened (its WAL holds the segment's
    updates): one more ``reopen_first_query_ms`` sample."""
    speed.start()
    server, reopened = start_server(cfg, store)
    _, factor = speed.stop()
    server.stop()
    samples.reopens.append(reopened * factor)


# ------------------------------------------------------------------- drive
def client_loop(port, stream, stop_at, records, blocks, errors):
    """One closed-loop client: send, read the full body, repeat — in
    whole blocks of ``SERVE_BLOCK`` requests, so every block timed is
    one of the stream's equal-work blocks."""
    requests: dict[tuple, bytes] = {}
    try:
        with Client(port) as client:
            while time.perf_counter() < stop_at:
                block_start = time.perf_counter()
                for _ in range(inputs.SERVE_BLOCK):
                    kind, text, bindings = next(stream)
                    key = request_key(text, bindings)
                    request = requests.get(key)
                    if request is None:
                        request = requests[key] = query_request(text, bindings)
                    t0 = time.perf_counter()
                    status, body = client.post(request)
                    records.append((kind, text, bindings,
                                    time.perf_counter() - t0, status, body))
                blocks.append(time.perf_counter() - block_start)
    except (OSError, ValueError) as exc:
        errors.append(exc)


def drive(port: int, streams, seconds: float):
    """One slice: all clients start together and run for ``seconds``
    (each finishes the block it is in).  Returns ``(records per client,
    block times, wall, generator cpu)``."""
    records = [[] for _ in streams]
    blocks: list[float] = []
    errors: list[BaseException] = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    threads = [
        threading.Thread(
            target=client_loop,
            args=(port, stream, t0 + seconds, recs, blocks, errors),
        )
        for stream, recs in zip(streams, records)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    if errors:
        raise RuntimeError(f"{len(errors)} client(s) lost their connection") \
            from errors[0]
    return records, blocks, wall, time.process_time() - cpu0


def check(records, library: Library, samples: Samples, batch: int) -> None:
    """Fold one segment's records into batch ``batch`` of ``samples``: a
    response counts when it is a 200 whose result equals the library's
    output."""
    for kind, text, bindings, latency, status, body in records:
        samples.add(kind, latency)
        samples.batches[batch].append(latency)
        ok = status == 200
        if ok:
            ok = json.loads(body)["result"] == library.result(text, bindings)
        samples.count(ok, batch)


def timed_segment(port: int, streams, seconds: float, speed: Speed,
                  samples: Samples) -> list:
    """One server's segment in ``SLICES`` slices, as a new batch of
    ``samples``; returns its records with speed-corrected latencies."""
    corrected = []
    samples.batches.append([])
    samples.batch_seconds.append(0.0)
    for _ in range(SLICES):
        speed.start()
        records, blocks, wall, _cpu = drive(port, streams, seconds / SLICES)
        _, factor = speed.stop()
        samples.passes.extend(b * factor for b in blocks)
        samples.batch_seconds[-1] += wall * factor
        corrected.extend(
            (kind, text, bindings, latency * factor, status, body)
            for recs in records
            for kind, text, bindings, latency, status, body in recs)
    return corrected


def segment_rounds(cfg: Config):
    """The update rounds that end every segment (the same in each)."""
    return (
        inputs.update_rounds(
            cfg.seed, cfg.scale, inputs.SEGMENT_ROUNDS, inputs.serve_uri(0)),
        inputs.round_reads(inputs.SEGMENT_ROUNDS),
    )


def update_rounds(port: int, cfg: Config, speed: Speed):
    """``SEGMENT_ROUNDS`` rounds of {``POST /update`` + 2 ``POST
    /query``} on the first catalog document, one client.  Returns the
    round log and its speed factor."""
    uri = inputs.serve_uri(0)
    with Client(port) as client:
        def apply_update(text: str) -> dict | None:
            status, body = client.post(post_request("/update", text, None))
            return json.loads(body).get("applied") if status == 200 else None

        def read(name: str) -> str | None:
            status, body = client.post(
                query_request(inputs.on_document(name, uri), None))
            return json.loads(body)["result"] if status == 200 else None

        speed.start()
        log = rounds.run_rounds(apply_update, read, *segment_rounds(cfg))
        _, factor = speed.stop()
    return log, factor


def check_rounds(logs, cfg: Config, library: Library,
                 samples: Samples) -> None:
    """The segments' round times into ``samples``; their outputs must
    equal those of the same rounds run on the library's documents."""
    uri = inputs.serve_uri(0)
    expected = rounds.run_rounds(
        *rounds.library_calls(
            library.session, lambda name: inputs.on_document(name, uri)),
        *segment_rounds(cfg))
    for log, factor in logs:
        samples.updates.extend(s * factor for s in log.update_seconds)
        samples.reads_after_update.extend(
            s * factor for _, _, s, _ in log.reads)
        for ok in log.applied_ok:
            samples.count(ok)
        for (_, _, _, got), (_, _, _, want) in zip(log.reads, expected.reads):
            samples.count(got is not None and got == want)


def run(cfg: Config) -> Outcome:
    speed = Speed()
    samples = Samples()
    segments, round_logs, rss, deltas = [], [], [], []
    streams = client_streams(cfg)
    with scratch_dir(f"{cfg.workload}-") as tmp:
        for i in range(SEGMENTS):
            store = os.path.join(tmp, f"store{i}")
            with serving(cfg, store, samples, speed) as (server, docs, ratio):
                before = server.stats()
                segments.append(timed_segment(
                    server.port, streams,
                    cfg.seconds * SLICE_SHARE / SEGMENTS, speed, samples))
                deltas.append(server_counter_deltas(before, server.stats()))
                round_logs.append(update_rounds(server.port, cfg, speed))
                rss.append(peak_rss_mb(server.pids()))
            restart(cfg, store, samples, speed)
    library = Library(docs)
    for batch, records in enumerate(segments):
        check(records, library, samples, batch)
    check_rounds(round_logs, cfg, library, samples)  # updates the library
    return Outcome(
        metrics=end_to_end(samples, stats.median(rss), ratio),
        attempted=samples.attempted,
        failed=samples.failed,
        info={
            "scale": cfg.scale,
            "documents": len(docs),
            "xml_bytes": sum(len(t.encode("utf-8")) for t in docs.values()),
            "clients": CLIENTS,
            "segments": f"{SEGMENTS} fresh servers x {SLICES} slices",
            "requests": sum(len(r) for r in segments),
            "oracle": "library output for the same (query, bindings)",
            "speed_factor": speed.summary(),
        },
        extras={
            name: (sum(d[name][0] for d in deltas), "count")
            for name in deltas[0]
        },
    )


def counter(payload: dict, *path) -> float:
    for key in path:
        payload = payload.get(key, {}) if isinstance(payload, dict) else {}
    return float(payload) if isinstance(payload, (int, float)) else 0.0


def server_counter_deltas(before: dict, after: dict) -> dict:
    """Deltas of the ``GET /stats`` counters across the timed phase."""
    paths = {
        "server.service.queue_shed": ("shed",),
        "server.service.deadline_exceeded": ("timeouts",),
        "server.service.errors": ("errors",),
        "server.cluster.respawns": ("router", "worker_restarts"),
    }
    return {
        name: (counter(after, *path) - counter(before, *path), "count")
        for name, path in paths.items()
    }
