"""Serving throughput: closed-loop HTTP clients vs the worker pool.

The serving claim of the tentpole: the thread-safe Database plus the
``repro.server`` worker pool turn the single-threaded library into a
concurrent service.  This benchmark measures it end to end — the
asyncio HTTP front end on a real socket, driven by N closed-loop client
threads (each waits for its response before sending the next request),
with N matched to the server's worker count so the offered concurrency
equals the service capacity.

Reported per worker count (default sweep 1/2/4/8) and per *connection
mode* — persistent keep-alive (one connection per client, reused for
every request) vs per-request close (a fresh TCP connect each time):
aggregate throughput (requests/second) and the p50/p99 response-time
percentiles.  The mode split isolates the connection-setup tax from
query execution; the keep-alive numbers are what the front end's
persistent connections are designed to preserve.  The plan
cache is warmed before measuring, so the numbers are execution-bound —
what scales is the overlap of socket I/O, serialization and the numpy
kernels that release the GIL.

Run:  python benchmarks/bench_serve.py [scale [seconds [workers,workers,...]]]
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.api.database import Database
from repro.server import QueryService, RouterServer
from repro.xmark import XMARK_QUERIES, generate_document

#: the serving mix: a cheap path count, a selective filter and a
#: mid-sized aggregation — the shape of a read-mostly query workload
BENCH_QUERIES = ("Q1", "Q5", "Q17")

DEFAULT_SCALE = 0.002
DEFAULT_SECONDS = 3.0
DEFAULT_WORKERS = (1, 2, 4, 8)


def run_client(
    port: int,
    queries: list[str],
    stop_at: float,
    latencies: list[float],
    errors: list[BaseException] | None = None,
    persistent: bool = True,
) -> None:
    """One closed-loop client: request, await response, repeat.

    ``persistent=True`` keeps one HTTP connection alive for the whole
    run (the keep-alive mode); ``persistent=False`` pays a fresh TCP
    connect per request, with the connect inside the measured latency.

    Failures are appended to ``errors`` (when given) so the sweep can
    re-raise them — an exception dying with a client thread must not be
    mistaken for a slow server.
    """
    conn = None
    i = 0
    try:
        while time.perf_counter() < stop_at:
            body = json.dumps({"query": queries[i % len(queries)]})
            t0 = time.perf_counter()
            if conn is None:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            conn.request(
                "POST",
                "/query",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            payload = resp.read()
            elapsed = time.perf_counter() - t0
            if resp.status != 200:
                raise RuntimeError(f"HTTP {resp.status}: {payload[:200]!r}")
            latencies.append(elapsed)
            if not persistent:
                conn.close()
                conn = None
            i += 1
    except BaseException as exc:
        if errors is None:
            raise
        errors.append(exc)
    finally:
        if conn is not None:
            conn.close()


def bench_workers(
    database: Database,
    workers: int,
    seconds: float,
    queries: list[str],
    persistent: bool = True,
) -> dict:
    """Throughput + latency percentiles for one worker-pool size."""
    service = QueryService(database, workers=workers, deadline_seconds=120.0)
    server = RouterServer(service)
    _, port = server.start()
    try:
        # warm the plan cache so the sweep measures execution, not compiles
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        for query in queries:
            conn.request("POST", "/query", body=json.dumps({"query": query}))
            conn.getresponse().read()
        conn.close()

        latencies: list[float] = []
        errors: list[BaseException] = []
        stop_at = time.perf_counter() + seconds
        t0 = time.perf_counter()
        clients = [
            threading.Thread(
                target=run_client,
                args=(port, queries, stop_at, latencies, errors, persistent),
            )
            for _ in range(workers)
        ]
        for c in clients:
            c.start()
        for c in clients:
            c.join()
        wall = time.perf_counter() - t0
    finally:
        server.stop(shutdown_service=True)
    if errors:
        raise RuntimeError(
            f"{len(errors)} client(s) failed at {workers} workers"
        ) from errors[0]
    if len(latencies) < 2:
        raise RuntimeError(
            f"only {len(latencies)} request(s) completed at {workers} "
            "workers — run the sweep longer"
        )
    latencies.sort()
    return {
        "workers": workers,
        "connection": "keep-alive" if persistent else "close",
        "requests": len(latencies),
        "seconds": wall,
        "throughput_rps": len(latencies) / wall,
        "p50_ms": statistics.quantiles(latencies, n=100)[49] * 1000,
        "p99_ms": statistics.quantiles(latencies, n=100)[98] * 1000,
    }


def run_serve_bench(
    scale: float = DEFAULT_SCALE,
    seconds: float = DEFAULT_SECONDS,
    worker_counts: tuple[int, ...] = DEFAULT_WORKERS,
    queries: tuple[str, ...] = BENCH_QUERIES,
) -> list[dict]:
    """The full sweep: worker-pool sizes x both connection modes, one
    shared document load."""
    database = Database()
    database.load_document("auction.xml", generate_document(scale))
    texts = [XMARK_QUERIES[name] for name in queries]
    return [
        bench_workers(database, workers, seconds, texts, persistent=persistent)
        for workers in worker_counts
        for persistent in (True, False)
    ]


def report_serve(
    scale: float = DEFAULT_SCALE,
    seconds: float = DEFAULT_SECONDS,
    worker_counts: tuple[int, ...] = DEFAULT_WORKERS,
) -> list[dict]:
    print("\n=== serving: closed-loop clients vs the worker pool ===")
    print(
        f"(XMark scale {scale}, {seconds:g}s per point, clients = workers, "
        f"queries {'+'.join(BENCH_QUERIES)}, warm plan cache, both "
        "connection modes)"
    )
    print(
        f"{'workers':>8} | {'connection':>10} | {'requests':>9} | {'req/s':>9} "
        f"| {'p50 ms':>9} | {'p99 ms':>9}"
    )
    rows = run_serve_bench(scale=scale, seconds=seconds, worker_counts=worker_counts)
    for row in rows:
        print(
            f"{row['workers']:>8} | {row['connection']:>10} "
            f"| {row['requests']:>9} "
            f"| {row['throughput_rps']:>9.1f} | {row['p50_ms']:>9.2f} "
            f"| {row['p99_ms']:>9.2f}"
        )
    return rows


def main(argv: list[str]) -> int:
    scale = float(argv[1]) if len(argv) > 1 else DEFAULT_SCALE
    seconds = float(argv[2]) if len(argv) > 2 else DEFAULT_SECONDS
    workers = (
        tuple(int(w) for w in argv[3].split(","))
        if len(argv) > 3
        else DEFAULT_WORKERS
    )
    report_serve(scale=scale, seconds=seconds, worker_counts=workers)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
