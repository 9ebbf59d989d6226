"""Cluster scaling: the sharded scatter-gather tier vs one process.

The cluster claim: sharding the catalog over N worker *processes* buys
the multi-core scaling a single GIL-bound process cannot, at the price
of one pipe hop per request.
This benchmark measures both sides of that trade end to end — real
HTTP, persistent keep-alive connections, closed-loop clients — against
the same multi-document catalog:

* ``single``      — what ``--workers 0`` serves: one process, one
  :class:`~repro.server.QueryService` thread pool;
* ``cluster @ N`` — :class:`~repro.server.ClusterService` with N
  shard-scoped worker processes;

both behind the same asyncio HTTP front end (``RouterServer``).

The catalog is D small XMark instances under distinct URIs, so the
shard map spreads documents across workers and every query names its
document explicitly (per-document routing, no scatter).  Clients
round-robin the document x query mix; the client count is fixed across
modes, so the sweep compares service capacity at equal offered load.

Speedup is reported vs the ``single`` row.  NOTE: process-level scaling
is bounded by the machine — on a single-core box (``os.cpu_count() == 1``)
the cluster can only tie the single process minus the hop tax; the
JSON row records ``cpu_count`` so readers can interpret the numbers.

Run:  python benchmarks/bench_cluster.py [scale [seconds [workers,...]]]
Emits ``BENCH_cluster.json`` for cross-PR tracking.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.bench_serve import run_client
from repro.api.database import Database
from repro.server import ClusterService, QueryService, RouterServer
from repro.xmark import XMARK_QUERIES, generate_document

#: same serving mix as bench_serve, each rewritten to name its document
BENCH_QUERIES = ("Q1", "Q5", "Q17")

DEFAULT_SCALE = 0.002
DEFAULT_SECONDS = 3.0
DEFAULT_WORKERS = (1, 2, 4)
DEFAULT_DOCS = 4
DEFAULT_JSON = "BENCH_cluster.json"


def doc_queries(uris: list[str]) -> list[str]:
    """The query mix: every (document, query) pair, explicitly routed."""
    texts = []
    for uri in uris:
        for name in BENCH_QUERIES:
            texts.append(
                XMARK_QUERIES[name].replace("/site", f'doc("{uri}")/site', 1)
            )
    return texts


def _drive(port: int, clients: int, seconds: float, queries: list[str]) -> dict:
    """Closed-loop keep-alive clients against whatever listens on port."""
    latencies: list[float] = []
    errors: list[BaseException] = []
    stop_at = time.perf_counter() + seconds
    t0 = time.perf_counter()
    threads = [
        threading.Thread(
            target=run_client,
            args=(port, queries, stop_at, latencies, errors, True),
        )
        for _ in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise RuntimeError(f"{len(errors)} client(s) failed") from errors[0]
    if len(latencies) < 2:
        raise RuntimeError(
            f"only {len(latencies)} request(s) completed — run longer"
        )
    latencies.sort()
    return {
        "requests": len(latencies),
        "seconds": wall,
        "throughput_rps": len(latencies) / wall,
        "p50_ms": statistics.quantiles(latencies, n=100)[49] * 1000,
        "p99_ms": statistics.quantiles(latencies, n=100)[98] * 1000,
    }


def bench_service(
    service, docs: dict[str, str], clients: int, seconds: float,
    queries: list[str],
) -> dict:
    """One point: ``service`` behind the HTTP front end; shuts it down."""
    router = None
    try:
        for uri, text in docs.items():
            service.put_document(uri, text)
        router = RouterServer(service)
        _, port = router.start()
        _drive(port, clients, min(seconds, 1.0), queries)  # warm plan caches
        return _drive(port, clients, seconds, queries)
    finally:
        if router is not None:
            router.stop(shutdown_service=True)
        else:
            service.shutdown(wait=True)


def run_cluster_bench(
    scale: float = DEFAULT_SCALE,
    seconds: float = DEFAULT_SECONDS,
    worker_counts: tuple[int, ...] = DEFAULT_WORKERS,
    documents: int = DEFAULT_DOCS,
    threads: int = 4,
) -> dict:
    """The full sweep: the single-process baseline, then 1..N workers."""
    text = generate_document(scale)
    docs = {f"auction{i}.xml": text for i in range(documents)}
    queries = doc_queries(sorted(docs))
    clients = 2 * max(worker_counts)
    single = QueryService(Database(), workers=threads, deadline_seconds=120.0)
    rows = [
        {
            "mode": "single",
            "workers": 0,
            **bench_service(single, docs, clients, seconds, queries),
        }
    ]
    base_rps = rows[0]["throughput_rps"]
    for workers in worker_counts:
        cluster = ClusterService(
            workers, threads=threads, deadline_seconds=120.0
        )
        rows.append(
            {
                "mode": "cluster",
                "workers": workers,
                **bench_service(cluster, docs, clients, seconds, queries),
            }
        )
    for row in rows:
        row["speedup_vs_single"] = row["throughput_rps"] / base_rps
    return {
        "scale": scale,
        "seconds": seconds,
        "documents": documents,
        "threads_per_worker": threads,
        "clients": clients,
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }


def report_cluster(
    scale: float = DEFAULT_SCALE,
    seconds: float = DEFAULT_SECONDS,
    worker_counts: tuple[int, ...] = DEFAULT_WORKERS,
    json_path: str | None = DEFAULT_JSON,
) -> dict:
    """Print the scaling table and (optionally) emit the JSON payload."""
    print("\n=== cluster: sharded worker processes vs one process ===")
    print(
        f"(XMark scale {scale} x {DEFAULT_DOCS} documents, {seconds:g}s per "
        f"point, keep-alive clients, {os.cpu_count()} CPU(s) visible)"
    )
    payload = run_cluster_bench(
        scale=scale, seconds=seconds, worker_counts=worker_counts
    )
    print(
        f"{'mode':>12} | {'requests':>9} | {'req/s':>9} | {'p50 ms':>9} "
        f"| {'p99 ms':>9} | {'vs single':>9}"
    )
    for row in payload["rows"]:
        mode = row["mode"] if row["mode"] == "single" else (
            f"cluster @ {row['workers']}"
        )
        print(
            f"{mode:>12} | {row['requests']:>9} "
            f"| {row['throughput_rps']:>9.1f} | {row['p50_ms']:>9.2f} "
            f"| {row['p99_ms']:>9.2f} | {row['speedup_vs_single']:>8.2f}x"
        )
    if payload["cpu_count"] == 1:
        print(
            "note: 1 CPU visible — process-level scaling cannot exceed 1x "
            "here; the sweep still validates the routed path end to end"
        )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {json_path}")
    return payload


def main(argv: list[str]) -> int:
    """CLI: scale, seconds-per-point and the worker-count sweep."""
    scale = float(argv[1]) if len(argv) > 1 else DEFAULT_SCALE
    seconds = float(argv[2]) if len(argv) > 2 else DEFAULT_SECONDS
    workers = (
        tuple(int(w) for w in argv[3].split(","))
        if len(argv) > 3
        else DEFAULT_WORKERS
    )
    report_cluster(scale=scale, seconds=seconds, worker_counts=workers)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
