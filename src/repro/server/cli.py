"""``python -m repro serve`` — the serving subcommand.

Builds the service ``--workers`` selects — ``0`` (the default): one
:class:`~repro.server.service.QueryService` in this process; ``N``: a
:class:`~repro.server.cluster.ClusterService` over N shard-scoped
worker *processes* — loads ``--xmark``/``--doc`` documents through its
``put_document``, and blocks in :func:`repro.server.router.serve`, the
one HTTP front end, until SIGINT/SIGTERM::

    python -m repro serve --xmark 0.002 --port 8080 --threads 4
    python -m repro serve --doc catalog.xml=path/to.xml --deadline 5
    python -m repro serve --store ./cat --workers 4   # sharded cluster

Tuning knobs (see docs/serving.md): ``--threads`` bounds concurrent
query execution per process, ``--deadline`` is the default per-request
wall-clock budget, and ``--plan-cache`` sizes the shared compile-once
LRU.

``--store DIR`` attaches a persistent document store (docs/storage.md):
documents already persisted under DIR are recovered (mmap + WAL replay)
before any ``--doc``/``--xmark`` load, updates are logged for crash
recovery, and a graceful shutdown checkpoints the log.  Adding
``--page-budget BYTES`` makes that recovery *lazy*: fragments stay
memory-mapped until queried and are evicted LRU past the budget, so the
served catalog may be much larger than RAM.
"""

from __future__ import annotations

import argparse
import sys

from repro.api.database import Database
from repro.errors import PathfinderError


def build_serve_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve XQuery over HTTP (see docs/serving.md)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8080, help="bind port")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="shard the catalog over N worker processes with scatter-"
        "gather routing (0 = execute queries in this process)",
    )
    parser.add_argument(
        "--threads", type=int, default=4, help="query sessions (queries at once) per process"
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="default per-request wall-clock budget",
    )
    parser.add_argument(
        "--plan-cache",
        type=int,
        default=128,
        metavar="N",
        help="capacity of the shared compile-once plan cache",
    )
    parser.add_argument(
        "--doc",
        action="append",
        default=[],
        metavar="URI=PATH",
        help="load an XML document (repeatable; first one is the default)",
    )
    parser.add_argument(
        "--xmark",
        type=float,
        metavar="SCALE",
        help="load a generated XMark instance as 'auction.xml'",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="attach a persistent document store directory (created if "
        "missing; existing documents are recovered before --doc/--xmark)",
    )
    parser.add_argument(
        "--page-budget",
        type=int,
        metavar="BYTES",
        help="resident-column byte budget for lazy mmap paging (requires "
        "--store; fragments over budget are evicted LRU, see "
        "docs/storage.md)",
    )
    return parser


def _build_service(args):
    """The service ``--workers`` selects, over the ``--store`` catalog."""
    if args.workers:
        from repro.server.cluster import ClusterService

        return ClusterService(
            args.workers,
            store=args.store,
            threads=args.threads,
            deadline_seconds=args.deadline,
            plan_cache_size=args.plan_cache,
            page_budget_bytes=args.page_budget,
        )
    from repro.server.service import QueryService

    database = Database(
        plan_cache_size=args.plan_cache,
        store=args.store,
        page_budget_bytes=args.page_budget,
    )
    return QueryService(
        database, workers=args.threads, deadline_seconds=args.deadline
    )


def serve_main(argv: list[str] | None = None, out=None) -> int:
    """Entry point for ``python -m repro serve``."""
    from repro.server.router import serve

    out = out or sys.stdout
    args = build_serve_parser().parse_args(argv)
    if args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    docs = [spec.partition("=") for spec in args.doc]
    for uri, sep, path in docs:
        if not path:
            print(f"bad --doc {uri + sep!r}, expected URI=PATH", file=sys.stderr)
            return 2
    try:
        service = _build_service(args)
    except PathfinderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        recovered = [d["uri"] for d in service.list_documents()]
        if args.store is not None and recovered:
            print(f"recovered from {args.store}: {', '.join(recovered)}", file=out)
        if args.page_budget is not None:
            print(f"paging: budget {args.page_budget} bytes", file=out)
        # put_document replaces: a --doc/--xmark URI that recovery already
        # brought back is swapped, so a restart on a store is idempotent
        if args.xmark is not None:
            from repro.xmark import generate_document

            service.put_document("auction.xml", generate_document(args.xmark))
            print(f"loaded auction.xml (XMark scale {args.xmark})", file=out)
        for uri, _, path in docs:
            with open(path, "r", encoding="utf-8") as handle:
                payload = service.put_document(uri, handle.read())
            print(f"loaded {uri} ({payload['nodes']} nodes)", file=out)
    except (PathfinderError, OSError) as exc:
        service.shutdown(wait=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    where = (
        f"each of {args.workers} worker processes"
        if args.workers
        else "this process"
    )
    print(f"query execution: {args.threads} threads in {where}", file=out)
    serve(service, host=args.host, port=args.port, out=out)
    return 0
