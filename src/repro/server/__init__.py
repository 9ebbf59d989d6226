"""The serving subsystem: an HTTP query service over the layered API.

MonetDB/XQuery is a *database system*, not a one-shot compiler — this
package is the reproduction's operational surface.  It stacks:

* :class:`~repro.server.service.QueryService` — queries run on the
  caller's thread with one of a fixed set of
  :class:`~repro.api.Session` objects over one shared, thread-safe
  :class:`~repro.api.Database`, under wall-clock deadlines that the
  evaluator checks between operators, with operational counters;
* :class:`~repro.server.cluster.ClusterService` — the same service
  surface scaled out: N worker processes, each a shard-scoped
  QueryService over its partition of the mmap store, with
  scatter-gather query routing;
* :mod:`repro.server.router` — the one HTTP front end, a
  dependency-free asyncio keep-alive server over either service:
  ``POST /query``, ``GET /explain``, ``GET /stats`` and hot document
  management under ``/documents``, with graceful shutdown.

Start it from the shell (``python -m repro serve --xmark 0.002``, add
``--workers 4`` for the cluster) or in process::

    from repro.server import QueryService, serve
    service = QueryService(database, workers=4)
    serve(service, port=8080)

The operations guide lives in ``docs/serving.md``.
"""

from repro.server.cluster import ClusterService
from repro.server.protocol import RemoteError, WorkerUnavailable
from repro.server.router import RouterServer, serve
from repro.server.service import DeadlineExceeded, QueryService

__all__ = [
    "QueryService",
    "ClusterService",
    "DeadlineExceeded",
    "RemoteError",
    "WorkerUnavailable",
    "RouterServer",
    "serve",
]
