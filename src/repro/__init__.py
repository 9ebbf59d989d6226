"""Pathfinder: XQuery — The Relational Way (VLDB 2005), reproduced.

A pure-Python reproduction of the Pathfinder XQuery compiler and its
MonetDB-style relational back-end: XML documents are shredded into the
XPath Accelerator encoding, XQuery is loop-lifted into a DAG of plain
relational operators, axis steps run as staircase joins, and the plan is
evaluated column-at-a-time on numpy.

The one entry point is :func:`repro.connect`::

    import repro

    session = repro.connect()                  # Database + Session
    session.database.load_document("d.xml", "<a><b/></a>")
    prepared = session.prepare(
        "declare variable $n external; /a/b[position() <= $n]"
    )
    result = prepared.execute({"n": 1})        # compile once, bind many

* :func:`repro.connect` / :class:`repro.Database` — documents, arena
  and the shared compile-once plan cache.
* :class:`repro.Session` — per-client settings, variable bindings and
  statistics; ``prepare()`` returns a :class:`repro.PreparedQuery`,
  ``execute()`` a lazily serialising :class:`repro.QueryResult` and
  ``explain()`` an :class:`repro.ExplainReport` of every compilation
  stage.
* :mod:`repro.server` — the HTTP serving subsystem (``python -m repro
  serve``): query sessions, deadlines, hot document management.
* :class:`repro.baseline.interpreter.Interpreter` — the conventional
  nested-loop XQuery interpreter used as the X-Hive-shaped baseline.
* :mod:`repro.xmark` — the XMark benchmark generator and queries.

The API layer is safe for concurrent use: one ``Database`` may be
shared by many sessions on many threads (see
:mod:`repro.api.concurrency` and ``docs/serving.md``).
"""

from repro.api import (
    Database,
    ExplainReport,
    PlanCache,
    PreparedQuery,
    QueryResult,
    Session,
    connect,
)

__version__ = "2.0.0"

__all__ = [
    "connect",
    "Database",
    "Session",
    "PreparedQuery",
    "PlanCache",
    "QueryResult",
    "ExplainReport",
    "__version__",
]
