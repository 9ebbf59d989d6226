"""The legacy monolithic engine API, now a thin shim.

.. deprecated::
    :class:`PathfinderEngine` is kept for backward compatibility.  New
    code should use the layered API instead::

        import repro

        session = repro.connect()                       # Database + Session
        session.database.load_document("doc.xml", xml)
        prepared = session.prepare(query)               # compile once
        result = prepared.execute({"x": 42})            # bind + run many times

    The shim delegates everything to a private
    :class:`~repro.api.database.Database` and one
    :class:`~repro.api.session.Session` over it, so ``execute()`` calls
    transparently benefit from the compile-once plan cache.

Usage (legacy)::

    from repro import PathfinderEngine

    engine = PathfinderEngine()
    engine.load_document("auction.xml", xml_text, default=True)
    result = engine.execute('for $p in /site/people/person return $p/name')
    print(result.serialize())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.database import Database
from repro.relational import algebra as alg
from repro.relational.dot import to_ascii, to_dot
from repro.relational.optimizer import OptimizerStats
from repro.relational.table import Table


@dataclass
class QueryResult:
    """The outcome of one query execution (legacy shape: eagerly carries
    the engine; see :class:`repro.api.prepared.QueryResult` for the lazy,
    iterable result the layered API returns)."""

    table: Table
    engine: "PathfinderEngine"
    plan: alg.Op
    compile_seconds: float
    execute_seconds: float
    trace: dict | None = None
    #: the layered result's hold on the arena: the nodes in ``table``
    #: stay readable as long as this result (or a handle from
    #: :meth:`values`) is referenced
    lease: object = None

    def serialize(self) -> str:
        """Result sequence as XML/text (the paper's post-processor)."""
        from repro.compiler.serialize import serialize_result

        return serialize_result(self.table, self.engine.arena)

    def values(self) -> list:
        """Result sequence as Python values (nodes become NodeHandles)."""
        from repro.compiler.serialize import iter_result_values

        return list(iter_result_values(self.table, self.engine.arena, self.lease))


@dataclass
class ExplainReport:
    """Every stage of the compilation of one query."""

    query: str
    module: object
    core: object
    plan: alg.Op
    optimized: alg.Op
    stats: OptimizerStats
    #: planning strategy the optimized plan was compiled under
    optimizer_mode: str = "cost"

    @property
    def pass_table(self) -> str:
        """Per-pass optimizer statistics as an aligned text table."""
        return self.stats.pass_table()

    @property
    def plan_ascii(self) -> str:
        return to_ascii(self.optimized)

    @property
    def plan_dot(self) -> str:
        return to_dot(self.optimized, title="optimized plan")

    @property
    def unoptimized_ascii(self) -> str:
        return to_ascii(self.plan)

    @property
    def unoptimized_dot(self) -> str:
        return to_dot(self.plan, title="loop-lifted plan")

    @property
    def mil(self) -> str:
        """The optimized plan as a MIL program (the paper's demo artifact:
        'translated into ... a MIL program' shipped to MonetDB)."""
        from repro.compiler.milgen import to_mil

        return to_mil(self.optimized, self.query)


class PathfinderEngine:
    """Deprecation shim: one Database + one Session behind the old API."""

    def __init__(
        self,
        use_staircase: bool = True,
        use_optimizer: bool = True,
        use_join_recognition: bool = True,
        database: Database | None = None,
        disabled_passes: frozenset[str] | tuple = frozenset(),
        optimizer_mode: str = "cost",
    ):
        self._db = database if database is not None else Database()
        self._session = self._db.connect(
            use_staircase=use_staircase,
            use_optimizer=use_optimizer,
            use_join_recognition=use_join_recognition,
            disabled_passes=disabled_passes,
            optimizer_mode=optimizer_mode,
        )

    # ---------------------------------------------------------- delegation
    @property
    def database(self) -> Database:
        """The underlying Database (layered API escape hatch)."""
        return self._db

    @property
    def session(self):
        """The underlying Session (layered API escape hatch)."""
        return self._session

    @property
    def arena(self):
        return self._db.arena

    @property
    def documents(self) -> dict[str, int]:
        return self._db.documents

    @property
    def default_document(self) -> str | None:
        return self._db.default_document

    @property
    def use_staircase(self) -> bool:
        return self._session.use_staircase

    @use_staircase.setter
    def use_staircase(self, value: bool) -> None:
        self._session.use_staircase = value

    @property
    def use_optimizer(self) -> bool:
        return self._session.use_optimizer

    @use_optimizer.setter
    def use_optimizer(self, value: bool) -> None:
        self._session.use_optimizer = value

    # ------------------------------------------------------------ documents
    def load_document(self, uri: str, xml_text: str, default: bool = False) -> int:
        """Parse, shred and register a document; returns its node count."""
        return self._db.load_document(uri, xml_text, default=default)

    def storage_report(self):
        """Byte-level storage accounting (Section 3.1 experiment)."""
        return self._db.storage_report()

    # -------------------------------------------------------------- queries
    def compile(self, query: str) -> tuple[alg.Op, OptimizerStats]:
        """Compile (and optionally optimize) a query to an algebra plan.

        Always a fresh front-end run, never a cache lookup — the legacy
        semantics that compile-time benchmarks rely on.  ``execute()`` is
        the plan-cache-backed path.
        """
        entry = self._db.compile_query(
            query,
            self._session.use_optimizer,
            self._session.use_join_recognition,
            self._session.disabled_passes,
            self._session.optimizer_mode,
        )
        return entry.plan, entry.stats

    def execute(self, query: str, trace: bool = False) -> QueryResult:
        """Compile (plan-cache backed) and run a query.

        ``compile_seconds`` keeps its legacy per-call meaning — the time
        *this* call spent obtaining the plan, which is near zero on a
        plan-cache hit.
        """
        import time

        t0 = time.perf_counter()
        prepared = self._session.prepare(query)
        t1 = time.perf_counter()
        result = prepared.execute(trace=trace)
        return QueryResult(
            table=result.table,
            engine=self,
            plan=result.plan,
            compile_seconds=t1 - t0,
            execute_seconds=result.execute_seconds,
            trace=result.trace,
            lease=result.lease,
        )

    def execute_update(self, query: str) -> dict:
        """Apply an updating query (XQuery Update Facility subset); see
        :meth:`repro.api.session.Session.execute_update`."""
        return self._session.execute_update(query)

    def explain(self, query: str) -> ExplainReport:
        """Expose every compilation stage for a query (demo hooks)."""
        return self._session.explain(query)
