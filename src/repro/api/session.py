"""The Session layer: one client's execution context over a Database.

A session carries everything that is *per client* rather than per
database: session-level external-variable bindings (defaults for
prepared-query parameters), execution statistics, and two reference
switches, ``use_optimizer`` and ``use_staircase``, that run the same
query unoptimized or on the tree-unaware axis steps.
Several sessions can share one :class:`~repro.api.database.Database` —
they see the same documents and the same plan cache, but their
bindings, stats and switches are independent.

That independence is the concurrency contract of the serving layer:
**sessions share nothing mutable with each other.**  Everything a
session mutates (``variables``, ``stats``) hangs off the session
itself; everything shared (catalog, arena, plan cache) lives in the
Database behind its own locks.  One session per thread therefore needs
no further synchronisation — this is how the HTTP server's query
sessions use the API.

Every plan runs on the column-at-a-time numpy evaluator
(:mod:`repro.relational.evaluate`); :attr:`ExplainReport.mil` renders
the same plan as a MIL program for MonetDB, the paper's relational host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.plan_cache import CompileStep
from repro.api.prepared import PreparedQuery
from repro.errors import PathfinderError
from repro.relational import algebra as alg
from repro.relational.dot import to_ascii, to_dot
from repro.relational.optimizer import OptimizerStats


@dataclass
class ExplainReport:
    """Every stage of the compilation of one query."""

    query: str
    module: object
    core: object
    plan: alg.Op
    optimized: alg.Op
    stats: OptimizerStats

    @property
    def pass_table(self) -> str:
        """Per-pass optimizer statistics as an aligned text table."""
        return self.stats.pass_table()

    @property
    def plan_ascii(self) -> str:
        """The optimized plan as indented text."""
        return to_ascii(self.optimized)

    @property
    def plan_dot(self) -> str:
        """The optimized plan as Graphviz dot."""
        return to_dot(self.optimized, title="optimized plan")

    @property
    def unoptimized_ascii(self) -> str:
        """The loop-lifted plan, before any rewrite, as indented text."""
        return to_ascii(self.plan)

    @property
    def unoptimized_dot(self) -> str:
        """The loop-lifted plan, before any rewrite, as Graphviz dot."""
        return to_dot(self.plan, title="loop-lifted plan")

    @property
    def mil(self) -> str:
        """The optimized plan as a MIL program (the paper's demo artifact:
        'translated into ... a MIL program' shipped to MonetDB)."""
        from repro.compiler.milgen import to_mil

        return to_mil(self.optimized, self.query)


@dataclass
class SessionStats:
    """Per-session execution counters."""

    queries_executed: int = 0
    #: updating queries applied via :meth:`Session.execute_update`
    updates_executed: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: seconds of the compiles and upgrades this session ran
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    #: per optimizer pass: runs, rewrites, compile steps and seconds,
    #: summed over the compiles and upgrades this session ran
    pass_totals: dict = field(default_factory=dict)

    def record(self, step: CompileStep) -> None:
        """Count one compile or upgrade this session ran."""
        self.compile_seconds += step.seconds
        for ps in step.stats.pass_stats:
            slot = self.pass_totals.setdefault(
                ps.name,
                {"runs": 0, "rewrites": 0, "compilations": 0, "seconds": 0.0},
            )
            slot["runs"] += ps.runs
            slot["rewrites"] += ps.rewrites
            slot["compilations"] += 1
            slot["seconds"] += ps.seconds


class Session:
    """Per-client execution context; obtained via ``Database.connect()``
    or ``repro.connect()``."""

    def __init__(
        self,
        database,
        use_staircase: bool = True,
        use_optimizer: bool = True,
    ):
        self.database = database
        self.use_staircase = use_staircase
        self.use_optimizer = use_optimizer
        self.variables: dict[str, object] = {}
        self.stats = SessionStats()

    # ------------------------------------------------------------ bindings
    def set_variable(self, name: str, value) -> None:
        """Bind a session-level default for an external variable.

        Per-execution bindings passed to ``PreparedQuery.execute`` /
        ``Session.execute`` override these.  ``name`` is without the
        leading ``$``.
        """
        self.variables[name.lstrip("$")] = value

    def unset_variable(self, name: str) -> None:
        """Drop a session-level variable binding (no-op when unbound)."""
        self.variables.pop(name.lstrip("$"), None)

    # ------------------------------------------------------------- queries
    def prepare(self, query: str) -> PreparedQuery:
        """Compile a query (through the shared plan cache) into a
        :class:`PreparedQuery` that can be executed many times with
        different external-variable bindings.  Preparing declares reuse,
        so the plan is always the fully optimized one."""
        return self._lookup(query, one_shot=False)

    def _lookup(self, query: str, one_shot: bool) -> PreparedQuery:
        entry, hit, step = self.database.compile_cached(
            query, self.use_optimizer, one_shot=one_shot
        )
        if hit:
            self.stats.plan_cache_hits += 1
        else:
            self.stats.plan_cache_misses += 1
        if step is not None:
            self.stats.record(step)
        return PreparedQuery(self, entry, from_cache=hit)

    def execute(
        self, query: str, bindings: dict | None = None, trace: bool = False,
        *, deadline: float | None = None,
    ):
        """One-shot convenience: look the query up in the plan cache and
        execute it; ``deadline`` bounds the execution, as in
        ``PreparedQuery.execute``.

        A one-shot lookup that misses compiles stage 1 only (the local
        rules, :func:`~repro.relational.optimizer.normalize`); the next
        lookup of the same text runs the global passes on the cached plan
        — see :mod:`repro.api.plan_cache`.  Call :meth:`prepare` for a
        query that will run many times.

        The returned :class:`~repro.api.prepared.QueryResult` serialises
        lazily — call ``result.serialize()`` for the buffered text or
        ``result.iter_serialized()`` to stream it in bounded chunks (the
        HTTP server's chunked ``/query`` path).
        """
        return self._lookup(query, one_shot=True).execute(
            bindings, trace=trace, deadline=deadline
        )

    def execute_update(
        self,
        query: str,
        bindings: dict | None = None,
        deadline: float | None = None,
    ) -> dict:
        """Apply an updating query (XQuery Update Facility subset).

        ``insert node``/``delete node``/``replace (value of) node``/
        ``rename node`` expressions — standalone or inside FLWOR,
        conditionals and sequences — are collected into a pending update
        list and applied atomically under the database's exclusive
        catalog lock, so other sessions (and this one) observe either
        the pre-update or the post-update tree, never a mix.  Affected
        documents get a new epoch; their cached plans stay valid and
        read the new tree — see :mod:`repro.api.plan_cache`.

        ``bindings`` supplies values for ``declare variable $x external``
        declarations (session variables apply too, per-call wins);
        ``deadline`` bounds target/source evaluation in wall-clock
        seconds.  Returns the applied-primitive summary from
        :meth:`~repro.api.database.Database.apply_update`.
        """
        from repro.xquery.core import desugar_module
        from repro.xquery.parser import parse_query

        core = desugar_module(parse_query(query))
        merged = self._merge_bindings(core.external_vars, bindings)
        result = self.database.apply_update(core, merged, deadline=deadline)
        self.stats.updates_executed += 1
        return result

    def explain(self, query: str) -> ExplainReport:
        """Expose every compilation stage of a query (demo hooks).

        The optimized plan and its stats come from the (cache-backed,
        session-stats-tracked) compiled entry; only the unoptimized
        stage — which the cache intentionally does not keep — is
        recompiled.
        """
        from repro.compiler.loop_lifting import Compiler

        with self.database.read_locked():
            entry = self.prepare(query)._entry
            compiler = Compiler(
                self.database.documents, self.database.default_document
            )
            unoptimized = compiler.compile_module(entry.core)
            return ExplainReport(
                query=query,
                module=entry.module,
                core=entry.core,
                plan=unoptimized,
                optimized=entry.plan,
                stats=entry.stats,
            )

    # ------------------------------------------------------------ internals
    def _merge_bindings(
        self, external_vars, bindings: dict | None
    ) -> dict[str, object]:
        """Session defaults overlaid with per-call ``bindings``, checked
        against the query's declared ``external_vars`` — the one binding
        discipline of reads (``PreparedQuery.execute``) and updates."""
        declared = {v.name for v in external_vars}
        merged = {
            name: value
            for name, value in self.variables.items()
            if name in declared
        }
        for name, value in (bindings or {}).items():
            name = name.lstrip("$")
            if name not in declared:
                raise PathfinderError(
                    f"query declares no external variable ${name} "
                    f"(declared: {sorted(declared) or 'none'})"
                )
            merged[name] = value
        return merged
