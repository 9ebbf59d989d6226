"""PreparedQuery and the lazily-serializing QueryResult.

A :class:`PreparedQuery` is a handle on one cached plan: compile once,
execute many times.  Each execution resolves the query's external
variables (``declare variable $x external``) from the merge of the
session's variables and the per-call bindings, evaluates the shared
plan DAG and wraps the result table in a :class:`QueryResult` that
serialises on demand, streams the text form in bounded chunks
(:meth:`QueryResult.iter_serialized`) and supports the iterator protocol
for streaming large sequences value by value.
"""

from __future__ import annotations

import time

from repro.compiler.serialize import (
    DEFAULT_CHUNK_CHARS,
    iter_result_values,
    iter_serialized_chunks,
)
from repro.errors import ResultClosedError
from repro.relational.evaluate import EvalContext, evaluate
from repro.relational.items import K_ATTR, K_NODE


class QueryResult:
    """The outcome of one query execution.

    Serialisation is lazy (and cached): iterating or ``len()`` never
    builds the XML text, and ``serialize()`` runs the post-processor at
    most once.

    The result owns ``lease``, the hold on the arena
    (:meth:`~repro.encoding.arena.NodeArena.page_scope`) that keeps the
    nodes it references — document rows and the fragments this execution
    constructed — from being popped.  The lease is shared with every
    :class:`~repro.compiler.serialize.NodeHandle` the result hands out
    and released by :meth:`close`, by leaving a ``with`` block, or when
    the last of them is garbage (CPython refcounting; a result that has
    no node item needs none and drops it at once).  After an explicit
    close, serializing (unless the text is already cached) or iterating
    raises :class:`~repro.errors.ResultClosedError`.
    """

    def __init__(
        self,
        table,
        arena,
        plan,
        compile_seconds: float,
        execute_seconds: float,
        from_cache: bool = False,
        trace: dict | None = None,
        lease=None,
        parameters: tuple = (),
    ):
        self.table = table
        self.arena = arena
        self.plan = plan
        self.compile_seconds = compile_seconds
        self.execute_seconds = execute_seconds
        self.from_cache = from_cache
        self.trace = trace
        #: the query's declared external variables (name + optional type)
        self.parameters = parameters
        self._serialized: str | None = None
        #: whether :meth:`close` ran (explicitly or by a ``with`` exit)
        self.closed = False
        if lease is not None:
            kinds = table.item("item").kinds
            if not ((kinds == K_NODE) | (kinds == K_ATTR)).any():
                lease.close()  # only atomic values: nothing to keep alive
                lease = None
        self.lease = lease

    def close(self) -> None:
        """Release the result's lease on the arena; idempotent."""
        self.closed = True
        if self.lease is not None:
            self.lease.close()

    def __enter__(self) -> "QueryResult":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise ResultClosedError("this QueryResult was closed")

    def serialize(self) -> str:
        """Result sequence as XML/text (the paper's post-processor)."""
        if self._serialized is None:
            self._serialized = "".join(self.iter_serialized())
        return self._serialized

    def iter_serialized(self, chunk_chars: int = DEFAULT_CHUNK_CHARS):
        """Stream the serialized result in bounded-size text chunks.

        The chunks concatenate to exactly :meth:`serialize`'s output but
        the full string is never assembled — this is what the HTTP
        layer's chunked ``/query`` responses iterate.  When
        :meth:`serialize` already ran (and cached), its string is yielded
        whole rather than re-serialised.
        """
        if self._serialized is not None:
            if self._serialized:
                yield self._serialized
            return
        self._check_open()
        yield from iter_serialized_chunks(
            self.table, self.arena, chunk_chars=chunk_chars
        )

    def values(self) -> list:
        """Result sequence as Python values (nodes become NodeHandles)."""
        return list(self)

    def __len__(self) -> int:
        return self.table.num_rows

    def __bool__(self) -> bool:
        """Always truthy: a QueryResult is an outcome, not a container —
        an empty result sequence is still a successful execution."""
        return True

    def __iter__(self):
        """Stream the result sequence value by value in sequence order."""
        self._check_open()
        return iter_result_values(self.table, self.arena, self.lease)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryResult({len(self)} items, cached_plan={self.from_cache}, "
            f"compile={self.compile_seconds * 1000:.2f}ms, "
            f"execute={self.execute_seconds * 1000:.2f}ms)"
        )


class PreparedQuery:
    """A compiled query bound to a session; execute it many times with
    different external-variable bindings — compilation is never repeated."""

    def __init__(self, session, entry, from_cache: bool):
        self.session = session
        self._entry = entry
        self.from_cache = from_cache

    @property
    def query(self) -> str:
        """The original query text this plan was compiled from."""
        return self._entry.query

    @property
    def plan(self):
        """The optimized algebra plan DAG (immutable, shareable)."""
        return self._entry.plan

    @property
    def optimizer_stats(self):
        """Per-pass :class:`~repro.relational.optimizer.OptimizerStats`
        recorded when this plan was compiled."""
        return self._entry.stats

    @property
    def parameters(self) -> tuple:
        """The declared external variables (name + optional type)."""
        return self._entry.external_vars

    @property
    def compile_seconds(self) -> float:
        """Time the (possibly cached) compilation took originally."""
        return self._entry.compile_seconds

    def _revalidate(self) -> None:
        """Recompile (through the cache) when a document this plan reads
        was unloaded, or the default document changed, since preparation
        — the plan cache's validity rule
        (:meth:`~repro.api.plan_cache.CachedPlan.is_current`); updates
        and replaces keep the plan, which reads the new tree."""
        database = self.session.database
        if self._entry.is_current(database.documents, database.default_document):
            return
        fresh = self.session.prepare(self._entry.query)
        self._entry = fresh._entry
        self.from_cache = fresh.from_cache

    def execute(
        self, bindings: dict | None = None, trace: bool = False, *,
        deadline: float | None = None, **params,
    ) -> QueryResult:
        """Evaluate the plan with the given external-variable bindings.

        Bindings merge, later wins: session variables, then the
        ``bindings`` dict, then keyword arguments.  Binding a name the
        query does not declare raises :class:`PathfinderError`; an
        external ``$trace`` or ``$deadline`` is bound through the dict.

        ``deadline`` bounds the execution in seconds from this call, as
        in ``Session.execute_update``: the evaluator checks it between
        operators and raises :class:`~repro.errors.DeadlineExceeded`.

        The whole execution holds the Database's catalog lock shared, so
        a concurrent hot replace waits rather than swapping a document
        mid-query.

        The read lock's page scope is the execution's lease on the
        arena; the returned result takes its own before that one closes,
        so the nodes this execution constructs live exactly as long as
        the result (and the handles it hands out) can reach them.
        """
        expiry = None if deadline is None else time.monotonic() + deadline
        session = self.session
        database = session.database
        with database.read_locked():
            self._revalidate()
            merged = session._merge_bindings(
                self._entry.external_vars, {**(bindings or {}), **params}
            )
            trace_map: dict | None = {} if trace else None
            t0 = time.perf_counter()
            ctx = EvalContext(
                database.arena,
                documents=database.documents,
                trace=trace_map,
                use_staircase=session.use_staircase,
                params=merged,
                deadline=expiry,
            )
            table = evaluate(self._entry.plan, ctx)
            elapsed = time.perf_counter() - t0
            session.stats.queries_executed += 1
            session.stats.execute_seconds += elapsed
            return QueryResult(
                table=table,
                arena=database.arena,
                plan=self._entry.plan,
                compile_seconds=self._entry.compile_seconds,
                execute_seconds=elapsed,
                from_cache=self.from_cache,
                trace=trace_map,
                lease=database.arena.page_scope(),
                parameters=self._entry.external_vars,
            )
