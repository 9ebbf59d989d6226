"""The traced run: the per-layer metrics of one workload.

Layers are measured from outside, by timing calls into each module's
public functions (spans inside ``src/`` are a later change).  A traced
run drives one pass of its workload's operations three ways over fresh
databases — *counted* with the evaluator's ``trace=`` map retained (the
exact counts; a separate pass, so retention does not pollute the
timings), *untraced* through ``Session.execute`` (the reference latency)
and *staged* through the same calls ``Database.compile_query`` and
``PreparedQuery.execute`` make, each stage in a span.  The staged output
must be byte-identical to the untraced one.  From these come the
front-end, execution, serialization, plan-cache and ``trace.*`` metrics
and the ``query.Qn_ms`` rows of the queries the workload runs.

The single-layer probes run once, in the traced run of the workload
they belong to: loading (generator, XML parser, shredder, document
serializer) on ``xmark-cold``, the evaluator's kernels (staircase, twig,
node construction) on ``xmark-prepared``, the store on ``store-update``,
the in-process ``QueryService`` on ``serve-single``, and one segment
against the real server on both serve workloads.  A driver wants every
traced run to report every per-layer metric, so the ones a workload does
not measure read 0 and are printed as "not measured".

Per-layer times are raw (not speed-corrected): they are compared within
one run, not across runs.  Spans stay in memory and are dumped to
``perf/out/trace-<workload>.jsonl`` when the run ends.
"""

from __future__ import annotations

import gc
import os
import re
import shutil
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro
from repro.api.database import Database
from repro.compiler.loop_lifting import Compiler
from repro.compiler.serialize import iter_serialized_chunks
from repro.encoding.arena import NodeArena
from repro.encoding.axes import Axis, element
from repro.encoding.shred import shred_text
from repro.relational import algebra as alg
from repro.relational.evaluate import EvalContext, evaluate
from repro.relational.optimizer import (
    PASS_NAMES, CardinalityEstimator, OptimizerStats, optimize,
)
from repro.relational.staircase import naive_step, staircase_step, twig_match
from repro.server.service import QueryService
from repro.xmark import XMARK_QUERIES
from repro.xml.parser import XMLEventHandler, parse_events
from repro.xml.serializer import serialize_node
from repro.xquery.core import desugar_module
from repro.xquery.parser import parse_query

from perf import OUT_DIR, inputs, oracle, rounds, stats, wl_serve, wl_store
from perf.common import (
    Config, Outcome, Samples, in_memory, peak_rss_mb, scratch_dir,
)
from perf.metrics import PER_LAYER
from perf.speed import Speed
from perf.trace import Tracer, self_time_by_name

URI = oracle.URI
REPS = 3
#: the third untraced+staged repetition is skipped once two took this long
PASS_BUDGET_S = 6.0
SERVE_OPS = 300
TRACED_SEGMENT_SECONDS = 5.0
STAGES = ("xquery.parse", "xquery.core", "compiler.looplift",
          "relational.optimizer", "relational.estimator",
          "relational.evaluate", "compiler.serialize")


@dataclass
class Op:
    kind: str
    text: str = ""
    bindings: dict | None = None
    #: "query", "update" or "checkpoint"
    action: str = "query"


@dataclass
class View:
    """A workload as the traced run sees it: how to build its database
    in library form, one pass of its operations, and how plans are
    cached while it runs."""

    make_database: Callable[[], Database]
    ops: list[Op]
    #: the plan cache is cleared before every query (one-shot latency)
    clear_each: bool
    #: every distinct text is compiled before the pass (prepared / hot)
    prewarm: bool
    #: the workload's first document
    text: str


def build_view(cfg: Config, tmp: str) -> View:
    if cfg.workload.startswith("xmark-"):
        prepared = cfg.workload == "xmark-prepared"
        text = inputs.document(cfg.scale, cfg.seed)
        ops = [Op(n, XMARK_QUERIES[n])
               for n in inputs.xmark_queries(cfg.workload)]
        return View(lambda: in_memory({URI: text}), ops,
                    clear_each=not prepared, prewarm=prepared, text=text)
    if cfg.workload.startswith("serve-"):
        docs = wl_serve.catalog_documents(cfg)
        stream = inputs.request_stream(cfg.seed, 0, cfg.scale)
        ops = [Op(*next(stream)) for _ in range(SERVE_OPS)]
        return View(lambda: in_memory(docs), ops, clear_each=False,
                    prewarm=True, text=docs[inputs.serve_uri(0)])
    pristine = os.path.join(tmp, "pristine")
    text, budget = wl_store.persist(cfg, pristine)
    copies = iter(range(10**6))

    def make_paged() -> Database:
        store = os.path.join(tmp, f"copy{next(copies)}")
        shutil.copytree(pristine, store)
        return Database.open(store, page_budget_bytes=budget)

    ops = []
    updates = inputs.update_rounds(cfg.seed, cfg.scale, inputs.STORE_ROUNDS)
    reads = inputs.round_reads(inputs.STORE_ROUNDS)
    for r, ((kind, update), names) in enumerate(zip(updates, reads)):
        ops.append(Op(kind, update, action="update"))
        ops.extend(Op(name, XMARK_QUERIES[name]) for name in names)
        if r % rounds.CHECKPOINT_EVERY == rounds.CHECKPOINT_EVERY - 1:
            ops.append(Op("checkpoint", action="checkpoint"))
    return View(make_paged, ops, clear_each=False, prewarm=False, text=text)


def distinct_queries(ops: list[Op]) -> list[Op]:
    seen, out = set(), []
    for op in ops:
        if op.action == "query" and op.text not in seen:
            seen.add(op.text)
            out.append(op)
    return out


# ------------------------------------------------------- the three passes
class ResidentPeak:
    """Polls the pager's resident bytes from a second thread: a query's
    pins drop when it returns, so its resident set is only visible while
    it runs.  Used on the counted pass, whose timings are not kept."""

    def __init__(self):
        self.peak = 0
        self._done = threading.Event()
        self._thread = None

    def watch(self, database: Database) -> None:
        if database.paging_status() is None:
            return  # nothing is paged: the peak stays 0

        def poll() -> None:
            while not self._done.is_set():
                self.peak = max(
                    self.peak, database.paging_status()["resident_bytes"])
                time.sleep(0.0005)

        self._thread = threading.Thread(target=poll)
        self._thread.start()

    def stop(self) -> None:
        self._done.set()
        if self._thread is not None:
            self._thread.join()


@dataclass
class PassResult:
    latencies: list[float]
    outputs: list[str | None]
    database: Database
    #: evaluator counts (counted pass only) and WAL bytes written
    ops_executed: int = 0
    rows: int = 0
    wal_bytes: int = 0


def untraced_pass(view: View, trace: bool = False,
                  resident: ResidentPeak | None = None) -> PassResult:
    """One pass through ``Session.execute``; ``trace=True`` makes it the
    counted pass (the evaluator's ``trace=`` map is retained)."""
    gc.collect()
    database = view.make_database()
    session = database.connect()
    if view.prewarm:
        for op in distinct_queries(view.ops):
            session.prepare(op.text)
    if resident is not None:
        resident.watch(database)
    result = PassResult([], [], database)
    try:
        for op in view.ops:
            output = None
            if op.action == "query" and view.clear_each:
                database.plan_cache.clear()
            t0 = time.perf_counter()
            if op.action == "update":
                session.execute_update(op.text)
            elif op.action == "checkpoint":
                result.wal_bytes += database.store_status()["wal_bytes"]
                database.checkpoint()
            else:
                answer = session.execute(op.text, op.bindings, trace=trace)
                output = answer.serialize()
                if trace:
                    result.ops_executed += len(answer.trace)
                    result.rows += sum(
                        t.num_rows for t in answer.trace.values())
            result.latencies.append(time.perf_counter() - t0)
            result.outputs.append(output)
    finally:
        if resident is not None:
            resident.stop()
    return result


class Staged:
    """The pipeline re-driven stage by stage, each stage in a span."""

    def __init__(self, database: Database, tracer: Tracer):
        self.database = database
        self.tracer = tracer
        self.plans: dict[str, object] = {}
        self.estimator = None
        self.compilations = 0
        self.looplift_ops = 0
        self.ops_after = 0
        self.rewrites = 0
        self.pass_seconds = dict.fromkeys(PASS_NAMES, 0.0)
        self.estimator_builds = 0

    def compile(self, text: str):
        database, span = self.database, self.tracer.span
        with span("xquery.parse"):
            module = parse_query(text)
        with span("xquery.core"):
            core = desugar_module(module)
        with span("compiler.looplift"):
            plan = Compiler(
                database.documents, database.default_document
            ).compile_module(core)
        self.looplift_ops += alg.op_count(plan)
        if self.estimator is None:
            with span("relational.estimator"):
                self.estimator = CardinalityEstimator.from_database(
                    database.arena, database.documents)
            self.estimator_builds += 1
        optimizer_stats = OptimizerStats()
        with span("relational.optimizer"):
            plan = optimize(plan, optimizer_stats, estimator=self.estimator)
        self.compilations += 1
        self.ops_after += optimizer_stats.ops_after
        for ps in optimizer_stats.pass_stats:
            self.rewrites += ps.rewrites
            self.pass_seconds[ps.name] += ps.seconds
        return plan

    def execute(self, plan, bindings: dict | None) -> str:
        database, span = self.database, self.tracer.span
        with span("relational.evaluate"):
            table = evaluate(plan, EvalContext(
                database.arena, documents=database.documents,
                params=dict(bindings or {})))
        with span("compiler.serialize"):
            return "".join(iter_serialized_chunks(table, database.arena))

    def run_op(self, op: Op, clear_each: bool) -> str | None:
        self.tracer.op_id += 1
        with self.tracer.span("op"):
            if op.action == "update":
                with self.tracer.span("compiler.updates"):
                    self.database.connect().execute_update(op.text)
                self.plans.clear()  # the epoch moved: every plan is stale
                self.estimator = None
                return None
            if op.action == "checkpoint":
                with self.tracer.span("encoding.store.checkpoint"):
                    self.database.checkpoint()
                return None
            with self.database.read_locked():
                plan = None if clear_each else self.plans.get(op.text)
                if plan is None:
                    plan = self.plans[op.text] = self.compile(op.text)
                return self.execute(plan, op.bindings)


def staged_pass(view: View, tracer: Tracer):
    """One pass with every stage in a span; returns the per-op span
    durations, outputs and the :class:`Staged` counters."""
    gc.collect()
    staged = Staged(view.make_database(), tracer)
    if view.prewarm:
        with staged.database.read_locked():
            for op in distinct_queries(view.ops):
                staged.plans[op.text] = staged.compile(op.text)
    durations, outputs = [], []
    for op in view.ops:
        t0 = time.perf_counter()
        outputs.append(staged.run_op(op, view.clear_each))
        durations.append(time.perf_counter() - t0)
    return durations, outputs, staged


def mismatches(outputs: list, reference: list) -> int:
    return sum(a != b for a, b in zip(outputs, reference))


def pipeline(view: View, tracer: Tracer) -> tuple[dict, int, int]:
    """The three passes of any workload: the metrics they give, and the
    operations attempted and failed (not byte-identical)."""
    values: dict[str, float] = {}
    is_query = [op.action == "query" for op in view.ops]
    # the counted pass goes first: its timings are not used, so it also
    # absorbs the process's one-off warm-up
    resident = ResidentPeak()
    counted = untraced_pass(view, trace=True, resident=resident)
    reference = counted.outputs
    values["relational.evaluate.ops_executed"] = counted.ops_executed
    values["relational.evaluate.rows_materialized"] = counted.rows
    values["compiler.serialize.bytes_out"] = sum(
        len(o.encode("utf-8")) for o in reference if o is not None)
    cache = counted.database.plan_cache.stats
    values["api.plan_cache.hit_rate"] = cache.hit_rate
    values["api.plan_cache.invalidations"] = cache.invalidations
    values["api.plan_cache.hit_lookup_us"] = plan_cache_probe(counted.database)
    paging = counted.database.paging_status()
    if paging is not None:  # store-update: the pager's and the WAL's counts
        database = counted.database
        updates = sum(op.action == "update" for op in view.ops)
        values["encoding.store.wal_bytes_per_update"] = (
            counted.wal_bytes / updates)
        values["encoding.paging.faults"] = paging["faults"]
        values["encoding.paging.evictions"] = paging["evictions"]
        values["encoding.paging.fault_rate"] = (
            paging["faults"] / paging["touches"])
        values["encoding.paging.resident_peak_bytes"] = resident.peak
        live = int(database.arena.size[database.documents[URI]]) + 1
        values["encoding.arena.rows_per_live_node"] = (
            database.arena.num_nodes / live)
    del counted

    untraced, staged_runs = [], []
    failed = 0
    wall0 = time.perf_counter()
    while len(untraced) < REPS and (
        len(untraced) < 2 or time.perf_counter() - wall0 < PASS_BUDGET_S
    ):
        result = untraced_pass(view)
        untraced.append(result.latencies)
        failed += mismatches(result.outputs, reference)
        durations, outputs, staged = staged_pass(view, tracer)
        staged_runs.append((durations, staged))
        # byte-identical to Session.execute or it counts as failed
        failed += mismatches(outputs, reference)
    reps = len(untraced)

    # stage self times, averaged over the staged passes
    own = self_time_by_name(tracer.spans)
    compilations = sum(s.compilations for _, s in staged_runs)
    builds = sum(s.estimator_builds for _, s in staged_runs)
    executions = reps * sum(is_query)
    per_compile = lambda seconds: seconds / compilations * 1000.0  # noqa: E731
    values["xquery.parse_ms"] = per_compile(own["xquery.parse"])
    values["xquery.core_ms"] = per_compile(own["xquery.core"])
    values["compiler.looplift_ms"] = per_compile(own["compiler.looplift"])
    values["relational.optimizer_ms"] = per_compile(own["relational.optimizer"])
    for name in PASS_NAMES:
        values[f"relational.optimizer.pass.{name}_ms"] = per_compile(
            sum(s.pass_seconds[name] for _, s in staged_runs))
    values["relational.estimator.build_ms"] = (
        own["relational.estimator"] / builds * 1000.0)
    values["relational.evaluate_ms"] = (
        own["relational.evaluate"] / executions * 1000.0)
    values["compiler.serialize_ms"] = (
        own["compiler.serialize"] / executions * 1000.0)
    for span_name, metric in (
        ("compiler.updates", "compiler.updates.apply_ms"),
        ("encoding.store.checkpoint", "encoding.store.checkpoint_ms"),
    ):
        count = sum(s.name == span_name for s in tracer.spans)
        if count:
            values[metric] = own[span_name] / count * 1000.0
    # exact counts come from one pass (they repeat in every pass)
    first = staged_runs[0][1]
    values["compiler.looplift_ops"] = first.looplift_ops
    values["relational.optimizer.ops_after"] = first.ops_after
    values["relational.optimizer.rewrites"] = first.rewrites

    # coverage and overhead over the query operations of a pass
    def query_total(per_op):
        return sum(s for s, q in zip(per_op, is_query) if q)

    untraced_total = stats.median([query_total(l) for l in untraced])
    staged_total = stats.median([query_total(d) for d, _ in staged_runs])
    stage_total = sum(
        span.end - span.start for span in tracer.spans
        if span.parent is not None and span.name in STAGES) / reps
    values["trace.coverage_share"] = stage_total / untraced_total
    values["trace.overhead_share"] = staged_total / untraced_total - 1.0
    values["api.session.overhead_ms"] = (
        (untraced_total - stage_total) / sum(is_query) * 1000.0)

    # query.Qn_ms: the XMark queries this workload runs, its own latency
    rows: dict[str, list[float]] = {}
    for latencies in untraced:
        for op, seconds in zip(view.ops, latencies):
            if re.fullmatch(r"Q\d+", op.kind):
                rows.setdefault(op.kind, []).append(seconds)
    for kind, seconds in rows.items():
        values[f"query.{kind}_ms"] = stats.median(seconds) * 1000.0
    return values, 2 * reps * len(view.ops), failed


# ------------------------------------------------------ single-layer probes
def timed(fn, reps: int = 1) -> tuple[float, object]:
    """Median wall seconds of ``fn()`` over ``reps`` calls, last result."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return stats.median(times), result


def plan_cache_probe(database: Database) -> float:
    """Microseconds of one ``compile_cached`` that hits."""
    query = XMARK_QUERIES["Q1"]
    database.compile_cached(query, True)
    t0 = time.perf_counter()
    for _ in range(200):
        database.compile_cached(query, True)
    return (time.perf_counter() - t0) / 200 * 1e6


def load_probes(cfg: Config, text: str) -> dict[str, float]:
    """``xmark-cold``: generator, XML parser, shredder, serializer."""
    mb = len(text.encode("utf-8")) / 1e6
    out = {}
    seconds, _ = timed(lambda: inputs.document(cfg.scale, cfg.seed), REPS)
    out["xmark.generate_mb_s"] = mb / seconds
    seconds, _ = timed(lambda: parse_events(text, XMLEventHandler()), REPS)
    out["xml.parser.events_mb_s"] = mb / seconds
    arena = NodeArena()
    t0 = time.perf_counter()
    root = shred_text(arena, text)
    out["encoding.shred.nodes_per_s"] = arena.num_nodes / (
        time.perf_counter() - t0)
    seconds, _ = timed(lambda: serialize_node(arena, root), REPS)
    out["xml.serializer.doc_mb_s"] = mb / seconds
    return out


def kernel_probes(text: str) -> dict[str, float]:
    """``xmark-prepared``: staircase and twig joins from every
    ``open_auction``, and node construction."""
    arena = NodeArena()
    root = shred_text(arena, text)
    zero = np.zeros(1, dtype=np.int64)
    _, auctions = staircase_step(
        arena, zero, np.array([root]), Axis.DESCENDANT, element("open_auction"))
    iters = np.arange(len(auctions), dtype=np.int64)
    descendant, _ = timed(lambda: staircase_step(
        arena, iters, auctions, Axis.DESCENDANT, element()), REPS)
    child, _ = timed(lambda: staircase_step(
        arena, iters, auctions, Axis.CHILD, element()), REPS)
    naive, _ = timed(lambda: naive_step(
        arena, iters, auctions, Axis.DESCENDANT, element()))
    twig, _ = timed(lambda: twig_match(
        arena, iters, auctions,
        ((Axis.CHILD, element("bidder")), (Axis.CHILD, element("increase")))),
        REPS)
    name_id = arena.pool.intern("perf")
    subtree = int(auctions[0])
    t0 = time.perf_counter()
    for _ in range(200):
        arena.new_element(name_id, [], [("copy", subtree)])
    return {
        "relational.staircase.descendant_ms": descendant * 1000.0,
        "relational.staircase.child_ms": child * 1000.0,
        "relational.staircase.naive_ratio": naive / descendant,
        "relational.staircase.twig_ms": twig * 1000.0,
        "encoding.arena.new_element_us": (
            (time.perf_counter() - t0) / 200 * 1e6),
    }


def store_probes(text: str, tmp: str) -> dict[str, float]:
    """``store-update``: persist the document, open it eagerly and paged
    (what the pager and the WAL count comes from the counted pass)."""
    path = os.path.join(tmp, "probe-store")
    t0 = time.perf_counter()
    database = repro.connect(store=path).database
    database.load_document(URI, text)
    out = {"encoding.store.persist_ms": (time.perf_counter() - t0) * 1000.0}
    fragment_bytes = database.store_status()["fragment_bytes"]
    out["encoding.store.fragment_bytes"] = fragment_bytes
    del database
    seconds, _ = timed(lambda: Database.open(path), REPS)
    out["encoding.store.open_eager_ms"] = seconds * 1000.0
    seconds, _ = timed(
        lambda: Database.open(path, page_budget_bytes=fragment_bytes // 4),
        REPS)
    out["encoding.store.open_paged_ms"] = seconds * 1000.0
    return out


def service_probe(view: View) -> float:
    """``serve-single``: milliseconds of the workload's requests through
    an in-process ``QueryService`` (no socket), median."""
    database = view.make_database()
    service = QueryService(database, workers=2, deadline_seconds=120.0)
    try:
        session = database.connect()
        for op in distinct_queries(view.ops):
            session.prepare(op.text)
        seconds = []
        for op in view.ops:
            t0 = time.perf_counter()
            service.execute(op.text, op.bindings)
            seconds.append(time.perf_counter() - t0)
    finally:
        service.shutdown()
    return stats.median(seconds) * 1000.0


def server_segment(cfg: Config, tmp: str) -> tuple[dict, int, int]:
    """``serve-*``: one fixed-length segment against the real server,
    then 200 requests on fresh connections beside 200 on a kept one.
    Returns (metrics, attempted, failed)."""
    segment = Samples(batches=[[]])
    with wl_serve.serving(
        cfg, os.path.join(tmp, "store"), Samples(), Speed()
    ) as (server, docs, _ratio):
        before = server.stats()
        records, _blocks, wall, cpu = wl_serve.drive(
            server.port, wl_serve.client_streams(cfg), TRACED_SEGMENT_SECONDS)
        deltas = wl_serve.server_counter_deltas(before, server.stats())
        request = wl_serve.query_request(
            inputs.on_document("Q1", inputs.serve_uri(0)), None)
        fresh, kept = [], []
        with wl_serve.Client(server.port) as keep_alive:
            for _ in range(200):
                t0 = time.perf_counter()
                with wl_serve.Client(server.port) as client:
                    client.post(request)
                fresh.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                keep_alive.post(request)
                kept.append(time.perf_counter() - t0)
        rss = peak_rss_mb(server.pids())
    library = wl_serve.Library(docs)
    for recs in records:
        wl_serve.check(recs, library, segment, 0)
    latencies = segment.batches[0]
    values = {
        name: deltas[name][0]
        for name in ("server.service.queue_shed",
                     "server.service.deadline_exceeded",
                     "server.cluster.respawns")
    }
    values["loadgen.cpu_share"] = cpu / wall
    values["server.latency_p50_ms"] = stats.median(latencies) * 1000.0
    values["server.latency_p99_ms"] = stats.percentile(latencies, 99) * 1000.0
    values["server.http.connect_ms"] = (
        (stats.median(fresh) - stats.median(kept)) * 1000.0)
    values["server.rss_mb"] = rss
    return values, segment.attempted, segment.failed


# ------------------------------------------------------------------- run
def run(cfg: Config) -> Outcome:
    tracer = Tracer()
    with scratch_dir(f"trace-{cfg.workload}-") as tmp:
        view = build_view(cfg, tmp)
        values, attempted, failed = pipeline(view, tracer)
        if cfg.workload == "xmark-cold":
            values.update(load_probes(cfg, view.text))
        elif cfg.workload == "xmark-prepared":
            values.update(kernel_probes(view.text))
        elif cfg.workload == "store-update":
            values.update(store_probes(view.text, tmp))
        else:
            measured, seg_attempted, seg_failed = server_segment(cfg, tmp)
            p50 = measured.pop("server.latency_p50_ms")
            values.update(measured)
            attempted += seg_attempted
            failed += seg_failed
            if cfg.workload == "serve-single":
                inproc = service_probe(view)
                values["server.service.execute_ms"] = inproc
                values["server.http.overhead_ms"] = p50 - inproc

    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{cfg.workload}.jsonl")
    return Outcome(
        # n = 0 marks what this workload's traced run does not measure
        metrics={n: (float(values.get(n, 0.0)), u, int(n in values))
                 for n, u in PER_LAYER.items()},
        attempted=attempted,
        failed=failed,
        info={
            "scale": cfg.scale,
            "ops_per_pass": len(view.ops),
            "passes": "1 counted + 2-3 untraced + as many staged",
            "spans": len(tracer.spans),
            "check": "staged output byte-identical to Session.execute",
        },
    )
