"""The workload and metric names (with units) the runner emits.

``BENCHMARK.json`` repeats these names with direction and bound;
``perf/test_perf.py`` checks the two agree.
"""

from __future__ import annotations

from repro.relational.optimizer import PASS_NAMES

WORKLOADS = (
    "xmark-cold",
    "xmark-prepared",
    "serve-single",
    "serve-cluster",
    "store-update",
)

#: end-to-end metric -> unit.  A driver wants every run to report every
#: one of them, so each has one definition that every workload applies to
#: its own operations; perf/README.md names the workloads each was chosen
#: for (its *home*) and what the others feed it.
END_TO_END = {
    "setup_s": "s",
    "query_geomean_ms": "ms",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_rps": "1/s",
    "update_p50_ms": "ms",
    "read_after_update_p50_ms": "ms",
    "reopen_first_query_ms": "ms",
    "stored_bytes_per_xml_byte": "ratio",
    "correct_share": "ratio",
}

#: per-layer metric -> unit, named ``<module under src/repro>.<metric>``.
#: A traced run reports all of them; those its workload does not exercise
#: read 0 and are printed as "not measured" (homes: perf/README.md).
PER_LAYER = {
    # front end (per compiled query)
    "xquery.parse_ms": "ms",
    "xquery.core_ms": "ms",
    "compiler.looplift_ms": "ms",
    "compiler.looplift_ops": "count",
    "relational.optimizer_ms": "ms",
    "relational.optimizer.ops_after": "count",
    "relational.optimizer.rewrites": "count",
    **{f"relational.optimizer.pass.{name}_ms": "ms" for name in PASS_NAMES},
    "relational.estimator.build_ms": "ms",
    # execution (per executed query)
    "relational.evaluate_ms": "ms",
    "relational.evaluate.ops_executed": "count",
    "relational.evaluate.rows_materialized": "count",
    "relational.staircase.descendant_ms": "ms",
    "relational.staircase.child_ms": "ms",
    "relational.staircase.naive_ratio": "ratio",
    "relational.staircase.twig_ms": "ms",
    "encoding.arena.new_element_us": "us",
    **{f"query.Q{i}_ms": "ms" for i in range(1, 21)},
    # serialization
    "compiler.serialize_ms": "ms",
    "compiler.serialize.bytes_out": "bytes",
    "xml.serializer.doc_mb_s": "MB/s",
    # plan cache / session
    "api.plan_cache.hit_rate": "ratio",
    "api.plan_cache.invalidations": "count",
    "api.plan_cache.hit_lookup_us": "us",
    "api.session.overhead_ms": "ms",
    # load / store
    "xmark.generate_mb_s": "MB/s",
    "xml.parser.events_mb_s": "MB/s",
    "encoding.shred.nodes_per_s": "1/s",
    "encoding.store.persist_ms": "ms",
    "encoding.store.fragment_bytes": "bytes",
    "encoding.store.open_eager_ms": "ms",
    "encoding.store.open_paged_ms": "ms",
    "encoding.store.wal_bytes_per_update": "bytes",
    "encoding.store.checkpoint_ms": "ms",
    "encoding.paging.faults": "count",
    "encoding.paging.evictions": "count",
    "encoding.paging.fault_rate": "ratio",
    "encoding.paging.resident_peak_bytes": "bytes",
    "compiler.updates.apply_ms": "ms",
    "encoding.arena.rows_per_live_node": "ratio",
    # serving
    "server.service.execute_ms": "ms",
    "server.http.overhead_ms": "ms",
    "server.http.connect_ms": "ms",
    "server.latency_p99_ms": "ms",
    "server.service.queue_shed": "count",
    "server.service.deadline_exceeded": "count",
    "server.cluster.respawns": "count",
    "server.rss_mb": "MB",
    "loadgen.cpu_share": "ratio",
    # the trace itself
    "trace.overhead_share": "ratio",
    "trace.coverage_share": "ratio",
}
