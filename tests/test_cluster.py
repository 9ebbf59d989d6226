"""Differential tests of the sharded scatter-gather serving tier.

The cluster's contract is *indistinguishability*: a catalog served by N
shard-scoped worker processes must answer byte-for-byte what the
in-process ``--workers 0`` service answers — results, error classes,
HTTP statuses, deadline and shedding semantics.  Both sit behind the
same HTTP front end (``RouterServer``), so every difference these tests
could find is a difference between :class:`~repro.server.QueryService`
and :class:`~repro.server.ClusterService`.  On top come the failure
modes only a cluster has: a worker crashing mid-flight, respawn
recovery from the shared store, and graceful drain.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time

import pytest

from repro import Database
from repro.errors import PathfinderError
from repro.server import (
    ClusterService,
    QueryService,
    RouterServer,
    WorkerUnavailable,
)
from repro.server.cluster import READY_TIMEOUT
from repro.server.service import DeadlineExceeded
from repro.encoding.store import shard_of
from repro.xmark import XMARK_QUERIES, generate_document
from tests.conftest import live_server

XMARK_SCALE = 0.0005
WORKERS = 4

#: small per-shard documents: one URI per shard of the 4-way cluster,
#: found by probing the shard map (pure hashing, stable across runs)
SHARD_DOCS = {}
for _i in range(100):
    _uri = f"doc{_i}.xml"
    _s = shard_of(_uri, WORKERS)
    if _s not in SHARD_DOCS:
        SHARD_DOCS[_s] = _uri
    if len(SHARD_DOCS) == WORKERS:
        break

#: a cross-product heavy enough to overrun a millisecond deadline
SLOW_QUERY = (
    "count(for $a in /r/v, $b in /r/v, $c in /r/v, $d in /r/v, "
    "$e in /r/v, $f in /r/v, $g in /r/v, $h in /r/v return 1)"
)


def _catalog() -> dict[str, str]:
    """The shared test catalog: XMark plus one document per shard."""
    docs = {"auction.xml": generate_document(XMARK_SCALE)}
    for index, uri in sorted(SHARD_DOCS.items()):
        docs[uri] = f"<r><v>{index}</v><v>{index + 1}</v><w>x{index}</w></r>"
    return docs


@pytest.fixture(scope="module")
def catalog():
    """Generate the document set once per module."""
    return _catalog()


@pytest.fixture(scope="module")
def single(catalog):
    """The ``--workers 0`` reference service."""
    database = Database()
    for uri, text in catalog.items():
        database.load_document(uri, text)
    service = QueryService(database, workers=2, deadline_seconds=30.0)
    yield service
    service.shutdown()


@pytest.fixture(scope="module")
def cluster(catalog):
    """A live 4-worker in-memory cluster with the same catalog."""
    service = ClusterService(WORKERS, threads=2, deadline_seconds=30.0)
    for uri, text in catalog.items():
        service.put_document(uri, text)
    yield service
    service.shutdown(wait=True)


@pytest.fixture(scope="module")
def router(cluster):
    """The asyncio HTTP front end over the module's cluster."""
    # the cluster fixture owns shutdown
    with live_server(cluster, shutdown_service=False) as netloc:
        yield netloc


@pytest.fixture(scope="module")
def reference(single):
    """The same front end over the ``--workers 0`` reference service."""
    # the `single` fixture owns shutdown
    with live_server(single, shutdown_service=False) as netloc:
        yield netloc


def http_request(netloc, method, path, body=None, headers=None):
    """One keep-alive-capable round trip; returns (status, raw bytes)."""
    host, port = netloc.split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def normalized(payload_bytes):
    """A /query response with the per-run timing fields stripped."""
    payload = json.loads(payload_bytes)
    for key in ("compile_seconds", "execute_seconds", "scattered"):
        payload.pop(key, None)
    return payload


class TestXMarkDifferential:
    """All 20 XMark queries over HTTP: cluster body == in-process body."""

    @pytest.mark.parametrize("name", sorted(XMARK_QUERIES))
    def test_query_byte_identical(self, name, reference, router):
        body = json.dumps({"query": XMARK_QUERIES[name]}).encode()
        ref_status, ref_body = http_request(reference, "POST", "/query", body)
        clu_status, clu_body = http_request(router, "POST", "/query", body)
        assert ref_status == clu_status == 200
        expected, actual = normalized(ref_body), normalized(clu_body)
        # a plan is cached per worker process, so which request first
        # compiles it differs between the tiers
        expected.pop("from_cache"), actual.pop("from_cache")
        assert actual == expected


class TestScatterGather:
    """Cross-shard queries split, scatter, and merge in document order."""

    def test_cross_shard_nodes_concatenate(self, single, cluster):
        a, b = SHARD_DOCS[0], SHARD_DOCS[1]
        query = f'doc("{a}")/r/v, doc("{b}")/r/w'
        expected = single.execute(query)
        actual = cluster.execute(query)
        assert actual["result"] == expected["result"]

    def test_cross_shard_atomics_get_separator(self, single, cluster):
        a, b = SHARD_DOCS[1], SHARD_DOCS[2]
        # both legs end/start with atomics: exactly one space at the seam
        query = f'string(doc("{a}")/r/w), string(doc("{b}")/r/w)'
        expected = single.execute(query)
        actual = cluster.execute(query)
        assert actual["result"] == expected["result"] == "x1 x2"

    def test_cross_shard_text_nodes_concatenate_without_separator(
        self, single, cluster
    ):
        a, b = SHARD_DOCS[1], SHARD_DOCS[2]
        # text() yields *nodes* — adjacent nodes get no separator, and
        # the seam between shards must honor that too
        query = f'doc("{a}")/r/v/text(), doc("{b}")/r/v/text()'
        expected = single.execute(query)
        actual = cluster.execute(query)
        assert actual["result"] == expected["result"] == "1223"

    def test_three_way_scatter_preserves_operand_order(self, single, cluster):
        parts = [f'string(doc("{SHARD_DOCS[i]}")/r/w)' for i in (2, 0, 1)]
        query = ", ".join(parts)
        expected = single.execute(query)
        actual = cluster.execute(query)
        assert actual["result"] == expected["result"] == "x2 x0 x1"

    def test_empty_legs_do_not_add_separators(self, single, cluster):
        a, b = SHARD_DOCS[0], SHARD_DOCS[3]
        query = f'doc("{a}")/r/missing, doc("{b}")/r/v/text(), doc("{a}")/r/nope'
        expected = single.execute(query)
        actual = cluster.execute(query)
        assert actual["result"] == expected["result"]

    def test_unsplittable_cross_shard_query_is_routing_error(self, cluster):
        a, b = SHARD_DOCS[0], SHARD_DOCS[1]
        with pytest.raises(PathfinderError, match="shard"):
            cluster.execute(f'count((doc("{a}")/r/v, doc("{b}")/r/v))')

    def test_cross_shard_update_is_rejected(self, cluster):
        a, b = SHARD_DOCS[0], SHARD_DOCS[1]
        with pytest.raises(PathfinderError, match="one shard"):
            cluster.execute_update(
                f'insert node <z/> into doc("{a}")/r, '
                f'insert node <z/> into doc("{b}")/r'
            )


class TestHTTPDifferential:
    """One HTTP surface: the cluster behind it vs the in-process service."""

    @pytest.mark.parametrize(
        "query",
        [
            "1 + 1",
            "(1, 2, 3)",
            "/site/regions/*/item[1]/name/text()",
            'doc("%s")/r/v, doc("%s")/r/w' % (SHARD_DOCS[0], SHARD_DOCS[1]),
        ],
    )
    def test_query_responses_match(self, query, reference, router):
        body = json.dumps({"query": query}).encode()
        ref_status, ref_body = http_request(reference, "POST", "/query", body)
        clu_status, clu_body = http_request(router, "POST", "/query", body)
        assert (ref_status, normalized(ref_body)) == (
            clu_status,
            normalized(clu_body),
        )

    @pytest.mark.parametrize(
        "query,status",
        [
            ('doc("missing.xml")/r', 404),
            ("1 +", 400),
            ("$undeclared", 400),
        ],
    )
    def test_error_statuses_and_kinds_match(self, query, status, reference, router):
        body = json.dumps({"query": query}).encode()
        ref_status, ref_body = http_request(reference, "POST", "/query", body)
        clu_status, clu_body = http_request(router, "POST", "/query", body)
        assert ref_status == clu_status == status
        assert json.loads(ref_body)["kind"] == json.loads(clu_body)["kind"]

    def test_deadline_expiry_is_504_across_the_hop(self, reference, router):
        body = json.dumps(
            {"query": "count(//*[count(//*) > 0])", "deadline": 1e-6}
        ).encode()
        for netloc in (reference, router):
            status, payload = http_request(netloc, "POST", "/query", body)
            assert status == 504
            assert json.loads(payload)["kind"] == "DeadlineExceeded"

    def test_keep_alive_connection_serves_many_requests(self, router):
        host, port = router.split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            for i in range(5):
                conn.request(
                    "POST", "/query",
                    body=json.dumps({"query": f"{i} + 1"}).encode(),
                )
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())["result"] == str(i + 1)
        finally:
            conn.close()

    def test_healthz_reports_router_and_workers(self, router):
        status, payload = http_request(router, "GET", "/healthz")
        health = json.loads(payload)
        assert status == 200
        assert health["ok"] is True
        assert health["role"] == "router"
        assert len(health["workers"]) == WORKERS
        for worker in health["workers"]:
            assert worker["alive"] and worker["ready"]
            assert isinstance(worker["pid"], int)

    def test_routing_error_is_400(self, router):
        a, b = SHARD_DOCS[2], SHARD_DOCS[3]
        body = json.dumps(
            {"query": f'count((doc("{a}")/r/v, doc("{b}")/r/v))'}
        ).encode()
        status, payload = http_request(router, "POST", "/query", body)
        assert status == 400
        assert "shard" in json.loads(payload)["error"]


class TestHotReplace:
    """PUT over a loaded document: epoch bump, routing, no stale reads."""

    def test_replace_bumps_epoch_and_serves_new_content(self, cluster, router):
        uri = SHARD_DOCS[3]
        before = cluster.stats()["router"]["routing_table_size"]
        status, payload = http_request(
            router, "PUT", f"/documents/{uri}", b"<r><v>99</v></r>"
        )
        assert status == 200
        replaced = json.loads(payload)
        assert replaced["replaced"] is True
        assert replaced["epoch"] >= 2
        assert replaced["shard"] == 3
        result = cluster.execute(f'doc("{uri}")/r/v/text()')
        assert result["result"] == "99"
        assert cluster.stats()["router"]["routing_table_size"] == before
        # restore the fixture document for later tests
        cluster.put_document(uri, _catalog()[uri])

    def test_update_routes_to_owning_shard_and_bumps_epoch(self, cluster):
        uri = SHARD_DOCS[2]
        stats_before = cluster.stats()
        count_before = int(
            cluster.execute(f'count(doc("{uri}")/r/*)')["result"]
        )
        cluster.execute_update(f'insert node <z/> into doc("{uri}")/r')
        count_after = int(
            cluster.execute(f'count(doc("{uri}")/r/*)')["result"]
        )
        assert count_after == count_before + 1
        assert (
            cluster.stats()["updates_executed"]
            == stats_before["updates_executed"] + 1
        )
        cluster.put_document(uri, _catalog()[uri])

    def test_query_after_update_is_a_cache_hit(self, cluster, router):
        """POST /update keeps the owning shard's cached plans (the
        document stays in its size class): the next POST /query of a
        known text is a hit that answers from the updated tree."""
        uri = SHARD_DOCS[1]
        query = json.dumps({"query": f'sum(doc("{uri}")/r/v)'}).encode()
        status, payload = http_request(router, "POST", "/query", query)
        assert status == 200 and json.loads(payload)["result"] == "3"
        update = f'replace value of node doc("{uri}")/r/v[1] with "40"'
        status, payload = http_request(
            router, "POST", "/update", json.dumps({"query": update}).encode()
        )
        assert status == 200
        assert json.loads(payload)["applied"] == {"replace_value": 1}
        status, payload = http_request(router, "POST", "/query", query)
        assert status == 200
        body = json.loads(payload)
        assert body["result"] == "42" and body["from_cache"] is True
        cluster.put_document(uri, _catalog()[uri])

    def test_delete_then_404(self, cluster, router):
        cluster.put_document("victim.xml", "<v/>")
        status, _ = http_request(router, "DELETE", "/documents/victim.xml")
        assert status == 200
        status, payload = http_request(
            router,
            "POST",
            "/query",
            json.dumps({"query": 'doc("victim.xml")/v'}).encode(),
        )
        assert status == 404
        assert "is not loaded" in json.loads(payload)["error"]


class TestStatsAggregation:
    """GET /stats merges per-shard sections into cluster totals."""

    def test_totals_and_sections(self, cluster, router):
        cluster.execute("1 + 1")
        status, payload = http_request(router, "GET", "/stats")
        assert status == 200
        stats = json.loads(payload)
        assert stats["workers"] == WORKERS
        assert stats["documents"] == len(SHARD_DOCS) + 1
        assert stats["requests_total"] >= 1
        assert len(stats["shards"]) == WORKERS
        assert {s["shard"] for s in stats["shards"]} == set(range(WORKERS))
        router_section = stats["router"]
        assert router_section["routing_table_size"] == len(SHARD_DOCS) + 1
        assert router_section["default_document"] == "auction.xml"
        assert router_section["worker_restarts"] == 0
        # plan-cache totals are sums over live shards
        cache = stats["plan_cache"]
        assert cache["capacity"] == sum(
            s["plan_cache"]["capacity"] for s in stats["shards"]
        )
        # so is the arena section: every shard reports its own
        arena = stats["arena"]
        assert arena["rows"] == sum(s["arena"]["rows"] for s in stats["shards"])
        assert arena["transient_rows"] == 0 and arena["live_leases"] == 0

    def test_top_level_keys_match_the_single_process_payload(
        self, single, cluster
    ):
        single.execute("1 + 1")
        cluster.execute("1 + 1")
        reference, merged = single.stats(), cluster.stats()
        assert set(reference) <= set(merged)
        assert set(reference["plan_cache"]) <= set(merged["plan_cache"])
        assert merged["queries_executed"] == sum(
            s["queries_executed"] for s in merged["shards"]
        )

    def test_documents_listing_is_merged_and_sorted(self, cluster):
        docs = cluster.list_documents()
        uris = [d["uri"] for d in docs]
        assert uris == sorted(uris)
        assert set(SHARD_DOCS.values()) <= set(uris)
        defaults = [d["uri"] for d in docs if d["default"]]
        assert defaults == ["auction.xml"]


class TestDeadlinesAndShedding:
    """The deadline/shedding discipline carries across the process hop."""

    @pytest.fixture(scope="class")
    def tiny_cluster(self):
        service = ClusterService(1, threads=1, deadline_seconds=30.0)
        service.put_document(
            "r.xml", "<r>" + "".join(f"<v>{i}</v>" for i in range(5)) + "</r>"
        )
        yield service
        service.shutdown(wait=True)

    def test_deadline_exceeded_type_survives_the_hop(self, tiny_cluster):
        with pytest.raises(DeadlineExceeded):
            tiny_cluster.execute(SLOW_QUERY, deadline=0.001)
        assert tiny_cluster.stats()["timeouts"] >= 1

    def test_queued_requests_are_shed(self, tiny_cluster):
        shed_before = tiny_cluster.stats()["shed"]
        # occupy the single worker thread, then queue requests whose
        # deadlines expire while they wait — they must be shed, not run
        blocker = threading.Thread(
            target=lambda: tiny_cluster.execute(SLOW_QUERY, deadline=30.0)
        )
        blocker.start()
        time.sleep(0.1)
        results = []

        def submit():
            try:
                tiny_cluster.execute("1 + 1", deadline=0.001)
                results.append("ok")
            except DeadlineExceeded as exc:
                results.append(
                    "shed" if getattr(exc, "queue_shed", False) else "timeout"
                )

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        blocker.join()
        assert len(results) == 4
        assert "shed" in results
        assert tiny_cluster.stats()["shed"] > shed_before


class TestStartupValidation:
    """A config every worker would reject fails the constructor quickly,
    instead of respawning workers until the ready timeout runs out."""

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"threads": 0}, "at least 1 worker"),
            ({"plan_cache_size": 0}, "plan cache capacity must be >= 1"),
        ],
        ids=["threads", "plan_cache_size"],
    )
    def test_bad_config_rejected_before_spawning(self, options, message):
        t0 = time.monotonic()
        with pytest.raises(PathfinderError, match=message):
            ClusterService(1, **options)
        assert time.monotonic() - t0 < 5.0

    def test_worker_startup_failure_stops_the_ready_wait(self):
        t0 = time.monotonic()
        with pytest.raises(PathfinderError, match="kept dying on startup"):
            ClusterService(1, session_options={"disabled_passes": ["nope"]})
        assert time.monotonic() - t0 < READY_TIMEOUT / 2


class TestCrashRecovery:
    """kill -9 a worker: 503s while down, respawn reloads from the store."""

    def test_worker_crash_then_respawn_from_store(self, tmp_path):
        store = str(tmp_path / "cat")
        service = ClusterService(2, store=store, threads=2)
        try:
            for index, uri in sorted(SHARD_DOCS.items())[:4]:
                service.put_document(uri, f"<r><v>{index}</v></r>")
            service.checkpoint()
            victim_uri = SHARD_DOCS[0]
            victim_shard = shard_of(victim_uri, 2)
            health = service.health()
            pid = health["workers"][victim_shard]["pid"]
            os.kill(pid, signal.SIGKILL)
            # requests in the dead window fail as WorkerUnavailable (503),
            # then the respawned worker reopens its shard from the store
            deadline = time.time() + 60.0
            while True:
                try:
                    result = service.execute(f'doc("{victim_uri}")/r/v/text()')
                    break
                except (WorkerUnavailable, PathfinderError):
                    assert time.time() < deadline, "worker never came back"
                    time.sleep(0.2)
            assert result["result"] == "0"
            health = service.health()
            assert health["ok"] is True
            assert health["workers"][victim_shard]["restarts"] == 1
            assert health["workers"][victim_shard]["pid"] != pid
            assert service.stats()["router"]["worker_restarts"] == 1
        finally:
            service.shutdown(wait=True)


class TestStoreAndDrain:
    """Shard-scoped store opens and the graceful-drain contract."""

    def test_sharded_catalog_reopens_unsharded(self, tmp_path):
        store = str(tmp_path / "cat")
        service = ClusterService(2, store=store, threads=2)
        try:
            for index, uri in sorted(SHARD_DOCS.items())[:3]:
                service.put_document(uri, f"<r><v>{index}</v></r>")
            service.execute_update(
                f'insert node <z/> into doc("{SHARD_DOCS[0]}")/r'
            )
        finally:
            service.shutdown(wait=True)
        # one unsharded open sees every shard's documents and updates
        database = Database(store=store)
        uris = set(database.documents)
        assert {SHARD_DOCS[0], SHARD_DOCS[1], SHARD_DOCS[2]} <= uris
        single = QueryService(database, workers=1)
        try:
            result = single.execute(f'count(doc("{SHARD_DOCS[0]}")/r/*)')
            assert result["result"] == "2"
        finally:
            single.shutdown()

    def test_graceful_stop_drains_workers(self, tmp_path):
        store = str(tmp_path / "cat")
        service = ClusterService(2, store=store, threads=2)
        server = RouterServer(service)
        netloc = "%s:%s" % server.start()
        status, _ = http_request(
            netloc, "PUT", "/documents/%s" % SHARD_DOCS[1], b"<r><v>7</v></r>"
        )
        assert status == 200
        server.stop(shutdown_service=True)
        # drained: workers checkpointed (no WAL files left), processes gone
        assert service.health()["ok"] is False
        leftovers = [f for f in os.listdir(store) if f.startswith("wal")]
        assert leftovers == []
        database = Database(store=store)
        assert SHARD_DOCS[1] in database.documents

    def test_cluster_restart_recovers_catalog_and_default(self, tmp_path):
        store = str(tmp_path / "cat")
        service = ClusterService(2, store=store, threads=2)
        try:
            service.put_document("first.xml", "<a><b>hi</b></a>")
            service.put_document(SHARD_DOCS[1], "<r><v>5</v></r>")
        finally:
            service.shutdown(wait=True)
        service = ClusterService(4, store=store, threads=2)  # resharded!
        try:
            assert {d["uri"] for d in service.list_documents()} == {
                "first.xml",
                SHARD_DOCS[1],
            }
            # the persisted default document survives the restart,
            # including across a change of worker count
            assert service.execute("/a/b/text()")["result"] == "hi"
        finally:
            service.shutdown(wait=True)
