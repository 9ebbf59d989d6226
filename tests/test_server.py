"""End-to-end tests of the HTTP serving subsystem over a real socket.

The asyncio router is bound to an ephemeral port per test class over an
in-process ``QueryService`` (what ``--workers 0`` serves); requests go
through ``urllib`` like any external client's would, so the whole stack
— routing, JSON codec, worker pool, deadlines, catalog endpoints, stats
— is exercised exactly as deployed.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro import Database
from repro.server import QueryService, RouterServer
from repro.server.service import DeadlineExceeded
from tests.conftest import live_server

DOC = "<r><v>1</v><v>2</v><v>3</v></r>"
PARAM_QUERY = (
    "declare variable $n as xs:integer external; /r/v[position() <= $n]/text()"
)
#: a cross-product heavy enough to overrun a millisecond-scale deadline
SLOW_QUERY = (
    "count(for $a in /r/v, $b in /r/v, $c in /r/v, $d in /r/v, "
    "$e in /r/v, $f in /r/v, $g in /r/v, $h in /r/v return 1)"
)


@pytest.fixture(scope="module")
def server():
    """One live server for the whole module: (base_url, service)."""
    database = Database()
    database.load_document("r.xml", DOC)
    service = QueryService(database, workers=2, deadline_seconds=10.0)
    with live_server(service) as netloc:
        yield f"http://{netloc}", service


def request(base: str, path: str, method: str = "GET", body: bytes | None = None):
    """One HTTP round trip; returns (status, decoded JSON)."""
    req = urllib.request.Request(base + path, data=body, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


def post_query(base: str, payload: dict):
    return request(
        base, "/query", "POST", json.dumps(payload).encode("utf-8")
    )


@contextmanager
def raw_connection(base: str):
    """A plain TCP socket to the server at ``base``."""
    host, port = base.removeprefix("http://").split(":")
    sock = socket.create_connection((host, int(port)), timeout=5)
    try:
        yield sock
    finally:
        sock.close()


def read_until_closed(sock) -> bytes:
    """Everything the server sends before it closes the connection
    (``socket.timeout`` if it never does)."""
    received = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(received)
        received.append(data)


class TestQueryEndpoint:
    def test_one_shot(self, server):
        base, _ = server
        status, body = post_query(base, {"query": "count(/r/v)"})
        assert status == 200
        assert body["result"] == "3"
        assert body["items"] == 1

    def test_prepared_with_bindings(self, server):
        base, _ = server
        status, body = post_query(
            base, {"query": PARAM_QUERY, "bindings": {"n": 2}}
        )
        assert status == 200
        assert body["result"] == "12"
        assert body["parameters"] == ["n"]

    def test_plan_cache_hit_on_repeat(self, server):
        base, _ = server
        post_query(base, {"query": "count(//v)"})
        status, body = post_query(base, {"query": "count(//v)"})
        assert status == 200
        assert body["from_cache"] is True

    def test_syntax_error_is_400(self, server):
        base, _ = server
        status, body = post_query(base, {"query": "for $x in"})
        assert status == 400
        assert body["kind"] == "XQuerySyntaxError"

    def test_missing_query_field_is_400(self, server):
        base, _ = server
        status, body = post_query(base, {"bindings": {"n": 1}})
        assert status == 400
        assert "query" in body["error"]

    def test_undeclared_binding_is_400(self, server):
        base, _ = server
        status, body = post_query(
            base, {"query": "count(/r/v)", "bindings": {"nope": 1}}
        )
        assert status == 400
        assert "external variable" in body["error"]

    def test_deadline_expiry_is_504(self, server):
        base, _ = server
        status, body = post_query(
            base, {"query": SLOW_QUERY, "deadline": 0.001}
        )
        assert status == 504
        assert body["kind"] == "DeadlineExceeded"


class TestDocumentEndpoints:
    def test_listing(self, server):
        base, _ = server
        status, body = request(base, "/documents")
        assert status == 200
        uris = [d["uri"] for d in body["documents"]]
        assert "r.xml" in uris

    def test_hot_replace_and_epoch(self, server):
        base, _ = server
        status, put1 = request(
            base, "/documents/hot.xml", "PUT", b"<h><x/></h>"
        )
        assert status == 200 and put1["replaced"] is False
        status, q1 = post_query(base, {"query": 'count(doc("hot.xml")//x)'})
        assert q1["result"] == "1"
        status, put2 = request(
            base, "/documents/hot.xml", "PUT", b"<h><x/><x/></h>"
        )
        assert status == 200 and put2["replaced"] is True
        assert put2["epoch"] > put1["epoch"]
        status, q2 = post_query(base, {"query": 'count(doc("hot.xml")//x)'})
        assert q2["result"] == "2"

    def test_query_after_update_is_a_cache_hit(self, server):
        """An update keeps the cached plans of the document (it stays in
        its size class): the next /query of a known text is a hit that
        answers from the updated tree."""
        base, _ = server
        xml = "<u>" + "<i>1</i>" * 20 + "</u>"
        assert request(base, "/documents/upd.xml", "PUT", xml.encode())[0] == 200
        query = {"query": 'sum(doc("upd.xml")/u/i)'}
        assert post_query(base, query)[1]["result"] == "20"
        status, body = request(
            base,
            "/update",
            "POST",
            json.dumps(
                {"query": 'replace value of node doc("upd.xml")/u/i[1] with "5"'}
            ).encode(),
        )
        assert status == 200 and body["applied"] == {"replace_value": 1}
        status, body = post_query(base, query)
        assert status == 200
        assert body["result"] == "24" and body["from_cache"] is True

    def test_delete_then_404(self, server):
        base, _ = server
        request(base, "/documents/gone.xml", "PUT", b"<g/>")
        status, body = request(base, "/documents/gone.xml", "DELETE")
        assert status == 200 and body["unloaded"] is True
        status, body = request(base, "/documents/gone.xml", "DELETE")
        assert status == 404

    def test_empty_body_is_400(self, server):
        base, _ = server
        status, body = request(base, "/documents/empty.xml", "PUT", b"")
        assert status == 400


class TestOperationalEndpoints:
    def test_healthz(self, server):
        base, _ = server
        status, body = request(base, "/healthz")
        assert status == 200 and body["ok"] is True
        assert {"in_flight", "documents", "uptime_seconds"} <= set(body)

    def test_explain(self, server):
        base, _ = server
        status, body = request(base, "/explain?q=count(/r/v)")
        assert status == 200
        assert body["ops_after"] <= body["ops_before"]
        assert {p["name"] for p in body["passes"]} >= {"cse", "prune"}

    def test_explain_reports_pass_timings(self, server):
        base, _ = server
        status, body = request(base, "/explain?q=count(/r/v)")
        assert status == 200
        for entry in body["passes"]:
            assert entry["seconds"] >= 0.0

    def test_explain_without_query_is_400(self, server):
        base, _ = server
        status, _ = request(base, "/explain")
        assert status == 400

    def test_stats_surface(self, server):
        base, _ = server
        post_query(base, {"query": "count(/r/v)"})
        status, body = request(base, "/stats")
        assert status == 200
        assert body["requests_total"] >= 1
        assert body["queries_executed"] >= 1
        assert body["in_flight"] == 0
        assert 0.0 <= body["plan_cache"]["hit_rate"] <= 1.0
        assert "cse" in body["optimizer_pass_totals"]

    def test_stats_arena_section_returns_to_the_watermark(self, server):
        """A constructing query's nodes live as long as its stream: once
        the response is fully read, /stats shows the arena popped back."""
        base, service = server
        status, body = post_query(
            base, {"query": "for $v in /r/v return <w>{$v}</w>"}
        )
        assert status == 200
        assert body["result"] == "<w><v>1</v></w><w><v>2</v></w><w><v>3</v></w>"
        _, stats = request(base, "/stats")
        arena = stats["arena"]
        for key in (
            "rows", "persistent_rows", "transient_rows", "live_leases",
            "pops", "reclaimed_rows", "index_extensions",
            "dead_persistent_rows",
        ):
            assert key in arena, key
        assert arena["transient_rows"] == 0
        assert arena["live_leases"] == 0
        assert arena["pops"] >= 1 and arena["reclaimed_rows"] >= 6
        assert arena == service.database.arena_report()

    def test_unknown_route_is_404(self, server):
        base, _ = server
        status, _ = request(base, "/nope")
        assert status == 404


class TestServiceDirect:
    """The protocol-independent core, driven without HTTP."""

    def test_concurrent_requests_against_live_server(self, server):
        base, _ = server
        results = []

        def client():
            for _ in range(5):
                results.append(post_query(base, {"query": "count(/r/v)"}))

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(results) == 20
        assert all(
            status == 200 and body["result"] == "3" for status, body in results
        )

    def test_queued_requests_are_shed_after_deadline(self):
        database = Database()
        database.load_document("r.xml", DOC)
        service = QueryService(database, workers=1, deadline_seconds=0.001)
        try:
            with pytest.raises(DeadlineExceeded):
                service.execute(SLOW_QUERY)
            assert service.stats()["timeouts"] == 1
        finally:
            service.shutdown(wait=True)

    def test_bad_session_options_fail_at_construction(self):
        from repro.errors import PathfinderError

        t0 = time.monotonic()
        with pytest.raises(PathfinderError, match="unknown optimizer pass"):
            QueryService(session_options={"disabled_passes": ["nope"]})
        assert time.monotonic() - t0 < 5.0

    def test_shutdown_rejects_new_work(self):
        service = QueryService(Database(), workers=1)
        service.shutdown()
        from repro.errors import PathfinderError

        with pytest.raises(PathfinderError):
            service.execute("1+1")


class TestKeepAliveIntegrity:
    """Error paths must leave the HTTP/1.1 keep-alive stream in sync."""

    def test_error_response_does_not_desync_connection(self, server):
        import http.client

        base, _ = server
        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            # a POST with a body to an unknown route: the 404 must drain
            # the body, or it would be parsed as the next request line
            conn.request("POST", "/nope", body=b'{"query": "1+1"}')
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
            # the same connection must still serve a valid request
            conn.request("POST", "/query", body=json.dumps({"query": "1+1"}))
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["result"] == "2"
            # PUT without a document name: same contract
            conn.request("PUT", "/documents/", body=b"<x/>")
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
            conn.request("POST", "/query", body=json.dumps({"query": "1+1"}))
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "framing",
        [
            b"Content-Length: abc\r\n\r\n",
            b"Content-Length: -5\r\n\r\n",
            b"Transfer-Encoding: chunked\r\n\r\n"
            b'10\r\n{"query": "1+1"}\r\n0\r\n\r\n',
        ],
        ids=["non-numeric-length", "negative-length", "chunked-request"],
    )
    def test_unfollowable_framing_is_answered_then_closed(self, server, framing):
        """Where the request ends is unknown: one 400, then a close —
        never a bare close, never body bytes parsed as a request line."""
        base, _ = server
        with raw_connection(base) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: t\r\n" + framing)
            answer = read_until_closed(sock)
        assert answer.count(b"HTTP/1.1 ") == 1
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in head.lower()
        assert set(json.loads(body)) == {"error", "kind"}

    def test_expect_100_continue_is_answered(self, server):
        """curl sends ``Expect: 100-continue`` with any body over 1 KiB
        and holds the body back (about a second) until it is answered."""
        base, _ = server
        body = b"<e>" + b"<x/>" * 400 + b"</e>"
        with raw_connection(base) as sock:
            sock.sendall(
                b"PUT /documents/expect.xml HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\nExpect: 100-continue\r\n"
                b"Connection: close\r\n\r\n" % len(body)
            )
            sock.settimeout(2.0)
            assert sock.recv(4096) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            answer = read_until_closed(sock)
        assert answer.startswith(b"HTTP/1.1 200 ")
        assert json.loads(answer.partition(b"\r\n\r\n")[2])["nodes"] == 402


class TestGracefulStop:
    """Stopping closes connections that are between requests at once and
    waits only for responses in flight."""

    @pytest.fixture()
    def stoppable(self):
        database = Database()
        database.load_document("r.xml", DOC)
        service = QueryService(database, workers=2, deadline_seconds=10.0)
        server = RouterServer(service)
        host, port = server.start()
        try:
            yield server, service, f"http://{host}:{port}"
        finally:
            server.stop(shutdown_service=True)

    def test_idle_keep_alive_client_does_not_delay_stop(self, stoppable):
        server, _, base = stoppable
        with raw_connection(base) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert sock.recv(4096).startswith(b"HTTP/1.1 200 ")
            started = time.monotonic()
            server.stop(shutdown_service=False)
            assert time.monotonic() - started < 2.0
            read_until_closed(sock)  # times out unless the server hung up

    def test_response_in_flight_completes(self, stoppable):
        server, service, base = stoppable
        execute_stream = service.execute_stream
        entered, release = threading.Event(), threading.Event()

        def held_execute_stream(*args, **kwargs):
            entered.set()
            release.wait(30)
            return execute_stream(*args, **kwargs)

        service.execute_stream = held_execute_stream
        answers = []
        client = threading.Thread(
            target=lambda: answers.append(
                post_query(base, {"query": 'doc("r.xml")'})
            )
        )
        client.start()
        assert entered.wait(10)
        stopper = threading.Thread(
            target=server.stop, kwargs={"shutdown_service": False}
        )
        stopper.start()
        stopper.join(timeout=0.3)
        assert stopper.is_alive(), "stop returned with a response in flight"
        release.set()
        client.join(timeout=10)
        stopper.join(timeout=10)
        assert not client.is_alive() and not stopper.is_alive()
        [(status, body)] = answers
        assert status == 200 and body["result"] == DOC


def test_waiting_requests_do_not_block_health_probes():
    """Requests queue inside the service, where their deadlines shed
    them — not in front of it, where a health probe would queue too."""
    database = Database()
    database.load_document("r.xml", DOC)
    service = QueryService(database, workers=1, deadline_seconds=10.0)
    gate = threading.Event()
    blocker = threading.Thread(
        target=lambda: service._submit(lambda session: gate.wait(30), deadline=30)
    )
    answers = []
    with live_server(service) as netloc:
        base = f"http://{netloc}"
        clients = [
            threading.Thread(
                target=lambda: answers.append(
                    post_query(base, {"query": "1+1", "deadline": 1.0})
                )
            )
            for _ in range(40)
        ]
        blocker.start()
        try:
            for client in clients:
                client.start()
            time.sleep(0.3)
            started = time.monotonic()
            status, health = request(base, "/healthz")
            assert time.monotonic() - started < 0.5
            assert status == 200 and health["in_flight"] == 1
            for client in clients:
                client.join(timeout=10)
            assert [status for status, _ in answers] == [504] * 40
            assert service.stats()["shed"] == 40
        finally:
            gate.set()
            blocker.join(timeout=10)


def test_stats_counts_every_failed_request():
    """Compile errors and unexpected failures must both show in /stats."""
    database = Database()
    database.load_document("r.xml", DOC)
    service = QueryService(database, workers=1)
    try:
        from repro.errors import PathfinderError

        with pytest.raises(PathfinderError):
            service.execute("for $x in")  # syntax error
        assert service.stats()["errors"] == 1
    finally:
        service.shutdown(wait=True)


def test_service_honors_disabled_passes_session_option():
    """Session options reach every worker session: a service serving with
    ``disabled_passes`` plans without those passes, so neither /explain
    nor the /stats pass totals list them."""
    database = Database()
    database.load_document("r.xml", DOC)
    service = QueryService(
        database, workers=1, session_options={"disabled_passes": ["pushdown"]}
    )
    try:
        service.execute("count(/r/v)")
        totals = service.stats()["optimizer_pass_totals"]
        assert "cse" in totals and "pushdown" not in totals
        report = service.explain("count(/r/v)")
        assert "pushdown" not in {p["name"] for p in report["passes"]}
    finally:
        service.shutdown(wait=True)


class TestReviewRegressions:
    """Contract details: falsy-but-valid queries, bad deadline types,
    shed/timeout exclusivity."""

    def test_falsy_query_text_is_executed(self, server):
        base, _ = server
        status, body = post_query(base, {"query": "0"})
        assert status == 200
        assert body["result"] == "0"

    def test_non_numeric_deadline_is_400(self, server):
        base, _ = server
        status, body = post_query(
            base, {"query": "1+1", "deadline": [5]}
        )
        assert status == 400
        assert "deadline" in body["error"]

    def test_shed_and_timeout_are_mutually_exclusive(self):
        """A request whose budget expires while queued counts as shed,
        not as a timeout — never both."""
        import threading as _threading

        database = Database()
        database.load_document("r.xml", DOC)
        service = QueryService(database, workers=1, deadline_seconds=60.0)
        try:
            gate = _threading.Event()
            # deterministically occupy the only worker until gate.set()
            blocker = _threading.Thread(
                target=lambda: service._submit(
                    lambda session: gate.wait(30), deadline=30
                )
            )
            blocker.start()
            for _ in range(200):
                if service.stats()["in_flight"] == 1:
                    break
                _threading.Event().wait(0.01)
            with pytest.raises(DeadlineExceeded):
                service.execute("1+1", deadline=0.05)  # queued, then shed
            stats = service.stats()
            assert stats["shed"] == 1
            assert stats["timeouts"] == 0
            gate.set()
            blocker.join(timeout=60)
        finally:
            service.shutdown(wait=True)


class TestChunkedQueryResponses:
    """``POST /query`` streams with chunked transfer encoding, and the
    reassembled body is byte-identical to the buffered JSON payload."""

    def _raw_query(self, base: str, payload: dict):
        """One /query round trip at the http.client level, so the raw
        transfer headers are observable."""
        import http.client
        from urllib.parse import urlparse

        url = urlparse(base)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/query",
                body=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            body = resp.read()
            return resp, body
        finally:
            conn.close()

    def test_response_is_chunked(self, server):
        base, _ = server
        resp, body = self._raw_query(base, {"query": "/r/v"})
        assert resp.status == 200
        assert resp.getheader("Transfer-Encoding") == "chunked"
        assert resp.getheader("Content-Length") is None
        assert json.loads(body)["result"] == "<v>1</v><v>2</v><v>3</v>"

    def test_body_is_byte_identical_to_buffered_json(self, server):
        """The hand-assembled chunk stream must be exactly what
        ``json.dumps`` of the buffered payload would have produced —
        including string escapes and unicode handling."""
        base, _ = server
        query = '(/r/v, "quote ""and"" backslash \\", "café", "a<b", 1.5)'
        resp, body = self._raw_query(base, {"query": query})
        assert resp.status == 200
        payload = json.loads(body)
        assert body.decode("utf-8") == json.dumps(payload)
        assert "café" in payload["result"]

    def test_multi_chunk_document_result(self, server):
        """A whole-document result streams in more than one TCP chunk
        yet reassembles to the buffered serialization."""
        base, _ = server
        resp, body = self._raw_query(base, {"query": 'doc("r.xml")'})
        assert resp.status == 200
        payload = json.loads(body)
        assert payload["result"] == DOC
        assert body.decode("utf-8") == json.dumps(payload)

    def test_result_larger_than_one_write_batch(self, server):
        """Results are written in ~64 KiB batches; the seams between
        them must not show in the reassembled body."""
        base, _ = server
        big = "<big>" + "".join(f'<e n="{i}">é"\\</e>' for i in range(20000)) + "</big>"
        status, _ = request(base, "/documents/big.xml", "PUT", big.encode("utf-8"))
        assert status == 200
        resp, body = self._raw_query(base, {"query": 'doc("big.xml")'})
        assert resp.status == 200
        payload = json.loads(body)
        assert len(body) > 4 * 64 * 1024
        assert payload["result"] == big
        assert body.decode("utf-8") == json.dumps(payload)

    def test_errors_still_buffered_json(self, server):
        base, _ = server
        status, body = post_query(base, {"query": "for $x in"})
        assert status == 400 and body["kind"] == "XQuerySyntaxError"

    def test_stream_deadline_covers_serialization(self):
        """The request budget does not stop at the worker pool: a stream
        consumed after expiry raises DeadlineExceeded and counts as a
        timeout in /stats."""
        import time as _time

        database = Database()
        database.load_document("r.xml", DOC)
        service = QueryService(database, workers=1, deadline_seconds=60.0)
        try:
            meta, chunks = service.execute_stream("/r/v", deadline=0.2)
            assert meta["items"] == 3
            before = service.stats()["timeouts"]
            _time.sleep(0.3)
            with pytest.raises(DeadlineExceeded):
                list(chunks)
            assert service.stats()["timeouts"] == before + 1
        finally:
            service.shutdown()

    def test_stream_happy_path_counts_no_errors(self):
        database = Database()
        database.load_document("r.xml", DOC)
        service = QueryService(database, workers=1)
        try:
            meta, chunks = service.execute_stream("count(/r/v)")
            assert "".join(chunks) == "3"
            stats = service.stats()
            assert stats["errors"] == 0 and stats["timeouts"] == 0
        finally:
            service.shutdown()


class TestStoreEndpoints:
    """The persistence surface over HTTP: /checkpoint, /stats store
    section, and checkpoint-on-shutdown."""

    @pytest.fixture()
    def store_server(self, tmp_path):
        database = Database(store=str(tmp_path / "db.pfstore"))
        database.load_document("r.xml", DOC)
        service = QueryService(database, workers=1, deadline_seconds=10.0)
        with live_server(service) as netloc:
            yield f"http://{netloc}", service

    def test_stats_has_store_section(self, store_server):
        base, _ = store_server
        status, body = request(base, "/stats")
        assert status == 200
        assert body["store"]["documents"] == 1
        assert body["store"]["wal_records"] == 0

    def test_checkpoint_folds_the_wal(self, store_server):
        base, service = store_server
        status, _ = request(
            base,
            "/update",
            "POST",
            json.dumps({"query": "insert node <x/> into /r"}).encode("utf-8"),
        )
        assert status == 200
        assert service.database.store.wal_bytes > 0
        status, body = request(base, "/checkpoint", "POST")
        assert status == 200
        assert body["documents_rewritten"] == 1
        assert service.database.store.wal_bytes == 0

    def test_checkpoint_without_store_is_400(self, server):
        base, _ = server
        status, body = request(base, "/checkpoint", "POST")
        assert status == 400
        assert "store" in body["error"]

    def test_shutdown_checkpoints(self, tmp_path):
        database = Database(store=str(tmp_path / "db.pfstore"))
        database.load_document("r.xml", DOC)
        service = QueryService(database, workers=1)
        service.execute_update("insert node <x/> into /r")
        assert database.store.wal_bytes > 0
        service.shutdown(wait=True)
        assert database.store.wal_bytes == 0

    def test_serve_parser_accepts_store(self, tmp_path):
        from repro.server.cli import build_serve_parser

        args = build_serve_parser().parse_args(
            ["--store", str(tmp_path / "s"), "--xmark", "0.001"]
        )
        assert args.store == str(tmp_path / "s")


class TestPagedServer:
    """Serving a catalog bigger than the paging budget: lazy recovery,
    the /stats paging section, and byte-budget CLI wiring."""

    @pytest.fixture()
    def paged_server(self, tmp_path):
        seed = Database(store=str(tmp_path / "db.pfstore"))
        seed.load_document("r.xml", DOC)
        seed.load_document("s.xml", "<s><w>9</w></s>")
        # a budget far below the two fragments' column bytes: every
        # request pages its document in and evicts the other
        database = Database.open(str(tmp_path / "db.pfstore"), page_budget_bytes=64)
        service = QueryService(database, workers=1, deadline_seconds=10.0)
        with live_server(service) as netloc:
            yield f"http://{netloc}", service

    def test_stats_has_paging_section(self, paged_server):
        base, _ = paged_server
        status, body = request(base, "/stats")
        assert status == 200
        paging = body["paging"]
        assert paging["budget_bytes"] == 64
        assert paging["fragments"] == 2
        for key in (
            "resident_bytes",
            "mapped_bytes",
            "faults",
            "evictions",
            "pinned_fragments",
        ):
            assert key in paging, key

    def test_stats_has_no_paging_section_when_off(self, server):
        base, _ = server
        _, body = request(base, "/stats")
        assert "paging" not in body

    def test_queries_succeed_under_tiny_budget(self, paged_server):
        base, _ = paged_server
        status, body = post_query(base, {"query": "/r/v/text()"})
        assert status == 200
        assert body["result"] == "123"
        status, body = post_query(base, {"query": 'doc("s.xml")/s/w/text()'})
        assert status == 200
        assert body["result"] == "9"
        _, stats = request(base, "/stats")
        assert stats["paging"]["faults"] >= 2

    def test_documents_listing_stays_cold(self, paged_server):
        base, service = paged_server
        status, body = request(base, "/documents")
        assert status == 200
        assert {d["uri"] for d in body["documents"]} == {"r.xml", "s.xml"}
        assert service.database.paging_status()["faults"] == 0

    def test_serve_parser_accepts_page_budget(self, tmp_path):
        from repro.server.cli import build_serve_parser

        args = build_serve_parser().parse_args(
            ["--store", str(tmp_path / "s"), "--page-budget", "65536"]
        )
        assert args.page_budget == 65536
        assert build_serve_parser().parse_args([]).page_budget is None
