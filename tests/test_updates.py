"""The XQuery Update Facility subset, end to end.

Covers the parser productions, the pending-update-list stage, structural
application over the arena (epoch rebuild), the Session/Database write
path with plan-cache invalidation, atomicity under concurrent readers,
and the ``POST /update`` server endpoint.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro.api.prepared import PreparedQuery
from repro.errors import DynamicError, StaticError
from repro.xquery import ast
from repro.xquery.core import is_updating
from repro.xquery.parser import parse_query

DOC = "<site><a id='1'>x</a><b><c>mid</c></b><a id='2'>y</a></site>"


@pytest.fixture
def session():
    s = repro.connect()
    s.database.load_document("d.xml", DOC)
    return s


def doc_text(session) -> str:
    return session.execute("/site").serialize()


# ----------------------------------------------------------------- parsing
class TestParsing:
    def test_insert_into(self):
        e = parse_query("insert node <x/> into /site").body
        assert isinstance(e, ast.InsertExpr) and e.position == "into"

    def test_insert_as_first(self):
        e = parse_query("insert nodes <x/> as first into /site").body
        assert isinstance(e, ast.InsertExpr) and e.position == "first"

    def test_insert_as_last(self):
        e = parse_query("insert node <x/> as last into /site").body
        assert e.position == "last"

    def test_insert_before_after(self):
        assert parse_query("insert node <x/> before /site/b").body.position == "before"
        assert parse_query("insert node <x/> after /site/b").body.position == "after"

    def test_delete(self):
        assert isinstance(parse_query("delete node /site/a").body, ast.DeleteExpr)
        assert isinstance(parse_query("delete nodes //a").body, ast.DeleteExpr)

    def test_replace(self):
        e = parse_query("replace node /site/b with <b2/>").body
        assert isinstance(e, ast.ReplaceExpr)

    def test_replace_value(self):
        e = parse_query('replace value of node /site/b with "v"').body
        assert isinstance(e, ast.ReplaceValueExpr)

    def test_rename(self):
        e = parse_query('rename node /site/b as "bb"').body
        assert isinstance(e, ast.RenameExpr)

    def test_is_updating_through_flwor_and_if(self):
        q = (
            "for $x in //a return if ($x/@id = '1') "
            "then delete node $x else rename node $x as 'kept'"
        )
        assert is_updating(parse_query(q).body)
        assert not is_updating(parse_query("count(//a)").body)

    def test_paths_over_update_keyword_names_still_parse(self):
        # 'insert', 'delete', ... remain usable as element names in paths
        for q in ("/site/insert", "//delete", "/site/replace/rename"):
            parse_query(q)

    def test_missing_location_is_syntax_error(self):
        from repro.errors import XQuerySyntaxError

        with pytest.raises(XQuerySyntaxError):
            parse_query("insert node <x/> onto /site")


# ------------------------------------------------------------- primitives
class TestPrimitives:
    def test_insert_into_appends(self, session):
        session.execute_update("insert node <z/> into /site/b")
        assert doc_text(session) == (
            "<site><a id=\"1\">x</a><b><c>mid</c><z/></b><a id=\"2\">y</a></site>"
        )

    def test_insert_as_first(self, session):
        session.execute_update("insert node <z/> as first into /site/b")
        assert "<b><z/><c>mid</c></b>" in doc_text(session)

    def test_insert_before_and_after(self, session):
        session.execute_update(
            "insert node <p/> before /site/b, insert node <q/> after /site/b"
        )
        assert "<p/><b><c>mid</c></b><q/>" in doc_text(session)

    def test_insert_atomic_content_becomes_text(self, session):
        session.execute_update('insert node (1, "two") into /site/b')
        assert "<b><c>mid</c>1 two</b>" in doc_text(session)

    def test_insert_copies_existing_subtree(self, session):
        session.execute_update("insert node /site/b/c into /site/a[1]")
        out = doc_text(session)
        assert '<a id="1">x<c>mid</c></a>' in out
        assert "<b><c>mid</c></b>" in out  # the source is copied, not moved

    def test_insert_attribute(self, session):
        session.execute_update(
            'insert node attribute marked {"yes"} into /site/b'
        )
        assert '<b marked="yes">' in doc_text(session)

    def test_delete_node(self, session):
        session.execute_update("delete node /site/b")
        assert doc_text(session) == '<site><a id="1">x</a><a id="2">y</a></site>'

    def test_delete_multiple_targets(self, session):
        session.execute_update("delete nodes //a")
        assert doc_text(session) == "<site><b><c>mid</c></b></site>"

    def test_delete_attribute(self, session):
        session.execute_update("delete node /site/a[1]/@id")
        assert "<a>x</a>" in doc_text(session)

    def test_replace_node(self, session):
        session.execute_update('replace node /site/b with <nb wins="1"/>')
        assert '<nb wins="1"/>' in doc_text(session)
        assert "<c>mid</c>" not in doc_text(session)

    def test_replace_value_of_element(self, session):
        session.execute_update('replace value of node /site/b with "flat"')
        assert "<b>flat</b>" in doc_text(session)

    def test_replace_value_of_text(self, session):
        session.execute_update(
            'replace value of node /site/b/c/text() with "deep"'
        )
        assert "<c>deep</c>" in doc_text(session)

    def test_replace_value_of_attribute(self, session):
        session.execute_update('replace value of node /site/a[1]/@id with "9"')
        assert '<a id="9">x</a>' in doc_text(session)

    def test_rename_element(self, session):
        session.execute_update('rename node /site/b as "block"')
        assert "<block><c>mid</c></block>" in doc_text(session)

    def test_rename_attribute(self, session):
        session.execute_update('rename node /site/a[1]/@id as "key"')
        assert '<a key="1">x</a>' in doc_text(session)

    def test_flwor_update_per_binding(self, session):
        session.execute_update(
            "for $a in //a return replace value of node $a/@id with 'n'"
        )
        assert doc_text(session).count('id="n"') == 2

    def test_conditional_update(self, session):
        session.execute_update(
            "for $a in //a return if ($a/@id = '1') "
            "then delete node $a else rename node $a as 'kept'"
        )
        out = doc_text(session)
        assert 'id="1"' not in out and '<kept id="2">y</kept>' in out

    def test_external_variable_binding(self, session):
        session.execute_update(
            "declare variable $v external; "
            "replace value of node /site/b with $v",
            {"v": "bound"},
        )
        assert "<b>bound</b>" in doc_text(session)

    def test_applied_summary(self, session):
        summary = session.execute_update(
            "delete node /site/a[1], insert node <n/> into /site/b"
        )
        assert summary["applied"] == {"delete": 1, "insert": 1}
        # 9 original rows, minus <a>+text, plus the inserted <n/>
        assert summary["documents"]["d.xml"]["nodes"] == 8
        assert session.stats.updates_executed == 1


# ----------------------------------------------------------------- errors
class TestErrors:
    def test_undeclared_binding_rejected(self, session):
        from repro.errors import PathfinderError

        with pytest.raises(PathfinderError) as exc:
            session.execute_update(
                'replace value of node /site/b with "x"', {"zzz": 5}
            )
        assert "declares no external variable" in str(exc.value)

    def test_non_updating_query_rejected(self, session):
        with pytest.raises(StaticError) as exc:
            session.execute_update("count(//a)")
        assert exc.value.code == "err:XUST0001"

    def test_updating_query_rejected_on_read_path(self, session):
        with pytest.raises(StaticError) as exc:
            session.execute("delete node /site/b")
        assert exc.value.code == "err:XUST0001"

    def test_delete_document_root_rejected(self, session):
        with pytest.raises(DynamicError) as exc:
            session.execute_update("delete node /site")
        assert exc.value.code == "err:XUDY0020"

    def test_duplicate_rename_rejected(self, session):
        with pytest.raises(DynamicError) as exc:
            session.execute_update(
                "rename node /site/b as 'x', rename node /site/b as 'y'"
            )
        assert exc.value.code == "err:XUDY0015"

    def test_duplicate_replace_rejected(self, session):
        with pytest.raises(DynamicError) as exc:
            session.execute_update(
                "replace node /site/b with <p/>, replace node /site/b with <q/>"
            )
        assert exc.value.code == "err:XUDY0016"

    def test_duplicate_replace_value_rejected(self, session):
        with pytest.raises(DynamicError) as exc:
            session.execute_update(
                "replace value of node /site/b with 'x', "
                "replace value of node /site/b with 'y'"
            )
        assert exc.value.code == "err:XUDY0017"

    def test_insert_into_text_rejected(self, session):
        with pytest.raises(DynamicError) as exc:
            session.execute_update("insert node <x/> into /site/a[1]/text()")
        assert exc.value.code == "err:XUTY0005"

    def test_insert_before_root_rejected(self, session):
        with pytest.raises(DynamicError) as exc:
            session.execute_update("insert node <x/> before /site")
        assert exc.value.code == "err:XUDY0029"

    def test_multi_node_target_rejected(self, session):
        with pytest.raises(DynamicError) as exc:
            session.execute_update("replace value of node //a with 'v'")
        assert exc.value.code == "err:XUTY0008"

    def test_update_on_constructed_fragment_rejected(self, session):
        with pytest.raises(DynamicError) as exc:
            session.execute_update("delete node (<t><u/></t>)/u")
        assert exc.value.code == "err:XUDY0014"

    def test_attributes_after_content_rejected(self, session):
        with pytest.raises(DynamicError) as exc:
            session.execute_update(
                'insert node (<x/>, attribute a {"1"}) into /site/b'
            )
        assert exc.value.code == "err:XUTY0004"

    @pytest.mark.parametrize(
        "update",
        [
            'rename node /r/@b as "a"',
            'insert node attribute id {"w"} into /r',
            'replace node /r/@b with attribute a {"3"}',
            'insert node (attribute z {"1"}, attribute z {"2"}) into /r',
        ],
    )
    def test_duplicate_attribute_name_rejected(self, tmp_path, update):
        s = repro.connect(store=str(tmp_path / "db.pfstore"))
        s.database.load_document("r.xml", '<r a="1" b="2" id="v"/>')
        with pytest.raises(DynamicError) as exc:
            s.execute_update(update)
        assert exc.value.code == "err:XUDY0021"
        # raised before the WAL append: nothing logged, nothing applied
        assert s.database.store.wal_records == 0
        assert s.execute("/r").serialize() == '<r a="1" b="2" id="v"/>'

    @pytest.mark.parametrize(
        "update",
        [
            'rename node /r/@a as "b", rename node /r/@b as "a"',
            'delete node /r/@a, rename node /r/@b as "a"',
            'replace node /r/@a with attribute b {"3"}, delete node /r/@b',
            'insert node attribute a {"3"} into /r/e, delete node /r/e',
        ],
    )
    def test_attribute_names_unique_after_the_update_pass(self, update):
        s = repro.connect()
        s.database.load_document("r.xml", '<r a="1" b="2"><e a="1"/></r>')
        s.execute_update(update)
        names = s.execute("for $a in /r/@* return name($a)").serialize()
        assert len(names.split()) == len(set(names.split()))

    def test_failed_update_leaves_tree_untouched(self, session):
        before = doc_text(session)
        epoch = session.database.doc_epochs["d.xml"]
        with pytest.raises(DynamicError):
            session.execute_update(
                "delete node /site/b, rename node /site/b as 'x', "
                "rename node /site/b as 'y'"
            )
        assert doc_text(session) == before
        assert session.database.doc_epochs["d.xml"] == epoch


# ----------------------------------------------- epochs, caches, sessions
class TestEpochsAndCaches:
    def test_epoch_bumps_and_plans_stay_hot(self, session):
        db = session.database
        prepared = session.prepare("count(//a)")
        assert prepared.execute().serialize() == "2"
        epoch = db.doc_epochs["d.xml"]
        compiles = session.stats.plan_cache_misses

        session.execute_update("replace value of node /site/b/c with 'new'")
        assert db.doc_epochs["d.xml"] > epoch
        # the epoch versions content only: the plan is still valid and
        # the held PreparedQuery, like a cache lookup, reads the new tree
        assert session.execute("/site/b/c/text()").serialize() == "new"
        assert prepared.execute().serialize() == "2"
        assert session.prepare("count(//a)").from_cache
        assert session.stats.plan_cache_misses == compiles + 1  # c/text()
        assert db.plan_cache.stats.invalidations == 0

    def test_growing_document_never_recompiles(self):
        # 20 nodes (document, site, b, 17 x) grown to 100 by inserts: a
        # plan resolves the document at run time, however large it is
        session = repro.connect()
        db = session.database
        db.load_document("g.xml", "<site><b>" + "<x/>" * 17 + "</b></site>")
        queries = ("count(//w)", "/site/b/w[last()]/@n/string()")
        for query in queries:
            session.prepare(query)
        for i in range(1, 21):
            session.execute_update(
                f"insert node (<w/>, <w/>, <w/>, <w n='{i}'/>) into /site/b"
            )
            for query in queries:
                result = session.execute(query)
                assert result.from_cache, (i, query)
                fresh = PreparedQuery(
                    session, db.compile_query(query, True), from_cache=False
                )
                assert result.serialize() == fresh.execute().serialize()
        assert [session.execute(q).serialize() for q in queries] == ["80", "20"]
        assert db.catalog_snapshot()[0]["nodes"] == 100
        assert db.plan_cache.stats.invalidations == 0

    def test_other_documents_stay_hot(self, session):
        db = session.database
        db.load_document("other.xml", "<o><k/></o>")
        other = session.prepare("count(doc('other.xml')//k)")
        other.execute()
        epoch = db.doc_epochs["other.xml"]
        hits_before = db.plan_cache.stats.hits

        session.execute_update("delete node /site/b")
        assert db.doc_epochs["other.xml"] == epoch
        session.prepare("count(doc('other.xml')//k)")
        assert db.plan_cache.stats.hits > hits_before

    def test_second_session_observes_update(self, session):
        reader = session.database.connect()
        assert reader.execute("count(//a)").serialize() == "2"
        session.execute_update("delete node /site/a[1]")
        assert reader.execute("count(//a)").serialize() == "1"

    def test_catalog_snapshot_reflects_new_root(self, session):
        session.execute_update("delete node /site/b")
        [entry] = session.database.catalog_snapshot()
        assert entry["nodes"] == 6  # 9 rows originally, minus <b><c>mid</c>

    def test_repeated_updates_accumulate(self, session):
        for i in range(5):
            session.execute_update("insert node <w/> into /site/b")
        assert session.execute("count(//w)").serialize() == "5"


class TestConcurrentReaders:
    def test_readers_never_see_torn_documents(self):
        """Readers racing an updater must observe consistent document
        states: <pair> always holds equally many <l> and <r> children."""
        db = repro.connect().database
        db.load_document("race.xml", "<pair/>", default=True)
        stop = threading.Event()
        bad: list[str] = []

        def reader():
            s = db.connect()
            while not stop.is_set():
                out = s.execute(
                    "string-join((string(count(/pair/l)), "
                    "string(count(/pair/r))), ',')"
                ).serialize()
                left, right = out.split(",")
                if left != right:
                    bad.append(out)
                    return

        threads = [threading.Thread(target=reader, daemon=True) for _ in range(3)]
        for t in threads:
            t.start()
        writer = db.connect()
        try:
            for _ in range(20):
                writer.execute_update(
                    "insert node <l/> as first into /pair, "
                    "insert node <r/> as last into /pair"
                )
        finally:
            stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not bad, f"torn reads observed: {bad}"
        assert writer.execute("count(/pair/l)").serialize() == "20"


# ------------------------------------------------------------------ server
@pytest.fixture()
def server():
    from repro import Database
    from repro.server import QueryService
    from tests.conftest import live_server

    database = Database()
    database.load_document("d.xml", DOC)
    service = QueryService(database, workers=2, deadline_seconds=10.0)
    with live_server(service) as netloc:
        yield f"http://{netloc}", service


def post(base: str, path: str, payload: dict):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


class TestUpdateEndpoint:
    def test_post_update_applies_and_queries_see_it(self, server):
        base, service = server
        status, body = post(base, "/query", {"query": "count(//a)"})
        assert (status, body["result"]) == (200, "2")

        status, body = post(
            base, "/update", {"query": "insert node <a id='3'/> into /site"}
        )
        assert status == 200
        assert body["applied"] == {"insert": 1}
        assert body["documents"]["d.xml"]["epoch"] > 1

        status, body = post(base, "/query", {"query": "count(//a)"})
        assert (status, body["result"]) == (200, "3")
        assert service.stats()["updates_executed"] == 1

    def test_post_update_with_bindings(self, server):
        base, _ = server
        status, body = post(
            base,
            "/update",
            {
                "query": (
                    "declare variable $v external; "
                    "replace value of node /site/b/c with $v"
                ),
                "bindings": {"v": "net"},
            },
        )
        assert status == 200
        status, body = post(base, "/query", {"query": "string(/site/b/c)"})
        assert body["result"] == "net"

    def test_non_updating_query_is_400(self, server):
        base, _ = server
        status, body = post(base, "/update", {"query": "count(//a)"})
        assert status == 400
        assert "XUST0001" in body["error"]

    def test_updating_query_on_query_route_is_400(self, server):
        base, _ = server
        status, body = post(base, "/query", {"query": "delete node /site/b"})
        assert status == 400
        assert "XUST0001" in body["error"]
