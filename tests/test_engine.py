"""End-to-end checks of the query engine through ``repro.connect()``:
documents, result values, explain and evaluation settings."""

import pytest

from repro import connect
from repro.compiler.serialize import NodeHandle
from repro.errors import PathfinderError, StaticError

from tests.conftest import SMALL_XML, open_session


class TestDocuments:
    def test_load_returns_node_count(self):
        n = connect().database.load_document("d", "<a><b/>t</a>")
        assert n == 4  # document node + a + b + text

    def test_first_document_becomes_default(self):
        database = connect().database
        database.load_document("d1", "<a/>")
        database.load_document("d2", "<b/>")
        assert database.default_document == "d1"

    def test_default_flag_overrides(self):
        database = connect().database
        database.load_document("d1", "<a/>")
        database.load_document("d2", "<b/>", default=True)
        assert database.default_document == "d2"

    def test_duplicate_uri_rejected(self):
        database = connect().database
        database.load_document("d", "<a/>")
        with pytest.raises(PathfinderError):
            database.load_document("d", "<a/>")

    def test_queries_across_documents(self):
        session = open_session("one.xml", "<r><v>1</v></r>")
        session.database.load_document("two.xml", "<r><v>2</v></r>")
        out = session.execute('doc("one.xml")//v/text(), doc("two.xml")//v/text()')
        assert out.serialize() == "12"

    def test_absolute_path_without_documents_raises(self):
        with pytest.raises(StaticError):
            connect().execute("/a")


class TestResults:
    def test_values_decodes_atomics(self, session):
        vals = session.execute("(1, 'x', 2.5, true())").values()
        assert vals == [1, "x", 2.5, True]

    def test_values_wraps_nodes(self, session):
        vals = session.execute("/site/b").values()
        assert isinstance(vals[0], NodeHandle)
        assert vals[0].serialize() == '<b f="q">x</b>'
        assert vals[0].string_value() == "x"

    def test_attribute_handle(self, session):
        vals = session.execute("/site/b/@f").values()
        assert vals[0].is_attribute
        assert vals[0].serialize() == 'f="q"'
        assert vals[0].string_value() == "q"

    def test_timings_populated(self, session):
        r = session.execute("1+1")
        assert r.compile_seconds >= 0 and r.execute_seconds >= 0

    def test_trace_collects_intermediates(self, session):
        r = session.execute("1+1", trace=True)
        assert r.trace  # one entry per operator
        assert len(r.trace) > 3


class TestExplain:
    def test_stages_present(self, session):
        report = session.explain("for $v in (10,20) return $v + 100")
        assert report.module is not None
        assert report.core is not None
        assert report.stats.ops_before >= report.stats.ops_after
        assert "ϱ" in report.unoptimized_ascii
        assert "digraph" in report.plan_dot

    def test_explain_does_not_execute(self, session):
        before = session.database.arena.num_nodes
        session.explain("<x>{//a}</x>")
        assert session.database.arena.num_nodes == before


class TestEngineFlags:
    def test_without_optimizer(self):
        session = open_session("d", SMALL_XML, use_optimizer=False)
        assert session.execute("count(//a)").serialize() == "4"

    def test_without_staircase(self):
        session = open_session("d", SMALL_XML, use_staircase=False)
        assert session.execute("count(//a)").serialize() == "4"

    def test_storage_report(self, session):
        report = session.database.storage_report()
        assert report.xml_bytes > 0
        assert report.node_rows == session.database.arena.num_nodes
