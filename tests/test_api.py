"""Tests for the layered API: Database / Session / PreparedQuery /
plan cache / external-variable binding."""

import pytest

import repro
from repro import Database, connect
from repro.api.plan_cache import size_class
from repro.errors import DynamicError, PathfinderError, StaticError

DOC = "<r><v>1</v><v>2</v><v>3</v></r>"
PARAM_QUERY = (
    "declare variable $n as xs:integer external; /r/v[position() <= $n]/text()"
)


@pytest.fixture
def db():
    database = Database()
    database.load_document("r.xml", DOC)
    return database


@pytest.fixture
def session(db):
    return db.connect()


class TestConnect:
    def test_connect_creates_private_database(self):
        session = connect()
        assert session.database.documents == {}

    def test_connect_shares_database(self, db):
        s1, s2 = connect(db), connect(db)
        assert s1.database is s2.database

    def test_settings_propagate(self, db):
        session = connect(db, use_staircase=False, use_optimizer=False)
        assert not session.use_staircase and not session.use_optimizer
        assert session.execute("count(/r/v)").serialize() == "3"

    def test_unknown_disabled_pass_fails_at_connect(self, db):
        """A bad pass name fails when the session is built, before any
        compile, with the same message ``optimize()`` gives."""
        for bad in ({"nope"}, ("pushdown", "no_such_pass")):
            with pytest.raises(PathfinderError, match="unknown optimizer pass"):
                connect(disabled_passes=bad)
            with pytest.raises(PathfinderError, match="unknown optimizer pass"):
                db.connect(disabled_passes=bad)
        assert db.connect(disabled_passes=["pushdown"]).disabled_passes == {"pushdown"}


class TestDocumentCatalog:
    def test_duplicate_load_rejected(self, db):
        with pytest.raises(PathfinderError):
            db.load_document("r.xml", DOC)

    def test_replace_swaps_document(self, db, session):
        assert session.execute("count(/r/v)").serialize() == "3"
        db.load_document("r.xml", "<r><v>9</v></r>", replace=True)
        assert session.execute("count(/r/v)").serialize() == "1"

    def test_unload_removes_document(self, db, session):
        db.unload_document("r.xml")
        assert "r.xml" not in db.documents
        with pytest.raises(StaticError):
            session.execute("/r/v")

    def test_unload_unknown_uri_raises(self, db):
        with pytest.raises(PathfinderError):
            db.unload_document("nope.xml")

    def test_unload_then_reload(self, db, session):
        db.unload_document("r.xml")
        db.load_document("r.xml", "<r><v>7</v></r>")
        assert session.execute("/r/v/text()").serialize() == "7"

    def test_first_load_is_implicit_default(self, db):
        assert db.default_document == "r.xml"
        assert db.default_is_implicit

    def test_explicit_default_flag(self, db):
        db.load_document("b.xml", "<b/>", default=True)
        assert db.default_document == "b.xml"
        assert not db.default_is_implicit

    def test_set_default_document(self, db):
        db.load_document("b.xml", "<b/>")
        db.set_default_document("b.xml")
        assert db.default_document == "b.xml"
        assert not db.default_is_implicit

    def test_set_default_requires_loaded(self, db):
        with pytest.raises(PathfinderError):
            db.set_default_document("nope.xml")

    def test_unload_default_clears_default(self, db):
        db.unload_document("r.xml")
        assert db.default_document is None


class TestPlanCache:
    def test_first_prepare_misses_second_hits(self, db, session):
        p1 = session.prepare("count(/r/v)")
        p2 = session.prepare("count(/r/v)")
        assert not p1.from_cache and p2.from_cache
        assert db.plan_cache.stats.hits == 1
        assert db.plan_cache.stats.misses == 1

    def test_hit_shares_the_plan_dag(self, session):
        p1 = session.prepare("count(/r/v)")
        p2 = session.prepare("count(/r/v)")
        assert p1.plan is p2.plan

    def test_replace_invalidates_affected_plans(self, db, session):
        """Only a replace that moves the document out of its size class
        drops its plans — on the next lookup, counted once."""
        session.prepare("count(/r/v)")
        bigger = "<r>" + "<v>1</v>" * 12 + "</r>"
        assert size_class(25) != size_class(7)  # 1 + 2*12 nodes vs 7
        db.load_document("r.xml", bigger, replace=True)
        prepared = session.prepare("count(/r/v)")
        assert not prepared.from_cache
        assert prepared.execute().serialize() == "12"
        assert db.plan_cache.stats.invalidations == 1
        assert session.prepare("count(/r/v)").from_cache

    def test_same_class_replace_keeps_plan_and_reads_new_tree(self, db, session):
        assert session.execute("/r/v/text()").serialize() == "123"
        db.load_document("r.xml", "<r><v>7</v><v>8</v><v>9</v></r>", replace=True)
        result = session.execute("/r/v/text()")
        assert result.from_cache
        assert result.serialize() == "789"
        assert db.plan_cache.stats.invalidations == 0

    def test_unrelated_change_keeps_plans_hot(self, db, session):
        session.prepare("count(/r/v)")
        db.load_document("other.xml", "<z/>", replace=False)
        session.prepare('count(doc("other.xml")/z)')
        db.load_document("other.xml", "<z><y/><y/><y/></z>", replace=True)
        # the plan over r.xml never looks at other.xml; the plan over
        # other.xml sees it grow from 2 to 5 nodes, out of its class
        assert session.prepare("count(/r/v)").from_cache
        assert not session.prepare('count(doc("other.xml")/z)').from_cache
        assert db.plan_cache.stats.invalidations == 1

    def test_unload_invalidates(self, db, session):
        query = 'count(doc("o.xml")/o)'
        db.load_document("o.xml", "<o/>")
        session.prepare(query)
        db.unload_document("o.xml")
        # the next lookup finds the plan's document gone: the entry is
        # dropped (lazily, not by the unload) and the recompile fails
        with pytest.raises(StaticError) as exc:
            session.prepare(query)
        assert exc.value.code == "err:FODC0002"
        assert db.plan_cache.stats.invalidations == 1
        db.load_document("o.xml", "<o/>")
        assert not session.prepare(query).from_cache

    def test_unload_fails_held_prepared_query(self, db, session):
        db.load_document("other.xml", "<o><k/></o>")
        prepared = session.prepare('count(doc("other.xml")//k)')
        assert prepared.execute().serialize() == "1"
        db.unload_document("other.xml")
        with pytest.raises(PathfinderError) as exc:
            prepared.execute()
        assert exc.value.code == "err:FODC0002"

    def test_optimizer_setting_is_part_of_the_key(self, db):
        db.connect(use_optimizer=True).prepare("count(/r/v)")
        assert not db.connect(use_optimizer=False).prepare("count(/r/v)").from_cache

    def test_lru_eviction(self):
        database = Database(plan_cache_size=2)
        database.load_document("r.xml", DOC)
        session = database.connect()
        for q in ("1+1", "2+2", "3+3"):
            session.execute(q)
        assert len(database.plan_cache) == 2
        assert database.plan_cache.stats.evictions == 1
        assert not session.prepare("1+1").from_cache  # evicted
        assert session.prepare("3+3").from_cache

    def test_cache_capacity_validated(self):
        with pytest.raises(PathfinderError, match="plan cache capacity"):
            Database(plan_cache_size=0)

    def test_stale_prepared_query_revalidates(self, db, session):
        prepared = session.prepare("count(/r/v)")
        db.load_document("r.xml", "<r><v>1</v></r>", replace=True)
        assert prepared.execute().serialize() == "1"

    def test_default_document_switch_revalidates_prepared(self, db, session):
        db.load_document("b.xml", "<r><v>B</v></r>")
        prepared = session.prepare("/r/v/text()")
        assert prepared.execute().serialize() == "123"
        db.set_default_document("b.xml")
        # the held prepared query must follow the new default, matching
        # what a fresh session.execute of the same text returns
        assert prepared.execute().serialize() == "B"
        assert session.execute("/r/v/text()").serialize() == "B"

    def test_join_recognition_setting_is_part_of_the_key(self, db):
        q = "count(/r/v)"
        db.connect(use_join_recognition=True).prepare(q)
        assert not db.connect(use_join_recognition=False).prepare(q).from_cache

    def test_disabled_passes_are_part_of_the_key(self, db):
        q = "count(/r/v)"
        db.connect().prepare(q)
        off = db.connect(disabled_passes={"pushdown"})
        assert not off.prepare(q).from_cache
        assert off.prepare(q).from_cache  # same config hits its own entry

    def test_disabled_pass_absent_from_stats(self, db):
        session = db.connect(disabled_passes={"pushdown"})
        entry = session.prepare("count(/r/v)")._entry
        assert "pushdown" not in {p.name for p in entry.stats.pass_stats}
        assert "cse" in {p.name for p in entry.stats.pass_stats}

    def test_session_stats_track_cache_traffic(self, db):
        session = db.connect()
        session.execute("count(/r/v)")
        session.execute("count(/r/v)")
        assert session.stats.plan_cache_misses == 1
        assert session.stats.plan_cache_hits == 1
        assert session.stats.queries_executed == 2
        assert session.stats.execute_seconds > 0


class TestExternalVariables:
    def test_binding_via_dict_and_kwargs(self, session):
        prepared = session.prepare(PARAM_QUERY)
        assert prepared.execute({"n": 2}).serialize() == "12"
        assert prepared.execute(n=3).serialize() == "123"

    def test_parameters_exposed(self, session):
        prepared = session.prepare(PARAM_QUERY)
        assert [(v.name, v.type_name) for v in prepared.parameters] == [
            ("n", "xs:integer")
        ]

    def test_one_plan_many_bindings(self, session):
        prepared = session.prepare(PARAM_QUERY)
        outs = [prepared.execute(n=k).serialize() for k in (1, 2, 3)]
        assert outs == ["1", "12", "123"]

    def test_type_mismatch_raises_pathfinder_error(self, session):
        prepared = session.prepare(PARAM_QUERY)
        with pytest.raises(PathfinderError):
            prepared.execute(n="two")

    def test_unbound_variable_raises(self, session):
        prepared = session.prepare(PARAM_QUERY)
        with pytest.raises(DynamicError):
            prepared.execute()

    def test_unknown_binding_name_raises(self, session):
        prepared = session.prepare(PARAM_QUERY)
        with pytest.raises(PathfinderError):
            prepared.execute(n=1, bogus=2)

    def test_sequence_binding(self, session):
        q = "declare variable $xs external; sum($xs)"
        assert session.prepare(q).execute(xs=[1, 2, 3]).serialize() == "6"

    def test_string_binding_in_comparison(self, session):
        q = (
            "declare variable $want as xs:string external; "
            "count(/r/v[text() = $want])"
        )
        assert session.prepare(q).execute(want="2").serialize() == "1"

    def test_integer_promotes_to_double(self, session):
        q = "declare variable $x as xs:double external; $x * 2"
        assert session.prepare(q).execute(x=21).serialize() == "42"

    def test_untyped_declaration_accepts_anything(self, session):
        q = "declare variable $x external; $x"
        prepared = session.prepare(q)
        assert prepared.execute(x="hi").serialize() == "hi"
        assert prepared.execute(x=1.5).serialize() == "1.5"

    def test_session_variables_as_defaults(self, session):
        session.set_variable("n", 1)
        assert session.execute(PARAM_QUERY).serialize() == "1"
        # per-call bindings override the session default
        assert session.prepare(PARAM_QUERY).execute(n=3).serialize() == "123"

    def test_unset_variable(self, session):
        session.set_variable("n", 1)
        session.unset_variable("n")
        with pytest.raises(DynamicError):
            session.execute(PARAM_QUERY)

    def test_baseline_unaffected_by_declaration_parse(self, session):
        # plain `declare variable := expr` still works alongside externals
        q = (
            "declare variable $n as xs:integer external; "
            "declare variable $m := 10; $n + $m"
        )
        assert session.prepare(q).execute(n=5).serialize() == "15"

    def test_external_variable_visible_in_functions(self, session):
        q = (
            "declare variable $n as xs:integer external; "
            "declare function double() { $n * 2 }; "
            "double() + $n"
        )
        assert session.prepare(q).execute(n=7).serialize() == "21"

    def test_function_parameter_shadows_external(self, session):
        q = (
            "declare variable $n as xs:integer external; "
            "declare function f($n) { $n + 1 }; "
            "f(100)"
        )
        assert session.prepare(q).execute(n=7).serialize() == "101"

    def test_oversized_integer_binding_raises(self, session):
        prepared = session.prepare("declare variable $n external; $n")
        with pytest.raises(PathfinderError):
            prepared.execute(n=2**70)

    def test_unsupported_declared_type_rejected_at_prepare(self, session):
        from repro.errors import NotSupportedError

        with pytest.raises(NotSupportedError):
            session.prepare("declare variable $d as xs:date external; $d")

    def test_duplicate_global_declaration_rejected(self, session):
        from repro.errors import XQuerySyntaxError

        for q in (
            "declare variable $x := 1; declare variable $x external; $x",
            "declare variable $x external; declare variable $x := 1; $x",
            "declare variable $x external; declare variable $x external; $x",
            "declare variable $x := 1; declare variable $x := 2; $x",
        ):
            with pytest.raises(XQuerySyntaxError):
                session.prepare(q)


class TestConcurrentSessions:
    def test_two_sessions_share_documents_and_cache(self, db):
        s1, s2 = db.connect(), db.connect()
        assert s1.execute("count(/r/v)").serialize() == "3"
        assert s2.prepare("count(/r/v)").from_cache
        assert s2.stats.plan_cache_hits == 1

    def test_session_variables_are_isolated(self, db):
        s1, s2 = db.connect(), db.connect()
        s1.set_variable("n", 1)
        s2.set_variable("n", 3)
        assert s1.execute(PARAM_QUERY).serialize() == "1"
        assert s2.execute(PARAM_QUERY).serialize() == "123"

    def test_session_settings_are_isolated(self, db):
        s1 = db.connect(use_staircase=True)
        s2 = db.connect(use_staircase=False)
        assert s1.execute("count(//v)").serialize() == "3"
        assert s2.execute("count(//v)").serialize() == "3"
        assert s1.use_staircase and not s2.use_staircase

    def test_interleaved_executions(self, db):
        s1, s2 = db.connect(), db.connect()
        p1 = s1.prepare(PARAM_QUERY)
        p2 = s2.prepare(PARAM_QUERY)
        assert p1.execute(n=1).serialize() == "1"
        assert p2.execute(n=2).serialize() == "12"
        assert p1.execute(n=3).serialize() == "123"


class TestQueryResult:
    def test_len_and_iter_without_serializing(self, session):
        result = session.execute("for $v in /r/v return data($v)")
        assert len(result) == 3
        assert list(result) == ["1", "2", "3"]
        assert result._serialized is None  # nothing serialised yet

    def test_serialize_is_cached(self, session):
        result = session.execute("1, 2")
        assert result.serialize() == "1 2"
        assert result._serialized == "1 2"
        assert result.serialize() is result.serialize()

    def test_node_items_iterate_as_handles(self, session):
        handles = list(session.execute("/r/v"))
        assert [h.serialize() for h in handles] == [
            "<v>1</v>", "<v>2</v>", "<v>3</v>",
        ]

    def test_empty_result_is_truthy(self, session):
        result = session.execute("/r/nothing")
        assert len(result) == 0
        assert bool(result)  # an outcome, not a container

    def test_from_cache_flag(self, session):
        session.execute("count(/r/v)")
        assert session.execute("count(/r/v)").from_cache

    def test_trace_collects_intermediates(self, session):
        result = session.execute("1+1", trace=True)
        assert result.trace and len(result.trace) > 3


class TestPublicNames:
    def test_query_result_is_what_execute_returns(self):
        assert isinstance(connect().execute("1"), repro.QueryResult)
        assert repro.QueryResult is repro.api.prepared.QueryResult

    def test_explain_returns_the_report(self, session):
        report = session.explain("for $v in (10,20) return $v + 100")
        assert isinstance(report, repro.ExplainReport)
        assert report.stats.ops_before >= report.stats.ops_after
        assert "ϱ" in report.unoptimized_ascii


class TestCLIPreparedMode:
    def _run(self, argv):
        import io

        from repro.__main__ import main

        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_bind_and_repeat(self, tmp_path):
        doc = tmp_path / "d.xml"
        doc.write_text(DOC)
        code, out = self._run(
            [
                "-q", PARAM_QUERY,
                "--doc", f"r.xml={doc}",
                "--bind", "n=2",
                "--repeat", "3",
                "--time",
            ]
        )
        assert code == 0
        assert "12" in out
        assert out.count("plan cached") == 2

    def test_bind_value_typing(self):
        from repro.__main__ import coerce_binding, parse_binding

        assert parse_binding("n=3") == ("n", "3")
        assert parse_binding("$q=1") == ("q", "1")
        # untyped declarations: int, then float, else string
        assert coerce_binding("3", None) == 3
        assert coerce_binding("2.5", None) == 2.5
        assert coerce_binding("abc", None) == "abc"
        # declared types steer the conversion
        assert coerce_binding("02134", "xs:string") == "02134"
        assert coerce_binding("3", "xs:double") == 3.0
        assert coerce_binding("true", "xs:boolean") is True
        with pytest.raises(PathfinderError):
            coerce_binding("abc", "xs:integer")
        with pytest.raises(PathfinderError):
            coerce_binding("maybe", "xs:boolean")

    def test_numeric_looking_string_binds_from_cli(self, tmp_path):
        doc = tmp_path / "d.xml"
        doc.write_text(DOC)
        code, out = self._run(
            [
                "-q",
                'declare variable $s as xs:string external; concat("got:", $s)',
                "--doc", f"r.xml={doc}",
                "--bind", "s=02134",
            ]
        )
        assert code == 0 and "got:02134" in out

    def test_bad_bind_spec(self):
        from repro.__main__ import parse_binding

        with pytest.raises(PathfinderError):
            parse_binding("nonsense")

    def test_bad_repeat_rejected(self):
        code, _ = self._run(["-q", "1+1", "--repeat", "0"])
        assert code == 2


class TestReplaceDocumentAtomic:
    def test_replace_document_reports_swap_atomically(self, db):
        info = db.replace_document("r.xml", "<r><v>9</v></r>")
        assert info["replaced"] is True
        assert info["epoch"] == db.doc_epochs["r.xml"]
        assert info["nodes"] == 4

    def test_replace_document_loads_fresh_uri(self, db):
        info = db.replace_document("new.xml", "<n/>")
        assert info["replaced"] is False
        assert "new.xml" in db.documents
