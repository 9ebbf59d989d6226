"""Tests for the SQL host back-end (XQuery on SQL Hosts, paper ref [6]).

The central property: for every plan the SQL host supports, executing the
translated SQL on SQLite produces exactly the result of the numpy
column-store evaluator.
"""

import pytest

from repro.compiler.serialize import serialize_result
from repro.errors import NotSupportedError
from repro.sqlhost import SQLHostBackend

from tests.conftest import SMALL_XML, open_session


@pytest.fixture(scope="module")
def setup():
    session = open_session("doc.xml", SMALL_XML)
    backend = SQLHostBackend(session.database.arena, session.database.documents)
    yield session, backend
    backend.close()


def both(setup, query):
    session, backend = setup
    database = session.database
    table = backend.execute_query(query, database.default_document)
    sql_out = serialize_result(table, database.arena)
    pf_out = session.execute(query).serialize()
    return sql_out, pf_out


BATTERY = [
    "1 + 2 * 3",
    "7 idiv 2",
    "7 div 2",
    "-(4.5)",
    "(1, 2, 3)[. > 1]",
    "(1 to 6)[. mod 2 = 0]",
    "count(//a)",
    "/site/a/text()",
    "data(//@i)",
    "sum(/site/a)",
    "min(/site/a) , max(/site/a)",
    "avg((2, 4, 9))",
    "for $x in /site/a where $x/text() = '1' return data($x/@i)",
    "for $x in (3,1,2) order by $x descending return $x",
    'for $x in ("b","c","a") order by $x return $x',
    "string-join(for $a in //a return $a/text(), '|')",
    "distinct-values((1, 2, 1, 'x', 'x'))",
    "if (count(//a) > 2) then 'many' else 'few'",
    "contains(string(/site/nest), '3')",
    "starts-with('hello', 'he')",
    "ends-with('hello', 'lo')",
    "substring('abcde', 2, 3)",
    "substring-after('tattoo', 'tat')",
    "upper-case('aBc') , lower-case('aBc')",
    "normalize-space('  a  b ')",
    "floor(2.7) , ceiling(2.1) , round(2.5) , abs(-3)",
    "string-length('abc')",
    "concat('a', 'b', 'c')",
    "number('2.5') , number('x')",
    "boolean(//a) , not(//zzz)",
    "empty(//zzz) , exists(//a)",
    "some $x in //a satisfies $x/text() = '3'",
    "every $x in //a satisfies string-length($x/text()) = 1",
    "/site/a[1] is /site/a[1]",
    "/site/a[1] << /site/a[2]",
    "count(/site/a[1]/following::node())",
    "count(/site/nest//a/ancestor-or-self::*)",
    "count(/site/a[1]/following-sibling::*)",
    "/site/*[@i]/text()",
    "/site/a[last()]/text()",
    "name(/site/b) , name(/site/b/@f)",
    "root(/site/nest/a) is root(/site/a[1])",
    "typeswitch (5) case xs:integer return 'i' default return 'x'",
    "5 instance of xs:integer",
    "'x' cast as xs:string",
    "let $v := //a return count($v)",
    "for $x in //a return count($x/ancestor::*)",
    "/site/nest/a/ancestor::*/name(.)",
    "(1,2) = (2,3)",
    "(1,2) != (1,2)",
    "declare function local:f($x) { $x * 2 }; local:f(4)",
    # rewrite-pass shapes: pushdown through unions/crosses, fused
    # comparisons, value joins, swapped join inputs (join_order)
    "for $x in //a where $x/text() = '2' return $x/@i",
    "for $x in /site/a for $y in /site/nest//a "
    "where $x/text() = $y/text() return ($x, $y)",
    "(1 to 8)[. mod 3 = 1]",
    "count(for $v in (1,2,3,4) where $v >= 2 return $v * 10)",
]


@pytest.mark.parametrize("query", BATTERY, ids=[f"q{i}" for i in range(len(BATTERY))])
def test_sql_host_matches_columnstore(setup, query):
    sql_out, pf_out = both(setup, query)
    assert sql_out == pf_out


class TestRestrictions:
    def test_constructors_rejected(self, setup):
        session, backend = setup
        with pytest.raises(NotSupportedError):
            backend.execute_query("<a/>", session.database.default_document)

    def test_sql_text_inspectable(self, setup):
        session, backend = setup
        plan = session.database.compile_query("count(//a)", use_optimizer=True).plan
        sql = backend.sql_for(plan)
        assert sql.startswith("WITH RECURSIVE")
        assert "ROW_NUMBER() OVER" in sql or "COUNT(*)" in sql

    def test_plan_ctes_shared(self, setup):
        """DAG-shared subplans appear as one CTE, not duplicated SQL."""
        session, backend = setup
        plan = session.database.compile_query(
            "count(//a) + count(//a)", use_optimizer=True
        ).plan
        sql = backend.sql_for(plan)
        # //a is one descendant step (region n.id > ctx), and the shared
        # count subplan holding it occurs once as a CTE definition
        assert sql.count("n.id > ") == 1
        assert "n.id >= " not in sql  # no descendant-or-self step left


class TestXMarkOnSQLHost:
    """The non-constructing XMark queries run fully inside SQL."""

    @pytest.fixture(scope="class")
    def xmark_setup(self):
        from repro.xmark import generate_document

        session = open_session("auction.xml", generate_document(0.001, seed=11))
        backend = SQLHostBackend(session.database.arena, session.database.documents)
        yield session, backend
        backend.close()

    @pytest.mark.parametrize("name", ["Q1", "Q5", "Q6", "Q7", "Q18"])
    def test_xmark_query(self, xmark_setup, name):
        from repro.xmark import XMARK_QUERIES

        session, backend = xmark_setup
        database = session.database
        query = XMARK_QUERIES[name]
        table = backend.execute_query(query, database.default_document)
        assert serialize_result(table, database.arena) == session.execute(query).serialize()


def test_export_skips_superseded_document_versions():
    """The live-roots export must not copy dead arena rows (replaced
    document versions) into the SQL host."""
    from repro import Database
    from repro.sqlhost.backend import SQLHostBackend

    db = Database()
    db.load_document("r.xml", "<r><v>1</v><v>2</v><v>3</v></r>")
    # a result still holding the old version keeps it from being popped
    held = db.connect().execute("/r/v")
    db.load_document("r.xml", "<r><v>9</v></r>", replace=True)
    assert len(held) == 3
    backend = SQLHostBackend(db.arena, db.documents)
    try:
        (count,) = backend.connection.execute(
            "SELECT COUNT(*) FROM nodes"
        ).fetchone()
        live_root = db.documents["r.xml"]
        assert count == int(db.arena.size[live_root]) + 1
        assert count < db.arena.num_nodes  # dead version stayed behind
        table = backend.execute_query("count(/r/v)", "r.xml")
        assert table.num_rows == 1  # the trimmed export still evaluates
    finally:
        backend.close()
