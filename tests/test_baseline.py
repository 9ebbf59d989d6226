"""Tests for the nested-loop baseline interpreter."""

import pytest

from repro.baseline.interpreter import QueryTimeout
from repro.errors import StaticError
from repro.xquery.core import desugar_module
from repro.xquery.parser import parse_query

from tests.conftest import baseline_for, run_baseline


class TestBasics:
    def test_arithmetic(self, session):
        assert run_baseline(session, "1 + 2 * 3") == "7"

    def test_flwor(self, session):
        out = run_baseline(session, "for $v in (10,20), $w in (100,200) return $v + $w")
        assert out == "110 210 120 220"

    def test_paths_and_predicates(self, session):
        assert run_baseline(session, "/site/a[last()]/text()") == "2"
        assert run_baseline(session, 'count(//a[@i = "z"])') == "1"

    def test_axes(self, session):
        assert run_baseline(session, "count(/site/nest/deep/a/ancestor::*)") == "3"
        assert run_baseline(session, "count(/site/a[1]/following::*)") == "6"
        assert run_baseline(session, "count(/site/nest/preceding::node())") == "6"

    def test_order_by(self, session):
        out = run_baseline(session, "for $x in (3,1,2) order by $x descending return $x")
        assert out == "3 2 1"

    def test_constructors(self, session):
        assert run_baseline(session, '<a v="{1+1}">{ "t" }</a>') == '<a v="2">t</a>'

    def test_typeswitch(self, session):
        query = 'typeswitch (2.5e0) case xs:double return "d" default return "x"'
        assert run_baseline(session, query) == "d"

    def test_typeswitch_decimal(self, session):
        # a decimal literal is xs:decimal, not xs:double
        query = 'typeswitch (2.5) case xs:double return "d" case xs:decimal return "c" default return "x"'
        assert run_baseline(session, query) == "c"

    def test_undefined_variable(self, session):
        with pytest.raises(StaticError):
            run_baseline(session, "$nope")


class TestRecursion:
    def test_recursive_udf(self, session):
        query = (
            "declare function local:fact($n) "
            "{ if ($n <= 1) then 1 else $n * local:fact($n - 1) }; "
            "local:fact(6)"
        )
        assert run_baseline(session, query) == "720"

    def test_mutual_style_iteration(self, session):
        query = (
            "declare function local:sumto($n) "
            "{ if ($n = 0) then 0 else $n + local:sumto($n - 1) }; "
            "local:sumto(10)"
        )
        assert run_baseline(session, query) == "55"


class TestDeadline:
    def test_timeout_raises(self, session):
        module = desugar_module(
            parse_query(
                "count(for $a in (1 to 300), $b in (1 to 300), $c in (1 to 300) return 1)"
            )
        )
        interp = baseline_for(session)
        interp.set_deadline(0.05)
        with pytest.raises(QueryTimeout):
            interp.execute(module)

    def test_no_deadline_by_default(self, session):
        module = desugar_module(parse_query("1 + 1"))
        interp = baseline_for(session)
        assert interp.execute(module) == [2]


class TestValueIndex:
    def test_index_probe_matches_scan(self, xmark_session):
        query = """
            for $p in /site/people/person
            let $a := for $t in /site/closed_auctions/closed_auction
                      where $t/buyer/@person = $p/@id
                      return $t
            return count($a)
        """
        plain = run_baseline(xmark_session, query)
        module = desugar_module(parse_query(query))
        interp = baseline_for(xmark_session, use_indexes=True)
        interp.add_value_index("person")
        assert interp.serialize(interp.execute(module)) == plain

    def test_index_preserves_binding_order(self, session):
        query = (
            "for $x in /site/a "
            "let $m := for $y in /site/a where $y/@i = $x/@i return $y "
            "return count($m)"
        )
        plain = run_baseline(session, query)
        module = desugar_module(parse_query(query))
        interp = baseline_for(session, use_indexes=True)
        interp.add_value_index("i")
        assert interp.serialize(interp.execute(module)) == plain
