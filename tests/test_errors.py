"""Error behaviour: both engines raise the right W3C-coded errors."""

import pytest

from repro.errors import (
    DynamicError,
    NotSupportedError,
    PathfinderError,
    StaticError,
    XQuerySyntaxError,
)
from repro.xquery.core import desugar_module
from repro.xquery.parser import parse_query

from tests.conftest import baseline_for


def baseline_raises(session, query, exc_type):
    module = desugar_module(parse_query(query))
    interp = baseline_for(session)
    with pytest.raises(exc_type):
        interp.execute(module)


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "query",
        [
            "for $x in",
            "let $x 5 return $x",
            "1 +",
            "if (1) then 2",
            "<a></b>",
            "$",
            "fn:doc(",
            "typeswitch (1) default return 2",  # no case
            "((1,2)",
        ],
    )
    def test_parse_errors_carry_code(self, query):
        with pytest.raises(XQuerySyntaxError) as exc:
            parse_query(query)
        assert exc.value.code == "err:XPST0003"


class TestStaticErrors:
    def test_undefined_variable_xpst0008(self, session):
        with pytest.raises(StaticError) as exc:
            session.execute("$nope")
        assert exc.value.code == "err:XPST0008"
        baseline_raises(session, "$nope", StaticError)

    def test_unknown_function_xpst0017(self, session):
        with pytest.raises(StaticError) as exc:
            session.execute("frobnicate(1)")
        assert exc.value.code == "err:XPST0017"
        baseline_raises(session, "frobnicate(1)", StaticError)

    def test_wrong_arity_is_unknown_function(self, session):
        with pytest.raises(StaticError):
            session.execute("count(1, 2, 3)")

    def test_context_item_absent_xpdy0002(self, session):
        with pytest.raises(StaticError) as exc:
            session.execute("position()")
        assert exc.value.code == "err:XPDY0002"

    def test_missing_document(self, session):
        with pytest.raises(PathfinderError) as exc:
            session.execute('doc("nope.xml")/a')
        assert exc.value.code == "err:FODC0002"

    def test_duplicate_function_declaration(self, session):
        query = (
            "declare function local:f($x) { $x }; "
            "declare function local:f($y) { $y }; 1"
        )
        with pytest.raises(StaticError):
            session.execute(query)


class TestDynamicErrors:
    def test_integer_division_by_zero_foar0001(self, session):
        with pytest.raises(DynamicError) as exc:
            session.execute("1 idiv 0")
        assert exc.value.code == "err:FOAR0001"
        baseline_raises(session, "1 idiv 0", DynamicError)

    def test_step_on_atomic_xpty0019(self, session):
        with pytest.raises(DynamicError) as exc:
            session.execute("(1, 2)/a")
        assert exc.value.code == "err:XPTY0019"
        baseline_raises(session, "(1, 2)/a", DynamicError)

    def test_double_div_by_zero_is_inf_not_error(self, session):
        # only xs:double division may yield INF/NaN (F&O 6.2.4)
        assert session.execute("1e0 div 0e0").serialize() == "INF"
        assert session.execute("-1e0 div 0e0").serialize() == "-INF"
        assert session.execute("0e0 div 0e0").serialize() == "NaN"

    def test_exact_numeric_div_by_zero_foar0001(self, session):
        for query in ("1 div 0", "1.0 div 0.0", "1.0 div 0"):
            with pytest.raises(DynamicError) as exc:
                session.execute(query)
            assert exc.value.code == "err:FOAR0001"
            baseline_raises(session, query, DynamicError)


class TestNotSupported:
    def test_dynamic_doc_uri(self, session):
        with pytest.raises(NotSupportedError):
            session.execute('let $u := "doc.xml" return doc($u)')

    def test_unbounded_recursion_in_compiler(self, session):
        query = "declare function local:f($x) { local:f($x + 1) }; local:f(0)"
        with pytest.raises(NotSupportedError):
            session.execute(query)

    def test_unsupported_cast_target(self, session):
        with pytest.raises(NotSupportedError):
            session.execute("1 cast as xs:hexBinary")
