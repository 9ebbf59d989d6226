"""Integration tests: loop-lifting compilation, end to end via the session.

Each test runs a query through parse → desugar → loop-lift → optimize →
evaluate → serialize and checks the final XDM output.
"""

import pytest

from repro.errors import NotSupportedError, StaticError

from tests.conftest import SMALL_XML, open_session, run_pf


def q(session, query):
    return run_pf(session, query)


class TestLiteralsAndSequences:
    def test_integer(self, session):
        assert q(session, "42") == "42"

    def test_string(self, session):
        assert q(session, '"hi"') == "hi"

    def test_decimal_and_double(self, session):
        assert q(session, "2.5") == "2.5"
        assert q(session, "1e3") == "1000"

    def test_sequence_order(self, session):
        assert q(session, '(1, "a", 2.5)') == "1 a 2.5"

    def test_nested_sequences_flatten(self, session):
        assert q(session, "((1,2),(3,(4)))") == "1 2 3 4"

    def test_empty_sequence(self, session):
        assert q(session, "()") == ""

    def test_range(self, session):
        assert q(session, "2 to 5") == "2 3 4 5"

    def test_empty_range(self, session):
        assert q(session, "5 to 2") == ""


class TestArithmetic:
    def test_basic_ops(self, session):
        assert q(session, "1 + 2 * 3") == "7"
        assert q(session, "7 idiv 2") == "3"
        assert q(session, "7 div 2") == "3.5"
        assert q(session, "7 mod 3") == "1"
        assert q(session, "-(3 + 4)") == "-7"

    def test_arith_with_empty_operand_is_empty(self, session):
        assert q(session, "1 + ()") == ""

    def test_untyped_node_content_casts(self, session):
        assert q(session, "/site/a[1] + 1") == "2"


class TestComparisons:
    def test_value_comparisons(self, session):
        assert q(session, "1 lt 2") == "true"
        assert q(session, '"a" eq "a"') == "true"

    def test_value_comparison_empty_is_empty(self, session):
        assert q(session, "() eq 1") == ""

    def test_general_existential(self, session):
        assert q(session, "(1, 2, 3) = 2") == "true"
        assert q(session, "(1, 2, 3) = 9") == "false"
        assert q(session, "(1, 2) != (1, 2)") == "true"  # existential!

    def test_general_empty_false(self, session):
        assert q(session, "() = ()") == "false"

    def test_node_identity(self, session):
        assert q(session, "let $x := /site/a[1] return $x is $x") == "true"
        assert q(session, "/site/a[1] is /site/a[2]") == "false"

    def test_document_order_comparison(self, session):
        assert q(session, "/site/a[1] << /site/a[2]") == "true"
        assert q(session, "/site/a[1] >> /site/a[2]") == "false"


class TestLogic:
    def test_and_or(self, session):
        assert q(session, "1 and 2") == "true"
        assert q(session, "0 or ()") == "false"

    def test_not(self, session):
        assert q(session, "not(0)") == "true"

    def test_ebv_of_node_sequence(self, session):
        assert q(session, "if (/site/a) then 1 else 2") == "1"
        assert q(session, "if (/site/zzz) then 1 else 2") == "2"


class TestFLWOR:
    def test_paper_figure3(self, session):
        out = q(session, "for $v in (10,20), $w in (100,200) return $v + $w")
        assert out == "110 210 120 220"

    def test_let(self, session):
        assert q(session, "let $x := 5, $y := $x + 1 return $y") == "6"

    def test_where(self, session):
        assert q(session, "for $x in (1,2,3,4) where $x mod 2 = 0 return $x") == "2 4"

    def test_positional_variable(self, session):
        assert q(session, "for $x at $i in (9,8,7) return $i * 10 + $x") == "19 28 37"

    def test_order_by(self, session):
        assert q(session, "for $x in (3,1,2) order by $x return $x") == "1 2 3"
        assert q(session, "for $x in (3,1,2) order by $x descending return $x") == "3 2 1"

    def test_order_by_string_keys(self, session):
        out = q(session, 'for $x in ("b","a","c") order by $x return $x')
        assert out == "a b c"

    def test_order_by_multiple_keys(self, session):
        out = q(
            session,
            "for $x in (11, 21, 12, 22) order by $x mod 10, $x descending return $x",
        )
        assert out == "21 11 22 12"

    def test_order_by_empty_key_least(self, session):
        out = q(
            session,
            "for $x in /site/nest//a order by $x/zzz/text() return $x/text()",
        )
        # empty keys tie; tuple order is preserved (text nodes concatenate)
        assert out == "34"

    def test_nested_flwor_scoping(self, session):
        out = q(
            session,
            "for $x in (1,2) return (for $y in (10,20) return $x * $y)",
        )
        assert out == "10 20 20 40"

    def test_for_over_empty_yields_empty(self, session):
        assert q(session, "for $x in () return 1") == ""

    def test_where_false_everywhere(self, session):
        assert q(session, "for $x in (1,2) where $x > 9 return $x") == ""


class TestConditionals:
    def test_if(self, session):
        assert q(session, 'if (1 < 2) then "y" else "n"') == "y"

    def test_if_per_iteration(self, session):
        out = q(session, 'for $x in (1,2,3) return if ($x mod 2 = 0) then "e" else "o"')
        assert out == "o e o"

    def test_typeswitch_dispatch(self, session):
        query = (
            "for $x in (1, \"s\", 2.5) return "
            "typeswitch ($x) "
            "case xs:integer return \"int\" "
            "case xs:string return \"str\" "
            "default return \"other\""
        )
        assert q(session, query) == "int str other"

    def test_typeswitch_node_cases(self, session):
        query = (
            "for $x in (/site/a[1], /site/a[1]/text()) return "
            "typeswitch ($x) "
            "case element(a) return \"elem-a\" "
            "case text() return \"text\" "
            "default return \"other\""
        )
        assert q(session, query) == "elem-a text"

    def test_typeswitch_empty_case(self, session):
        query = (
            "typeswitch (()) case empty-sequence() return \"empty\" "
            "default return \"full\""
        )
        assert q(session, query) == "empty"

    def test_typeswitch_binds_variable(self, session):
        query = "typeswitch (7) case $v as xs:integer return $v + 1 default return 0"
        assert q(session, query) == "8"

    def test_instance_of(self, session):
        assert q(session, "5 instance of xs:integer") == "true"
        assert q(session, '"x" instance of xs:integer') == "false"


class TestPaths:
    def test_child_steps(self, session):
        assert q(session, "/site/a/text()") == "12"

    def test_descendant(self, session):
        assert q(session, "count(//a)") == "4"

    def test_attribute_value(self, session):
        assert q(session, "data(/site/a[1]/@i)") == "z"

    def test_attribute_in_predicate(self, session):
        assert q(session, '/site/a[@i = "z"]/text()') == "1"

    def test_positional_predicates(self, session):
        assert q(session, "/site/a[1]/text()") == "1"
        assert q(session, "/site/a[2]/text()") == "2"
        assert q(session, "/site/a[last()]/text()") == "2"
        assert q(session, "/site/a[position() = 2]/text()") == "2"

    def test_boolean_predicate(self, session):
        assert q(session, "/site/*[@i]/text()") == "1"

    def test_chained_predicates_renumber(self, session):
        assert q(session, "(1 to 6)[. mod 2 = 0][2]") == "4"

    def test_parent_and_ancestor(self, session):
        assert q(session, "name(/site/nest/a/..)") == "nest"
        assert q(session, "count(/site/nest/deep/a/ancestor::*)") == "3"

    def test_siblings(self, session):
        assert q(session, "/site/a[1]/following-sibling::a/text()") == "2"
        assert q(session, "/site/a[2]/preceding-sibling::a/text()") == "1"

    def test_doc_order_and_dedup(self, session):
        # both <a> parents lead to the same deep <a>; result is distinct
        out = q(session, "count(/site/nest//a/ancestor-or-self::a)")
        assert out == "2"

    def test_path_result_in_document_order(self, session):
        out = q(session, "for $x in (/site/a[2], /site/a[1]) return $x/../a[1]/text()")
        assert out == "11"

    def test_doc_function(self, session):
        assert q(session, 'count(doc("doc.xml")/site/a)') == "2"

    def test_root_function(self, session):
        assert q(session, "count(root(/site/nest/a))") == "1"

    def test_step_from_atomic_raises(self, session):
        from repro.errors import DynamicError

        with pytest.raises(DynamicError):
            session.execute("(1)/a")


class TestBuiltins:
    def test_count_sum_avg_min_max(self, session):
        assert q(session, "count((1,2,3))") == "3"
        assert q(session, "sum((1,2,3))") == "6"
        assert q(session, "avg((1,2,3))") == "2"
        assert q(session, "min((3,1,2))") == "1"
        assert q(session, "max((3,1,2))") == "3"

    def test_aggregates_on_empty(self, session):
        assert q(session, "count(())") == "0"
        assert q(session, "sum(())") == "0"
        assert q(session, "max(())") == ""

    def test_count_per_iteration(self, session):
        out = q(session, "for $x in (1,2) return count(())")
        assert out == "0 0"

    def test_empty_exists(self, session):
        assert q(session, "empty(())") == "true"
        assert q(session, "exists(/site/a)") == "true"

    def test_string_functions(self, session):
        assert q(session, 'contains("hello", "ell")') == "true"
        assert q(session, 'starts-with("hello", "he")') == "true"
        assert q(session, 'string-length("abc")') == "3"
        assert q(session, 'concat("a", "b", "c")') == "abc"
        assert q(session, 'string-join(("a","b"), "-")') == "a-b"

    def test_string_of_node(self, session):
        assert q(session, "string(/site/nest)") == "34"

    def test_string_of_empty(self, session):
        assert q(session, "string(())") == ""

    def test_number(self, session):
        assert q(session, 'number("2.5")') == "2.5"
        assert q(session, 'number("x")') == "NaN"

    def test_data_on_mixed(self, session):
        assert q(session, "data((/site/a[1]/@i, 5))") == "z 5"

    def test_distinct_values(self, session):
        assert q(session, "distinct-values((1, 2, 1, 3, 2))") == "1 2 3"

    def test_name(self, session):
        assert q(session, "name(/site/b)") == "b"
        assert q(session, "name(/site/b/@f)") == "f"

    def test_true_false(self, session):
        assert q(session, "true()") == "true"
        assert q(session, "false()") == "false"

    def test_unknown_function_raises(self, session):
        with pytest.raises(StaticError):
            session.execute("no-such-fn(1)")

    def test_cardinality_passthroughs(self, session):
        assert q(session, "zero-or-one(/site/b/text())") == "x"
        assert q(session, "exactly-one(5)") == "5"


class TestConstructors:
    def test_direct_element(self, session):
        assert q(session, '<a x="1">t</a>') == '<a x="1">t</a>'

    def test_enclosed_atomics_space_joined(self, session):
        assert q(session, "<a>{1, 2}</a>") == "<a>1 2</a>"

    def test_avt(self, session):
        assert q(session, '<a v="n={1+1}!"/>') == '<a v="n=2!"/>'

    def test_node_copy_is_deep(self, session):
        out = q(session, "<wrap>{/site/nest}</wrap>")
        assert out == "<wrap><nest><a>3</a><deep><a>4</a></deep></nest></wrap>"

    def test_copied_node_is_new(self, session):
        assert q(session, "let $n := /site/b return <w>{$n}</w>/b is $n") == "false"

    def test_computed_element_attribute_text(self, session):
        out = q(session, 'element r { attribute k { 1+1 }, text { "v" } }')
        assert out == '<r k="2">v</r>'

    def test_attribute_collected_from_sequence(self, session):
        out = q(session, "<o>{/site/a[1]/@i}</o>")
        assert out == '<o i="z"/>'

    def test_constructed_nodes_per_iteration(self, session):
        out = q(session, "for $x in (1,2) return <n v='{$x}'/>")
        assert out == '<n v="1"/><n v="2"/>'

    def test_standalone_attribute_serializes(self, session):
        assert q(session, "attribute a { 5 }") == 'a="5"'


class TestUserFunctions:
    def test_simple_udf(self, session):
        assert q(session, "declare function local:d($x) { $x * 2 }; local:d(21)") == "42"

    def test_udf_calls_udf(self, session):
        query = (
            "declare function local:inc($x) { $x + 1 };"
            "declare function local:twice($x) { local:inc(local:inc($x)) };"
            "local:twice(5)"
        )
        assert q(session, query) == "7"

    def test_udf_over_iterations(self, session):
        query = "declare function local:sq($x) { $x * $x }; for $i in (1,2,3) return local:sq($i)"
        assert q(session, query) == "1 4 9"

    def test_unbounded_recursion_rejected(self, session):
        query = "declare function local:f($x) { local:f($x) }; local:f(1)"
        with pytest.raises(NotSupportedError):
            session.execute(query)

    def test_declare_variable(self, session):
        assert q(session, "declare variable $k := 6; $k * 7") == "42"


class TestJoinRecognition:
    def test_results_match_with_and_without(self, session):
        query = (
            "for $x in /site/a "
            "let $hits := for $y in /site/nest//a where $y/text() = $x/text() return $y "
            "return count($hits)"
        )
        with_jr = session.execute(query).serialize()
        other = open_session("doc.xml", SMALL_XML).database
        from repro.compiler.loop_lifting import Compiler
        from repro.relational.evaluate import EvalContext, evaluate
        from repro.compiler.serialize import serialize_result
        from repro.xquery.core import desugar_module
        from repro.xquery.parser import parse_query

        m = desugar_module(parse_query(query))
        plan = Compiler(
            other.documents, other.default_document, use_join_recognition=False
        ).compile_module(m)
        ctx = EvalContext(other.arena, documents=other.documents)
        table = evaluate(plan, ctx)
        without_jr = serialize_result(table, other.arena)
        assert with_jr == without_jr

    def test_recognition_triggers_on_attribute_join(self, xmark_session):
        from repro.compiler.loop_lifting import Compiler
        from repro.relational import algebra as alg
        from repro.xmark import XMARK_QUERIES
        from repro.xquery.core import desugar_module
        from repro.xquery.parser import parse_query

        m = desugar_module(parse_query(XMARK_QUERIES["Q8"]))
        database = xmark_session.database
        with_jr = Compiler(
            database.documents, database.default_document
        ).compile_module(m)
        without_jr = Compiler(
            database.documents,
            database.default_document,
            use_join_recognition=False,
        ).compile_module(m)
        # recognised plans join on the comparison value: strictly more
        # Join operators over the value columns, no EBV where machinery
        assert alg.op_count(with_jr) != alg.op_count(without_jr)
