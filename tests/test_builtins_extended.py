"""Tests for the extended built-in library, on both engines."""

import pytest

from tests.conftest import run_baseline, run_pf

CASES = [
    ('substring("abcde", 2)', "bcde"),
    ('substring("abcde", 2, 3)', "bcd"),
    ('substring("abcde", 0)', "abcde"),
    ('substring("abcde", 1.5, 2.6)', "bcd"),  # F&O rounding example
    ('substring-before("tattoo", "attoo")', "t"),
    ('substring-before("tattoo", "zz")', ""),
    ('substring-after("tattoo", "tat")', "too"),
    ('ends-with("tattoo", "too")', "true"),
    ('ends-with("tattoo", "tat")', "false"),
    ('upper-case("aBc")', "ABC"),
    ('lower-case("aBc")', "abc"),
    ('normalize-space("  a   b ")', "a b"),
    ("floor(2.7)", "2"),
    ("ceiling(2.1)", "3"),
    ("round(2.5)", "3"),
    ("round(-2.5)", "-2"),  # XPath rounds .5 toward +inf
    ("abs(-3)", "3"),
    ("abs(-3.5)", "3.5"),
    ("floor(5)", "5"),
    ("count((/site/a | /site/b))", "3"),
    ("count((/site/a | /site/a))", "2"),
    ("count(/site/a union /site/b)", "3"),
]


@pytest.mark.parametrize("query,expected", CASES, ids=[c[0][:35] for c in CASES])
def test_builtin_on_pathfinder(session, query, expected):
    assert run_pf(session, query) == expected


@pytest.mark.parametrize("query,expected", CASES, ids=[c[0][:35] for c in CASES])
def test_builtin_on_baseline(session, query, expected):
    assert run_baseline(session, query) == expected


class TestOrderingRegressions:
    def test_str_join_respects_sequence_order(self, session):
        """Regression: string-join over a union-built sequence must join
        in pos order, not physical row order."""
        query = (
            "string-join(for $s in (for $v in /site/a return (0, $v)) "
            "return string($s), '|')"
        )
        assert run_pf(session, query) == run_baseline(session, query) == "0|1|0|2"

    def test_constructor_content_order(self, session):
        query = "<t>{ for $v in /site/a return (0, $v/text()) }</t>"
        assert run_pf(session, query) == run_baseline(session, query)

    def test_distinct_values_keeps_first_in_sequence_order(self, session):
        query = (
            'string-join(distinct-values(for $v in (1,2) return ("b", "a")), "-")'
        )
        assert run_pf(session, query) == run_baseline(session, query) == "b-a"

    def test_avt_multi_item_order(self, session):
        query = "<x v=\"{ for $v in /site/a return (9, $v/text()) }\"/>"
        assert run_pf(session, query) == run_baseline(session, query)

    def test_union_is_document_ordered(self, session):
        query = "for $n in (/site/b | /site/a) return name($n)"
        assert run_pf(session, query) == run_baseline(session, query) == "a a b"
