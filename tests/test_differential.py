"""Differential tests: Pathfinder vs the nested-loop baseline.

Both engines share the parser and the documents; their evaluation
strategies are completely different (bulk loop-lifted algebra vs recursive
item-at-a-time interpretation).  Agreement over a broad query battery and
randomly generated queries is the strongest correctness evidence the
reproduction has.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import SMALL_XML, open_session, run_baseline, run_pf

BATTERY = [
    "1 + 2 * 3 - 4 idiv 2",
    "(1, 2) = (2, 3)",
    "(1, 2) != (1, 2)",
    '"abc" lt "abd"',
    "sum(for $x in (1 to 20) return $x)",
    "avg((2, 4, 9))",
    "for $x in (1 to 10) where $x mod 3 = 0 return $x * $x",
    "for $x at $i in (5, 6, 7) return $i + $x",
    "for $x in (1,2), $y in (3,4) where $x + $y > 5 return ($x, $y)",
    'for $x in ("c","a","b") order by $x return $x',
    "for $x in (3,1,2) order by $x descending return $x",
    "(1 to 10)[. mod 2 = 1][2]",
    "count(//a)",
    "/site/a/text()",
    "/site/*[2]/text()",
    "//a[text() = '3']/../name(..)",
    "count(/site//text())",
    "for $x in //a order by $x/text() descending return $x/text()",
    "data(//@i)",
    '/site/a[@i = "z"] is /site/a[1]',
    "count(/site/a[1]/following::node())",
    "count(/site/nest/deep/a/preceding::node())",
    "count(//a/ancestor-or-self::node())",
    "for $x in /site/a return <copy>{$x/@i}{$x/text()}</copy>",
    "<t a='{count(//a)}'>{//b/text()}</t>",
    'element dyn { attribute n { 1+1 }, text { "v" } }',
    "string(/site/nest)",
    'string-join(for $a in //a return $a/text(), "+")',
    "some $x in //a satisfies $x/text() = '4'",
    "every $x in //a satisfies string-length($x/text()) = 1",
    "if (//b) then name(//b[1]) else 'none'",
    "typeswitch (//a[1]) case element(a) return 'a!' default return '?'",
    "distinct-values((1, 1, 2, '2', 'x', 'x'))",
    "declare function local:f($x) { $x + 1 }; for $i in (1,2) return local:f($i)",
    "declare variable $v := 10; $v * $v",
    "number(/site/a[1])",
    "contains(string(/site/nest), '3')",
    "for $x in //a return count($x/ancestor::*)",
    "zero-or-one(/site/b/@f) cast as xs:string",
    "-(/site/a[1])",
    "for $x in //a where empty($x/zzz) return 1",
    "min(//a/text()) , max(//a/text())",
]


@pytest.mark.parametrize("query", BATTERY, ids=[f"q{i}" for i in range(len(BATTERY))])
def test_battery_agreement(session, query):
    assert run_pf(session, query) == run_baseline(session, query)


# --------------------------------------------------------------------------
# random query generation
# --------------------------------------------------------------------------
_numbers = st.integers(-20, 99)
_strings = st.sampled_from(['"x"', '"1"', '"z"', '""'])
_paths = st.sampled_from(
    [
        "/site/a",
        "/site/a/text()",
        "//a",
        "//a/text()",
        "/site/*",
        "//@i",
        "/site/nest//a",
        "/site/b",
    ]
)


@st.composite
def _expr(draw, depth=2):
    if depth == 0:
        branch = draw(st.integers(0, 2))
        if branch == 0:
            return str(draw(_numbers))
        if branch == 1:
            return draw(_strings)
        return draw(_paths)
    branch = draw(st.integers(0, 7))
    a = draw(_expr(depth=depth - 1))
    b = draw(_expr(depth=depth - 1))
    if branch == 0:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({a} {op} {b})"
    if branch == 1:
        op = draw(st.sampled_from(["=", "!=", "<", ">=", "eq", "lt"]))
        return f"({a} {op} {b})"
    if branch == 2:
        return f"count(({a}, {b}))"
    if branch == 3:
        v = draw(st.sampled_from(["$v", "$w"]))
        return f"(for {v} in ({a}) return ({b}, {v}))"
    if branch == 4:
        return f"(if ({a}) then {b} else {a})"
    if branch == 5:
        return f"({a}, {b})"
    if branch == 6:
        return f"string-join(for $s in ({a}) return string($s), '|')"
    return f"(let $u := {a} return ($u, {b}))"


@st.composite
def _deep_expr(draw):
    """Richer queries: order by, predicates, aggregates, constructors."""
    shape = draw(st.integers(0, 5))
    inner = draw(_expr(depth=1))
    path = draw(_paths)
    if shape == 0:
        direction = "descending" if draw(st.booleans()) else "ascending"
        return f"for $x in ({inner}) order by string($x) {direction} return $x"
    if shape == 1:
        k = draw(st.integers(1, 4))
        return f"({inner})[{k}]"
    if shape == 2:
        return f"({inner})[. = {draw(_numbers)}]"
    if shape == 3:
        return f"<w n='{{count(({inner}))}}'>{{{path}}}</w>"
    if shape == 4:
        return f"sum(for $x in ({path}) return count($x/ancestor-or-self::node()))"
    return (
        f"for $x in ({path}) where some $y in ({path}) satisfies $y is $x "
        f"return name($x)"
    )


@settings(max_examples=60, deadline=None)
@given(_deep_expr())
def test_deep_random_query_agreement(query):
    try:
        pf = run_pf(_SESSION, query)
    except Exception as exc:
        with pytest.raises(type(exc)):
            run_baseline(_SESSION, query)
        return
    assert pf == run_baseline(_SESSION, query), query


# hypothesis and function-scoped fixtures don't mix; use a module session
_SESSION = open_session("doc.xml", SMALL_XML)


@settings(max_examples=80, deadline=None)
@given(_expr())
def test_random_query_agreement(query):
    try:
        pf = run_pf(_SESSION, query)
    except Exception as exc:  # both engines must fail alike
        with pytest.raises(type(exc)):
            run_baseline(_SESSION, query)
        return
    assert pf == run_baseline(_SESSION, query), query
