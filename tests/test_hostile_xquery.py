"""Hostile queries: every answer is a result or a ``PathfinderError``.

A hypothesis grammar draws queries over FLWOR, quantifiers, direct
constructors, axis steps on a small document, built-in calls with zero
to three arguments (right or wrong arity), casts and arithmetic on
literals at the edges of int64.  Whatever it draws,
``Session.execute(...).serialize()`` must return or raise a subclass of
:class:`~repro.errors.PathfinderError` — never an ``IndexError``, an
``OverflowError`` or a numpy ``RuntimeWarning`` (an error under the
repository's pytest settings).  The explicit cases pin the crashes and
silent wraps the grammar found, on the loop-lifting compiler and the
baseline interpreter alike: ``xs:integer`` is int64 here, so a result
beyond it is ``err:FOAR0002`` (arithmetic) or ``err:FOCA0003`` (casts).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.builtins import _BUILTINS
from repro.errors import PathfinderError
from repro.relational import items as it

from tests.conftest import open_session, run_baseline, run_pf

DOC = '<a id="1"><b>2</b><b x="y">text</b><c><b>-3.5</b></c></a>'

I64_MAX = 2**63 - 1
INT_LITERALS = (
    "0", "1", "2", "-1", "7", str(I64_MAX), str(-I64_MAX), "4611686018427387904",
)
OTHER_LITERALS = (
    '"s"', '""', '"12"', '"abc"', "0.5", "1.5", "1e300", "1e308", "-1e308", "2.5e-3",
)
PATHS = (
    "/a", "//b", "/a/b", "/a/*", "//@x", "/a/@id", "//b/text()", "/a/c/..", "//b[1]",
    '/a/b[@x = "y"]',
)
FUNCTIONS = sorted({name for name, _ in _BUILTINS} - {"doc"})
ARITH = ("+", "-", "*", "div", "idiv", "mod")
COMPARE = ("=", "!=", "<", ">=", "eq", "lt", "ge")
CASTS = ("xs:integer", "xs:double", "xs:decimal", "xs:string", "xs:boolean")
VARS = ("$u", "$v", "$w")


def _expr(draw, depth: int, scope: tuple[str, ...]) -> str:
    """One expression of at most ``depth`` nested constructs; variables
    are drawn from ``scope`` (the ones bound around it)."""
    leaves = ["int", "other", "path"] + (["var"] if scope else [])
    kinds = leaves if depth == 0 else leaves + [
        "arith", "neg", "compare", "cast", "call", "for", "let", "where",
        "quantified", "if", "sequence", "element", "attribute", "step", "predicate",
    ]
    kind = draw(st.sampled_from(kinds))

    def sub(inner_scope=scope):
        return _expr(draw, depth - 1, inner_scope)

    if kind == "int":
        return draw(st.sampled_from(INT_LITERALS))
    if kind == "other":
        return draw(st.sampled_from(OTHER_LITERALS))
    if kind == "path":
        return draw(st.sampled_from(PATHS))
    if kind == "var":
        return draw(st.sampled_from(scope))
    if kind == "arith":
        return f"({sub()} {draw(st.sampled_from(ARITH))} {sub()})"
    if kind == "neg":
        return f"-({sub()})"
    if kind == "compare":
        return f"({sub()} {draw(st.sampled_from(COMPARE))} {sub()})"
    if kind == "cast":
        return f"({sub()} cast as {draw(st.sampled_from(CASTS))})"
    if kind == "call":
        name = draw(st.sampled_from(FUNCTIONS))
        args = [sub() for _ in range(draw(st.integers(0, 3)))]
        return f"{name}({', '.join(args)})"
    var = draw(st.sampled_from(VARS))
    inner = scope + (var,)
    if kind == "for":
        return f"(for {var} in {sub()} return {sub(inner)})"
    if kind == "let":
        return f"(let {var} := {sub()} return {sub(inner)})"
    if kind == "where":
        return (
            f"(for {var} in {sub()} where {sub(inner)} "
            f"order by {sub(inner)} return {sub(inner)})"
        )
    if kind == "quantified":
        quantifier = draw(st.sampled_from(("some", "every")))
        return f"({quantifier} {var} in {sub()} satisfies {sub(inner)})"
    if kind == "if":
        return f"(if ({sub()}) then {sub()} else {sub()})"
    if kind == "sequence":
        return f"({', '.join(sub() for _ in range(draw(st.integers(0, 3))))})"
    if kind == "element":
        return f"<e>{{{sub()}}}</e>"
    if kind == "attribute":
        return f'<e n="{{{sub()}}}"/>'
    if kind == "step":
        step = draw(st.sampled_from(("b", "*", "@x", "text()", "..", "descendant::b")))
        return f"({sub()})/{step}"
    return f"({sub()})[{sub()}]"


@st.composite
def queries(draw) -> str:
    return _expr(draw, 3, ())


@pytest.fixture(scope="module")
def session():
    return open_session("d.xml", DOC)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(query=queries())
def test_hostile_query_returns_or_raises_a_pathfinder_error(session, query):
    try:
        session.execute(query).serialize()
    except PathfinderError:
        pass


#: zero-argument calls in a for/let binding crashed the compiler's static
#: typing (IndexError) before the arity check ran; the baseline crashed
#: on every wrong-arity call but the aggregates'
WRONG_ARITY = (
    "let $v := zero-or-one() return $v",
    "for $x in exactly-one() return 1",
    "let $v := data() return $v",
    "let $v := distinct-values() return $v",
    "for $x in one-or-more() return $x",
    "zero-or-one()",
    "count()",
    "sum(1, 2, 3)",
)


@pytest.mark.parametrize("query", WRONG_ARITY)
def test_wrong_arity_is_xpst0017(session, query):
    for run in (run_pf, run_baseline):
        with pytest.raises(PathfinderError) as info:
            run(session, query)
        assert info.value.code == "err:XPST0017"


#: (query, error code) on both evaluators: results outside int64
OUT_OF_RANGE = (
    (f"{I64_MAX} + 1", "err:FOAR0002"),
    (f"-{I64_MAX} - 2", "err:FOAR0002"),
    (f"{I64_MAX} * 2", "err:FOAR0002"),
    ("4611686018427387904 * -2 * 2", "err:FOAR0002"),
    (f"(-{I64_MAX} - 1) idiv -1", "err:FOAR0002"),
    (f"-(-{I64_MAX} - 1)", "err:FOAR0002"),
    ("1e308 idiv 0.5", "err:FOAR0002"),
    ("1e300 cast as xs:integer", "err:FOCA0003"),
    ("-1e300 cast as xs:integer", "err:FOCA0003"),
    ('"1e300" cast as xs:integer', "err:FOCA0003"),
    ("(1e308 * 10) cast as xs:integer", "err:FOCA0003"),
)


@pytest.mark.parametrize("query,code", OUT_OF_RANGE)
def test_int64_overflow_raises(session, query, code):
    for run in (run_pf, run_baseline):
        with pytest.raises(PathfinderError) as info:
            run(session, query)
        assert info.value.code == code


#: the same operations right at the edge stay exact
AT_THE_EDGE = (
    (f"{I64_MAX - 1} + 1", str(I64_MAX)),
    (f"-{I64_MAX} - 1", str(-I64_MAX - 1)),
    ("4611686018427387904 * -2", str(-(2**63))),
    (f"(-{I64_MAX} - 1) idiv 2", str(-(2**62))),
    (f"-{I64_MAX} idiv 2", str(-(I64_MAX // 2))),
    ("-7 idiv 2", "-3"),
    (f"{I64_MAX} mod 10", "7"),
    (f"(-{I64_MAX} - 1) mod -1", "0"),
    (f"{I64_MAX} cast as xs:integer", str(I64_MAX)),
    ("9007199254740993 cast as xs:integer", "9007199254740993"),
    ("1e18 cast as xs:integer", str(10**18)),
    ("-2.9 cast as xs:integer", "-2"),
    ("1e308 * 10", "INF"),
    ("-1e308 - 1e308", "-INF"),
)


@pytest.mark.parametrize("query,expected", AT_THE_EDGE)
def test_int64_edge_is_exact(session, query, expected):
    assert run_pf(session, query) == expected
    assert run_baseline(session, query) == expected


#: NaN/±INF positions: the baseline crashed on ``int(NaN)``; it now
#: compares positions with them as F&O does
NAN_AND_INF_POSITIONS = (
    ('subsequence((1, 2, 3), number("x"))', ""),
    ("subsequence((1, 2, 3), 2, 1e309)", "2 3"),
    ("subsequence((1, 2, 3), -1e309, 1e309)", ""),
    ("remove((1, 2, 3), -1e309)", "1 2 3"),
    ("insert-before((1, 2, 3), 1e309, 9)", "1 2 3 9"),
)


@pytest.mark.parametrize("query,expected", NAN_AND_INF_POSITIONS)
def test_positions_at_nan_and_inf(session, query, expected):
    assert run_baseline(session, query) == expected
    try:
        run_pf(session, query)
    except PathfinderError:
        pass


_EDGE_INTS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0, 1, -1, 2, -2, 2**31, 2**32 + 1, 2**62, -(2**62), 2**63 - 1, -(2**63)]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    op=st.sampled_from(["add", "sub", "mul", "idiv", "mod"]),
    pairs=st.lists(st.tuples(_EDGE_INTS, _EDGE_INTS), min_size=1, max_size=6),
)
def test_integer_kernel_is_exact_or_foar0002(op, pairs):
    """The int64 kernel against Python integers: the exact result, or
    ``err:FOAR0002`` when some row's result leaves int64."""
    pairs = [(x, y) for x, y in pairs if y != 0 or op not in ("idiv", "mod")] or [(1, 1)]
    expected = []
    for x, y in pairs:
        if op == "add":
            expected.append(x + y)
        elif op == "sub":
            expected.append(x - y)
        elif op == "mul":
            expected.append(x * y)
        else:
            q = abs(x) // abs(y) * (-1 if (x < 0) != (y < 0) else 1)
            expected.append(q if op == "idiv" else x - q * y)
    a = it.ItemColumn.from_ints(np.array([x for x, _ in pairs], dtype=np.int64))
    b = it.ItemColumn.from_ints(np.array([y for _, y in pairs], dtype=np.int64))
    if all(it.I64_MIN <= v <= it.I64_MAX for v in expected):
        got = it.arithmetic(op, a, b, it.StringPool())
        assert got.data.tolist() == expected
    else:
        with pytest.raises(PathfinderError) as info:
            it.arithmetic(op, a, b, it.StringPool())
        assert info.value.code == "err:FOAR0002"
