"""Path semantics against the nested-loop baseline interpreter.

The compiler turns ``//t`` into one ``descendant::t`` staircase step
whenever no predicate of the ``t`` step can observe position, and keeps
the literal ``descendant-or-self::node()/child::t`` form otherwise
(``compiler/loop_lifting.py``, ``Compiler._fused_steps``).  The baseline
interpreter evaluates Core, where ``//`` is always the literal two-step
form, so it is an independent oracle for the rewrite.  The same cases pin
down step predicates, which filter each context node's hits on their own
(``/r/a/b[1]`` is the first ``b`` of every ``a``), reverse axes, which
number positions from the context node outwards (``ancestor::a[1]`` is the
nearest ``a``), and zero-argument ``name()``.
"""

from __future__ import annotations

import pytest

from repro.encoding.axes import Axis
from repro.relational import algebra as alg

from tests.test_hoisting import CONFIGS, _baseline, _db, _numpy

DOC = (
    '<r><a id="1" n="2"><b>x</b><a id="2"><b>y</b><b k="1">z</b><x/></a></a>'
    '<a id="3"><c/><b>NaN</b><c><b k="2">w</b><x/></c></a></r>'
)

#: (query, expected serialization)
CASES = [
    # a step predicate filters each context node's hits on their own
    ("/r/a/b[1]", "<b>x</b><b>NaN</b>"),
    ("/r/a/a/b[last()]/text()", "z"),
    # // with predicates: positional ones keep the two-step form
    ("//b[1]", "<b>x</b><b>y</b><b>NaN</b><b k=\"2\">w</b>"),
    ("//b[last()]", "<b>x</b><b k=\"1\">z</b><b>NaN</b><b k=\"2\">w</b>"),
    ("//b[@k]/text()", "zw"),
    ("//b[position() > 1]/text()", "z"),
    ("let $n := 2 return //b[$n]/text()", "z"),
    ("//a[count(b)]/@id/string()", "1"),
    ("//a[.//x]/@id/string()", "1 2 3"),
    ("//b[@k = '2']/text()", "w"),
    ("//b[not(@k)][1]/text()", "xyNaN"),
    ("//b[text() != 'x'][last()]/text()", "zNaNw"),
    # every kind of node test after //
    ("//text()", "xyzNaNw"),
    ("count(//node())", "18"),
    ("//*/name()", "r a b a b b x a c b c b x"),
    ("//@k/string()", "1 2"),
    ("count(//@*)", "6"),
    # // after // and from nested contexts
    ("//a//b/text()", "xyzNaNw"),
    ("for $x in //a return count($x//b)", "3 2 2"),
    ("for $x in //a return $x//b[1]/text()", "xyyNaNw"),
    ("//a/b//text()", "xyzNaN"),
    ("(//a)[2]//b/text()", "yz"),
    # reverse axes count from the context node outwards
    ("for $b in //b return $b/ancestor::a[1]/@id/string()", "1 2 2 3 3"),
    ("for $b in //b return $b/ancestor::*[2]/name()", "r a a r a"),
    ("//b/ancestor-or-self::*[last()]/name()", "r"),
    ("//x/preceding-sibling::*[1]/text()", "zw"),
    ("//x/preceding::b[1]/text()", "zw"),
    ("for $x in //x return $x/preceding::b[2]/text()", "yNaN"),
    # zero-argument name() reads the context item
    ("//*[name() = 'c']/@k/string()", ""),
    ("count(//*[name() = 'c'])", "2"),
    ("//a/*/local-name()", "b a b b x c b c"),
    ("string-join(//*[@k]/name(), ',')", "b,b"),
    ("name()", ("error", "err:XPDY0002")),
]


@pytest.fixture(scope="module")
def db():
    return _db(DOC)


@pytest.mark.parametrize("query, expected", CASES, ids=[f"p{i}" for i in range(len(CASES))])
def test_paths_match_baseline(db, query, expected):
    assert _baseline(db, query) == expected
    for options in CONFIGS:
        assert _numpy(db, query, **options) == expected, options


def _steps(db, query, **options) -> list:
    plan = db.compile_query(query, use_optimizer=True, **options).plan
    return [
        op.axis for op in alg.walk(plan) if isinstance(op, alg.StepJoin)
    ] + [
        axis for op in alg.walk(plan) if isinstance(op, alg.StructuralTwigJoin)
        for axis, _ in op.steps
    ]


@pytest.mark.parametrize("query", ["//b", "//b[@k]", "//a//b", "count(//text())",
                                   "//b[text() = 'x' or @k]"])
def test_position_blind_steps_fuse(db, query):
    axes = _steps(db, query)
    assert Axis.DESCENDANT in axes
    assert Axis.DESCENDANT_OR_SELF not in axes


@pytest.mark.parametrize("query", ["//b[1]", "//b[last()]", "let $n := 1 return //b[$n]",
                                   "//a[count(b)]", "//b[@k][2]", "//@k"])
def test_position_dependent_steps_stay_two(db, query):
    assert Axis.DESCENDANT_OR_SELF in _steps(db, query)
