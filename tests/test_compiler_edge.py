"""Edge-case battery for the loop-lifting compiler, differential vs the
baseline interpreter on every case."""

import pytest

from tests.conftest import run_baseline, run_pf

EDGE_CASES = [
    # scoping
    "let $x := 1 return let $x := $x + 1 return $x",
    "for $x in (1,2) return let $y := $x * 10 return ($y, $x)",
    "for $x in (1,2) for $x in (3,4) return $x",  # rebinding
    "let $x := (1,2,3) return for $y in $x return $y + count($x)",
    # where/order interplay
    "for $x in (5,3,4,1,2) where $x > 1 order by $x return $x",
    "for $x in (1,2,3), $y in (1,2,3) where $x < $y order by $y, $x descending return concat($x, '-', $y)",
    "for $x at $p in ('c','a','b') order by $x return $p",
    # predicates
    "(1 to 10)[. > 3][. < 7][2]",
    "/site/a[position() > 1]/text()",
    "/site/a[position() = last()]/text()",
    "//a[../deep]/text()",
    "//a[count(ancestor::*) = 2]/text()",
    "(//a)[last() - 1]/text()",
    # nested quantifiers
    "some $x in (1,2) satisfies every $y in (3,4) satisfies $y > $x",
    "every $x in () satisfies $x > 100",  # vacuous truth
    "some $x in () satisfies true()",
    # empty-sequence propagation
    "count(for $x in () return 1)",
    "sum(()) + count(())",
    "if (()) then 'y' else 'n'",
    "() = ()",
    "string(())",
    # heterogeneous sequences
    "for $x in (1, 'a', 2.5, /site/b) return string($x)",
    "data((5, /site/a[1], 'x'))",
    # constructors in odd positions
    "count((<a/>, <b/>))",
    "name((<first/>, <second/>)[2])",
    "<o>{ () }</o>",
    "for $i in (1,2) return <n>{ <m>{$i}</m> }</n>",
    "string(<a>x<b>y</b>z</a>)",
    # conditionals nested in FLWOR
    "for $x in (1,2,3) return if ($x = 2) then ($x, $x) else $x",
    "for $x in (1,2) where (if ($x = 1) then true() else false()) return $x",
    # typeswitch across iterations
    "for $x in (1, 'a') return typeswitch ($x) case xs:integer return $x + 1 default return 0",
    # arithmetic type preservation
    "1 + 1 instance of xs:integer",
    "(1 div 1) instance of xs:integer",
    "2.0 instance of xs:double",
    # set operations
    "count((//a | //b) except //a)",
    "count(//* intersect //a)",
    # deep paths
    "/site/nest/deep/a/../../a/text()",
    "count(//node())",
    "count(/site//*/text())",
    # functions of functions
    "declare function local:f($s) { count($s) + 1 }; local:f((1,2,3))",
    "declare function local:g($a, $b) { $a * 10 + $b }; for $i in (1,2) return local:g($i, $i)",
    "declare function local:h($x) { $x[1] }; local:h((/site/a[2], /site/a[1]))/text()",
    # string edge cases
    "concat('', '', 'x')",
    "substring('abc', 10)",
    "string-join((), '-')",
    "contains('', '')",
]


@pytest.mark.parametrize(
    "query", EDGE_CASES, ids=[f"edge{i}" for i in range(len(EDGE_CASES))]
)
def test_edge_case_agreement(session, query):
    assert run_pf(session, query) == run_baseline(session, query)
