"""Tests for the sequence-function library, on both engines."""

import pytest

from tests.conftest import run_baseline, run_pf

CASES = [
    ("reverse((1,2,3))", "3 2 1"),
    ("reverse(())", ""),
    ("reverse(/site/a)/text()", None),  # nodes: compare engines only
    ("subsequence((1,2,3,4,5), 2)", "2 3 4 5"),
    ("subsequence((1,2,3,4,5), 2, 2)", "2 3"),
    ("subsequence((1,2,3), 0)", "1 2 3"),
    ("subsequence((1,2,3), 2.5)", "3"),
    ("subsequence((1,2,3), 10)", ""),
    ("index-of((10,20,30,20), 20)", "2 4"),
    ("index-of((1,2,3), 9)", ""),
    ("index-of(('a','b','a'), 'a')", "1 3"),
    ("insert-before((1,2,3), 2, (10,11))", "1 10 11 2 3"),
    ("insert-before((1,2,3), 1, 0)", "0 1 2 3"),
    ("insert-before((1,2,3), 99, 4)", "1 2 3 4"),
    ("insert-before((), 1, 5)", "5"),
    ("remove((1,2,3), 2)", "1 3"),
    ("remove((1,2,3), 9)", "1 2 3"),
    ("remove((), 1)", ""),
    ("deep-equal((1,2), (1,2))", "true"),
    ("deep-equal((1,2), (2,1))", "false"),
    ("deep-equal((), ())", "true"),
    ("deep-equal((1), (1,2))", "false"),
    ("deep-equal(/site/a[1], /site/a[1])", "true"),
    ("deep-equal(/site/a[1], /site/a[2])", "false"),
    ("deep-equal(<x a='1'>t</x>, <x a='1'>t</x>)", "true"),
    ("deep-equal(<x a='1'/>, <x a='2'/>)", "false"),
    ("deep-equal(<x><y/></x>, <x><y/></x>)", "true"),
    ("deep-equal(<x><y/></x>, <x><z/></x>)", "false"),
]


@pytest.mark.parametrize("query,expected", CASES, ids=[c[0][:40] for c in CASES])
def test_sequence_function(session, query, expected):
    pf = run_pf(session, query)
    base = run_baseline(session, query)
    assert pf == base
    if expected is not None:
        assert pf == expected


def test_per_iteration_semantics(session):
    """Sequence functions operate per loop-lifted iteration."""
    query = "for $n in (2, 3) return string-join(for $x in reverse(1 to $n) return string($x), '')"
    assert run_pf(session, query) == run_baseline(session, query) == "21 321"


def test_subsequence_dynamic_positions(session):
    query = "for $n in (1, 2) return sum(subsequence((10, 20, 30), $n, 2))"
    assert run_pf(session, query) == run_baseline(session, query) == "30 50"
