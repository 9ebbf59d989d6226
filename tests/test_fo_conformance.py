"""F&O conformance edge cases, run differentially against the baseline.

Each case in :data:`AGREE_CASES` must produce identical serialized output
on the loop-lifting/numpy session and the nested-loop interpreter; the
error classes assert the W3C error *codes* on both engines.  The suite
pins the four conformance fixes of the update-facility PR — substring
over NaN/±INF, exact-numeric division by zero, string min/max + sum type
errors, and value-equality distinct-values — plus the adjacent edges
(substring negative length, round half-up on negatives, mod sign).
"""

from __future__ import annotations

import pytest

from repro.errors import DynamicError, StaticError
from repro.xquery.core import desugar_module
from repro.xquery.parser import parse_query

from tests.conftest import baseline_for, open_session, run_baseline, run_pf


@pytest.fixture
def session():
    return open_session(
        "doc.xml", "<r><n>1</n><n>2.5</n><s>beta</s><s>alpha</s></r>"
    )


def both_raise(session, query, code, error=DynamicError):
    """Both engines must raise ``error`` carrying ``code``."""
    with pytest.raises(error) as exc:
        session.execute(query)
    assert exc.value.code == code
    interp = baseline_for(session)
    module = desugar_module(parse_query(query))
    with pytest.raises(error) as exc:
        interp.execute(module)
    assert exc.value.code == code


# ---------------------------------------------------------------- agreement
AGREE_CASES = [
    # fn:substring over NaN / infinity (spec: comparisons with NaN are
    # false, so the result is the empty string — never a crash)
    'substring("hello", 0 div 0e0)',
    'substring("hello", 1, 0 div 0e0)',
    'substring("hello", 0e0 div 0e0, 3)',
    'substring("hello", -1e0 div 0e0)',
    'substring("hello", 1e0 div 0e0)',
    'substring("hello", -1e0 div 0e0, 1e0 div 0e0)',
    'substring("hello", 2, 1e0 div 0e0)',
    # substring rounding and negative start/length
    'substring("hello", 2, 3)',
    'substring("hello", 1.5, 2.6)',
    'substring("hello", 0, 3)',
    'substring("hello", -42)',
    'substring("hello", 2, -1)',
    'substring("hello", 5, 10)',
    'substring("", 1, 1)',
    # double division stays INF/NaN
    "1e0 div 0e0",
    "-1e0 div 0e0",
    "0e0 div 0e0",
    "1.5 + 2e0",  # decimal + double promotes to double
    # decimal arithmetic stays exact but prints the same
    "1.5 + 1.5",
    "1 div 2",
    "7.5 div 2.5",
    # string min/max
    'min(("b", "a"))',
    'max(("b", "a"))',
    'min(("beta", "alpha", "gamma"))',
    "min(/r/s)",  # untyped content casts to double -> NaN semantics aside,
    # both engines agree on the serialized outcome
    # numeric aggregates over untyped node content
    "sum(/r/n)",
    "max(/r/n)",
    # distinct-values value equality
    'count(distinct-values((1, 1.0, "1")))',
    'count(distinct-values((1, 1e0, 1.0)))',
    'count(distinct-values((1, 2, 1.0, 3e0, 3)))',
    'count(distinct-values(("a", "a", "b")))',
    'count(distinct-values((true(), 1)))',
    'count(distinct-values((0 div 0e0, 0e0 div 0e0)))',
    'string-join(for $v in distinct-values((2, 1.0, 2.0, "2")) return string($v), "|")',
    # round half toward +INF, also on negatives
    "round(2.5)",
    "round(-2.5)",
    "round(2.4999)",
    "round(-2.5e0)",
    "round(-0.5)",
    "floor(-2.5)",
    "ceiling(-2.5)",
    "abs(-2.5)",
    # mod sign follows the dividend (fmod semantics)
    "5 mod 3",
    "-5 mod 3",
    "5 mod -3",
    "-5 mod -3",
    "5.5 mod 2",
    "-5.5e0 mod 2",
    "1e0 mod 0e0",
    # idiv truncates toward zero
    "7 idiv 2",
    "-7 idiv 2",
    "7 idiv -2",
    # typing of literals
    "2.5 instance of xs:decimal",
    "2.5 instance of xs:double",
    "2.5e0 instance of xs:double",
    "(1 div 2) instance of xs:decimal",
    "1.5 cast as xs:decimal instance of xs:decimal",
    "1.5 cast as xs:double instance of xs:double",
    "(1.0 div 2) instance of xs:decimal",
    # integer aggregates stay exact beyond 2^53 (no float64 round trip)
    "max((9007199254740993, 9007199254740992))",
    "min((9007199254740993, 9007199254740995))",
    "for $x in (1,2) return sum((9007199254740993, $x))",
    # fn:sum($arg, $zero): $zero stands in for an empty $arg, per iteration
    "sum((), 7)",
    "sum((1,2), 7)",
    "sum((), ())",
    "sum((), 7.5)",
    "for $x in (0, 1, 2) return sum((1 to $x), $x * 10 - 1)",
    "for $x in (0, 1) return sum((1 to $x), ())",
]


@pytest.mark.parametrize(
    "query", AGREE_CASES, ids=[f"fo{i}" for i in range(len(AGREE_CASES))]
)
def test_engines_agree(session, query):
    assert run_pf(session, query) == run_baseline(session, query)


# ------------------------------------------------------------ fixed values
class TestSubstring:
    def test_nan_start_is_empty(self, session):
        assert run_pf(session, 'substring("hello", 0 div 0e0)') == ""

    def test_nan_length_is_empty(self, session):
        assert run_pf(session, 'substring("hello", 1, 0 div 0e0)') == ""

    def test_negative_start_clamps(self, session):
        assert run_pf(session, 'substring("hello", -42)') == "hello"

    def test_negative_length_is_empty(self, session):
        assert run_pf(session, 'substring("hello", 2, -1)') == ""

    def test_spec_examples(self, session):
        # the F&O 7.4.3 examples
        assert run_pf(session, 'substring("motor car", 6)') == " car"
        assert run_pf(session, 'substring("metadata", 4, 3)') == "ada"
        assert run_pf(session, 'substring("12345", 1.5, 2.6)') == "234"
        assert run_pf(session, 'substring("12345", 0, 3)') == "12"
        assert run_pf(session, 'substring("12345", -3, 5)') == "1"


class TestDivisionByZero:
    def test_integer_div_raises(self, session):
        both_raise(session, "1 div 0", "err:FOAR0001")

    def test_decimal_div_raises(self, session):
        both_raise(session, "1.0 div 0.0", "err:FOAR0001")

    def test_mixed_exact_div_raises(self, session):
        both_raise(session, "1.0 div 0", "err:FOAR0001")

    def test_nested_decimal_result_raises(self, session):
        both_raise(session, "(1 div 2) div 0", "err:FOAR0001")

    def test_integer_mod_zero_raises(self, session):
        both_raise(session, "1 mod 0", "err:FOAR0001")

    def test_integer_idiv_zero_raises(self, session):
        both_raise(session, "1 idiv 0", "err:FOAR0001")

    def test_double_div_is_inf(self, session):
        assert run_pf(session, "1e0 div 0e0") == "INF"
        assert run_pf(session, "0e0 div 0e0") == "NaN"

    def test_untyped_divides_as_double(self, session):
        # untypedAtomic casts to xs:double, so INF is allowed
        assert run_pf(session, "/r/n[1] div 0") == "INF"


class TestAggregates:
    def test_min_strings(self, session):
        assert run_pf(session, 'min(("b", "a"))') == "a"

    def test_max_strings(self, session):
        assert run_pf(session, 'max(("b", "a"))') == "b"

    def test_min_mixed_raises(self, session):
        both_raise(session, 'min((2, "a"))', "err:FORG0006")

    def test_sum_strings_raises(self, session):
        both_raise(session, 'sum(("a", "b"))', "err:FORG0006")

    def test_avg_strings_raises(self, session):
        both_raise(session, 'avg(("a", "b"))', "err:FORG0006")

    def test_sum_empty_still_zero(self, session):
        assert run_pf(session, "sum(())") == "0"

    def test_sum_zero_argument(self, session):
        assert run_pf(session, "sum((), 7)") == "7"
        assert run_pf(session, "sum((), ())") == ""
        assert run_pf(session, "for $x in (0, 1, 2) return sum((1 to $x), -$x)") == "0 1 3"

    @pytest.mark.parametrize(
        "query", ["count(1, 2)", "avg(1, 2)", "min(1, 2)", "max(1, 2)", "sum(1, 2, 3)"]
    )
    def test_aggregate_arity_is_checked(self, session, query):
        both_raise(session, query, "err:XPST0017", error=StaticError)

    def test_integer_aggregates_are_exact(self, session):
        big = 9007199254740993  # 2^53 + 1: not a float64
        assert run_pf(session, f"max(({big}, {big - 1}))") == str(big)
        assert run_pf(session, f"min(({big}, {big + 2}))") == str(big)
        # the per-group branch: one group mixes in a double
        q = f"for $x in (1, 2.5e0) return sum(({big}, $x))"
        assert run_pf(session, q) == run_baseline(session, q)
        assert run_pf(session, q).split()[0] == str(big + 1)

    def test_min_grouped_strings(self, session):
        # the loop-lifted (grouped) aggregate path, not just the global one
        out = run_pf(
            session, 'for $i in (1, 2) return min(("b", "a", string($i)))'
        )
        assert out == run_baseline(
            session, 'for $i in (1, 2) return min(("b", "a", string($i)))'
        )

    def test_min_string_and_numeric_groups_coexist(self, session):
        # the type check is per group: one all-string group must not
        # poison a numeric group of the same lifted aggregate
        q = 'for $i in (1, 2) return min(if ($i = 1) then ("b", "a") else (3, 2))'
        assert run_pf(session, q) == "a 2"
        assert run_baseline(session, q) == "a 2"


class TestDistinctValues:
    def test_numeric_promotion(self, session):
        assert run_pf(session, 'count(distinct-values((1, 1.0, "1")))') == "2"

    def test_first_occurrence_wins(self, session):
        assert run_pf(session, "distinct-values((1, 1.0, 2))") == "1 2"

    def test_nan_equals_nan(self, session):
        assert run_pf(session, "count(distinct-values((0e0 div 0e0, 0 div 0e0)))") == "1"

    def test_boolean_not_numeric(self, session):
        assert run_pf(session, "count(distinct-values((true(), 1)))") == "2"
