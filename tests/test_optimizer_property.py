"""Property test: the optimizer preserves semantics on random plans.

Hypothesis generates small random algebra plans over random literal
tables; optimizing must never change the (multiset of rows of the)
result.  This catches rewrite bugs that hand-picked cases miss — the
``True == 1`` CSE collision was exactly this kind of bug.
"""

from hypothesis import given, settings, strategies as st

from repro.encoding.arena import NodeArena
from repro.relational import algebra as alg
from repro.relational.algebra import col, const
from repro.relational.evaluate import EvalContext, evaluate
from repro.relational.items import ItemColumn
from repro.relational.optimizer import OPTIMIZER_MODES, OptimizerStats, optimize

_value = st.one_of(
    st.integers(-5, 5),
    st.booleans(),
    st.sampled_from(["a", "b", ""]),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)


@st.composite
def _lit(draw):
    n_rows = draw(st.integers(0, 5))
    rows = tuple(
        (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(_value))
        for _ in range(n_rows)
    )
    return alg.Lit(("iter", "pos", "item"), rows, frozenset({"item"}))


@st.composite
def _plan(draw, depth=3):
    if depth == 0:
        return draw(_lit())
    branch = draw(st.integers(0, 8))
    child = draw(_plan(depth=depth - 1))
    if branch == 0:
        # a projection permuting/duplicating columns
        cols = draw(
            st.permutations([("iter", "iter"), ("pos", "pos"), ("item", "item")])
        )
        return alg.Project(child, tuple(cols))
    if branch == 1:
        op = draw(st.sampled_from(["eq", "ne", "lt", "ge"]))
        rhs = draw(st.one_of(st.just(col("pos")), st.just(const(1)), st.just(const(2))))
        return alg.Select(child, op, col("iter"), rhs)
    if branch == 2:
        other = draw(_plan(depth=depth - 1))
        return alg.Union((child, other))
    if branch == 3:
        other = draw(_plan(depth=depth - 1))
        return alg.Difference(child, other, ("iter",))
    if branch == 4:
        keys = draw(st.sampled_from([("iter",), ("iter", "pos"), ("iter", "item")]))
        return alg.Distinct(child, keys)
    if branch == 5:
        other = draw(_plan(depth=depth - 1))
        renamed = alg.Project(
            other, (("i2", "iter"), ("p2", "pos"), ("item2", "item"))
        )
        return alg.Join(child, renamed, (("iter", "i2"),))
    if branch == 6:
        group = draw(st.sampled_from([None, "iter"]))
        return alg.RowNum(child, "rn", (("iter", False), ("pos", True)), group)
    if branch == 7:
        fn = draw(st.sampled_from(["eq", "add", "cast_str", "ebv"]))
        if fn in ("eq", "add"):
            return alg.Map(child, fn, "m", (col("item"), const(1)))
        return alg.Map(child, fn, "m", (col("item"),))
    agg = draw(st.sampled_from(["count", "sum", "max"]))
    return alg.Aggr(child, agg, "agg", None if agg == "count" else "item", "iter")


def _normalised(plan):
    ctx = EvalContext(NodeArena())
    table = evaluate(plan, ctx)
    def canon(v):
        if isinstance(v, float) and v != v:
            return "NaN"  # NaN compares unequal to itself
        return v

    decoded = {}
    for name, column in table.columns.items():
        if isinstance(column, ItemColumn):
            decoded[name] = [
                (type(v).__name__, canon(v)) for v in column.to_values(ctx.pool)
            ]
        else:
            decoded[name] = [int(v) for v in column]
    names = sorted(decoded)
    rows = sorted(zip(*[decoded[n] for n in names])) if names else []
    return names, rows


@settings(max_examples=120, deadline=None)
@given(_plan())
def test_optimize_preserves_semantics(plan):
    try:
        before = _normalised(plan)
    except Exception:
        # plans that don't evaluate (e.g. arithmetic on non-numeric strings)
        # must fail identically after optimization — or fold to something
        # evaluable, which is also acceptable; skip comparing those
        return
    optimized = optimize(plan)
    after_names, after_rows = _normalised(optimized)
    before_names, before_rows = before
    # optimization may drop unused columns never visible to a consumer;
    # the root keeps its full schema, so names must survive
    assert after_names == before_names
    assert after_rows == before_rows


@settings(max_examples=60, deadline=None)
@given(_plan())
def test_optimizer_modes_agree(plan):
    """Mode differential: cost, greedy and wcoj may pick different plans
    for the same input but must compute the same relation."""
    try:
        before_names, before_rows = _normalised(plan)
    except Exception:
        return
    for mode in OPTIMIZER_MODES:
        after_names, after_rows = _normalised(optimize(plan, mode=mode))
        assert after_names == before_names, f"schema differs under {mode}"
        assert after_rows == before_rows, f"rows differ under {mode}"


@settings(max_examples=120, deadline=None)
@given(_plan(), st.sampled_from(["cost", "wcoj"]))
def test_optimize_reaches_a_fixpoint(plan, mode):
    """Optimizing an optimized plan changes nothing and fires nothing:
    the driver stops only once no pass has anything left to do."""
    once = optimize(plan, mode=mode)
    stats = OptimizerStats()
    assert optimize(once, stats, mode=mode) is once
    assert sum(p.rewrites for p in stats.pass_stats) == 0


@settings(max_examples=60, deadline=None)
@given(_plan())
def test_schema_inference_matches_evaluation(plan):
    try:
        ctx = EvalContext(NodeArena())
        table = evaluate(plan, ctx)
    except Exception:
        return
    assert set(plan.columns) == set(table.schema)
