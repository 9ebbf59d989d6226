"""Tests for the rewrite-pass optimizer: semantics preservation, the
cost-aware passes (pushdown, join recognition, distinct elimination,
join ordering) and per-pass statistics."""

import pytest

from repro.encoding.arena import NodeArena
from repro.encoding.axes import ANY_ELEMENT, Axis
from repro.errors import AlgebraError
from repro.relational import algebra as alg
from repro.relational.algebra import col, const
from repro.relational.evaluate import EvalContext, evaluate
from repro.relational.optimizer import (
    PASS_NAMES,
    CardinalityEstimator,
    OptimizerStats,
    optimize,
)

LIT = alg.Lit(
    ("iter", "pos", "item"),
    ((1, 1, 10), (1, 2, 20), (2, 1, 30)),
    frozenset({"item"}),
)


def same_result(plan):
    c1, c2 = EvalContext(NodeArena()), EvalContext(NodeArena())
    t1 = evaluate(plan, c1)
    t2 = evaluate(optimize(plan), c2)
    assert t1.schema == t2.schema or set(t1.schema) >= set(t2.schema)
    common = [c for c in t1.schema if c in t2.schema]
    r1 = sorted(
        tuple(row) for row in
        zip(*[_dec(t1, c, c1) for c in common])
    )
    r2 = sorted(
        tuple(row) for row in
        zip(*[_dec(t2, c, c2) for c in common])
    )
    assert r1 == r2


def _dec(table, name, ctx):
    colv = table.columns[name]
    from repro.relational.items import ItemColumn

    if isinstance(colv, ItemColumn):
        return [(type(v).__name__, v) for v in colv.to_values(ctx.pool)]
    return [int(v) for v in colv]


class TestSchemaInference:
    def test_basic_ops(self):
        assert LIT.columns == ("iter", "pos", "item")
        p = alg.Project(LIT, (("a", "item"),))
        assert p.columns == ("a",)
        assert alg.Select(LIT, "eq", col("pos"), const(1)).columns == LIT.schema
        m = alg.Map(LIT, "add", "r", (col("item"), const(1)))
        assert m.columns == ("iter", "pos", "item", "r")
        r = alg.RowNum(LIT, "n", (("pos", False),), "iter")
        assert r.columns == ("iter", "pos", "item", "n")
        a = alg.Aggr(LIT, "count", "n", None, "iter")
        assert a.columns == ("iter", "n")

    def test_join_concatenates(self):
        other = alg.Lit(("x", "y"), ((1, 2),))
        j = alg.Join(LIT, other, (("iter", "x"),))
        assert j.columns == ("iter", "pos", "item", "x", "y")


class TestRewrites:
    def test_projection_merge(self):
        p1 = alg.Project(LIT, (("a", "item"), ("i", "iter")))
        p2 = alg.Project(p1, (("b", "a"),))
        out = optimize(p2)
        # merged into a single projection over the literal (then folded)
        assert alg.op_count(out) == 1
        same_result(p2)

    def test_identity_projection_removed(self):
        p = alg.Project(LIT, (("iter", "iter"), ("pos", "pos"), ("item", "item")))
        out = optimize(p)
        assert isinstance(out, alg.Lit)

    def test_dead_map_dropped(self):
        m = alg.Map(LIT, "add", "dead", (col("item"), const(1)))
        p = alg.Project(m, (("iter", "iter"),))
        out = optimize(p)
        assert all(not isinstance(op, alg.Map) for op in alg.walk(out))
        same_result(p)

    def test_dead_rownum_dropped(self):
        r = alg.RowNum(LIT, "dead", (("pos", False),), "iter")
        p = alg.Project(r, (("item", "item"),))
        out = optimize(p)
        assert all(not isinstance(op, alg.RowNum) for op in alg.walk(out))
        same_result(p)

    def test_select_over_literal_folds(self):
        s = alg.Select(alg.Lit(("a",), ((1,), (2,), (3,))), "ge", col("a"), const(2))
        out = optimize(s)
        assert isinstance(out, alg.Lit)
        assert out.rows == ((2,), (3,))

    def test_item_select_not_folded_at_compile_time(self):
        s = alg.Select(LIT, "eq", col("item"), const(10))
        optimize(s)
        same_result(s)

    def test_union_of_literals_folds(self):
        u = alg.Union((alg.Lit(("a",), ((1,),)), alg.Lit(("a",), ((2,),))))
        out = optimize(u)
        assert isinstance(out, alg.Lit)
        assert out.rows == ((1,), (2,))

    def test_empty_propagation_through_join(self):
        empty = alg.Lit(("x",), ())
        j = alg.Join(alg.Lit(("y", "v"), ((1, 2),)), empty, (("y", "x"),))
        out = optimize(j)
        assert isinstance(out, alg.Lit) and not out.rows

    def test_cse_shares_identical_subplans(self):
        m1 = alg.Map(LIT, "add", "r", (col("item"), const(1)))
        m2 = alg.Map(LIT, "add", "r", (col("item"), const(1)))
        u = alg.Union((m1, m2))
        out = optimize(u)
        union = next(op for op in alg.walk(out) if isinstance(op, alg.Union))
        assert union.inputs[0] is union.inputs[1]

    def test_cse_distinguishes_bool_from_int_literals(self):
        """Regression: True == 1 in Python; CSE must not merge them."""
        a = alg.Lit(("pos", "item"), ((1, True),), frozenset({"item"}))
        b = alg.Lit(("pos", "item"), ((1, 1),), frozenset({"item"}))
        u = alg.Union((a, b))
        ctx = EvalContext(NodeArena())
        vals = evaluate(optimize(u), ctx).item("item").to_values(ctx.pool)
        assert sorted(str(v) for v in vals) == ["1", "True"]

    def test_constructors_never_folded(self):
        names = alg.Lit(("iter", "item"), ((1, "t"),), frozenset({"item"}))
        content = alg.Lit(("iter", "pos", "item"), (), frozenset({"item"}))
        e = alg.ElemConstr(names, content)
        out = optimize(e)
        assert any(isinstance(op, alg.ElemConstr) for op in alg.walk(out))


def _num_lit(name: str, n: int, extra: tuple[str, ...] = ()) -> alg.Lit:
    """A literal with ``n`` rows of distinct ints in plain column ``name``."""
    cols = (name,) + extra
    return alg.Lit(cols, tuple((i,) * len(cols) for i in range(n)))


class TestFuseSelect:
    def test_comparison_map_becomes_selection(self):
        m = alg.Map(LIT, "ge", "cmp", (col("pos"), const(2)))
        s = alg.Select(m, "eq", col("cmp"), const(True))
        p = alg.Project(s, (("item", "item"),))
        out = optimize(p, disabled={"fold"})
        # the boolean column is dead, so the ⊛ disappears entirely and
        # the comparison runs as the σ predicate
        selects = [op for op in alg.walk(out) if isinstance(op, alg.Select)]
        assert any(op.op == "ge" for op in selects)
        assert all(not isinstance(op, alg.Map) for op in alg.walk(out))
        # with folding on, the whole pipeline evaluates at compile time
        assert isinstance(optimize(p), alg.Lit)
        same_result(p)

    def test_negated_equality_fuses(self):
        m = alg.Map(LIT, "eq", "cmp", (col("pos"), const(1)))
        s = alg.Select(m, "eq", col("cmp"), const(False))
        p = alg.Project(s, (("item", "item"),))
        out = optimize(p, disabled={"fold"})
        selects = [op for op in alg.walk(out) if isinstance(op, alg.Select)]
        assert any(op.op == "ne" for op in selects)
        same_result(p)

    def test_ordering_comparison_not_negated(self):
        """NaN makes ¬(a < b) ≠ (a ≥ b); the rewrite must not fire."""
        m = alg.Map(LIT, "lt", "cmp", (col("pos"), const(2)))
        s = alg.Select(m, "eq", col("cmp"), const(False))
        out = optimize(alg.Project(s, (("item", "item"),)))
        assert all(
            op.op not in ("lt", "ge") for op in alg.walk(out)
            if isinstance(op, alg.Select)
        )
        same_result(s)


class TestPushdown:
    def test_select_below_join(self):
        left = _num_lit("a", 5, ("v",))
        right = _num_lit("b", 5)
        j = alg.Join(left, right, (("a", "b"),))
        s = alg.Select(j, "ge", col("v"), const(2))
        out = optimize(s, disabled={"fold"})
        # the σ must now sit below the ⋈, on the left input
        joins = [op for op in alg.walk(out) if isinstance(op, alg.Join)]
        assert joins and all(
            not isinstance(op, alg.Select)
            or all(not isinstance(c, alg.Join) for c in op.children)
            for op in alg.walk(out)
        )
        same_result(s)

    def test_select_below_union_and_folds(self):
        u = alg.Union((alg.Lit(("a",), ((1,), (2,))), alg.Lit(("a",), ((3,),))))
        s = alg.Select(u, "ge", col("a"), const(2))
        out = optimize(s)
        assert isinstance(out, alg.Lit)
        assert out.rows == ((2,), (3,))

    def test_select_not_pushed_into_shared_subplan(self):
        big = alg.Join(_num_lit("a", 4, ("v",)), _num_lit("b", 4), (("a", "b"),))
        filtered = alg.Select(big, "eq", col("v"), const(1))
        both = alg.Union(
            (
                alg.Project(filtered, (("a", "a"),)),
                alg.Project(big, (("a", "a"),)),
            )
        )
        out = optimize(both, disabled={"fold"})
        # `big` has two consumers: the σ must stay above it, not fork it
        joins = [op for op in alg.walk(out) if isinstance(op, alg.Join)]
        assert len(joins) == 1
        same_result(both)

    def test_semijoin_below_stepjoin(self, small_arena):
        arena, doc = small_arena
        ctx_lit = alg.Lit(("iter", "item"), ((1, doc), (2, doc)))
        step = alg.StepJoin(ctx_lit, Axis.DESCENDANT, ANY_ELEMENT)
        keep = alg.Lit(("k",), ((1,),))
        semi = alg.SemiJoin(step, keep, (("iter", "k"),))
        out = optimize(semi, disabled={"fold"})
        # the ⋉ restricts whole iterations, so it sinks below the step
        steps = [op for op in alg.walk(out) if isinstance(op, alg.StepJoin)]
        assert steps and isinstance(steps[0].child, (alg.SemiJoin, alg.Lit))
        t1 = evaluate(semi, EvalContext(arena))
        t2 = evaluate(out, EvalContext(arena))
        assert sorted(map(tuple, zip(t1.num("iter"), t1.item("item").data))) == \
            sorted(map(tuple, zip(t2.num("iter"), t2.item("item").data)))

    def test_no_fork_below_shared_projection(self):
        """Regression: a filter passing through a *shared* π must not
        rebuild the expensive operators underneath it — the original
        still runs for the other consumer."""
        join = alg.Join(_num_lit("a", 4, ("v",)), _num_lit("b", 4), (("a", "b"),))
        proj = alg.Project(join, (("a", "a"), ("v", "v")))
        filtered = alg.Select(proj, "eq", col("v"), const(1))
        both = alg.Union(
            (alg.Project(filtered, (("a", "a"),)), alg.Project(proj, (("a", "a"),)))
        )
        out = optimize(both, disabled={"fold"})
        assert sum(1 for op in alg.walk(out) if isinstance(op, alg.Join)) == 1
        same_result(both)

    def test_sunk_subtree_inherits_parent_count(self):
        """Regression: a *shared* σ that sinks must register its rewritten
        subtree as shared, or a later filter forks the join below it."""
        join = alg.Join(_num_lit("a", 4, ("v", "u")), _num_lit("b", 4), (("a", "b"),))
        proj = alg.Project(join, (("a", "a"), ("v", "v"), ("u", "u")))
        shared_sel = alg.Select(proj, "eq", col("v"), const(1))
        upper = alg.Select(shared_sel, "eq", col("u"), const(1))
        both = alg.Union(
            (
                alg.Project(upper, (("a", "a"),)),
                alg.Project(shared_sel, (("a", "a"),)),
            )
        )
        out = optimize(both, disabled={"fold"})
        assert sum(1 for op in alg.walk(out) if isinstance(op, alg.Join)) == 1
        same_result(both)

    def test_map_sinks_through_cross_onto_literal(self):
        big = _num_lit("a", 6)
        one = alg.Lit(("b",), ((7,),))
        m = alg.Map(alg.Cross(big, one), "ge", "t", (col("b"), const(5)))
        s = alg.Select(m, "eq", col("t"), const(True))
        out = optimize(alg.Project(s, (("a", "a"),)))
        # ⊛ and σ both collapse into the literal: only the Cross remains
        assert all(
            not isinstance(op, (alg.Map, alg.Select)) for op in alg.walk(out)
        )
        same_result(s)


class TestJoinRecognition:
    def test_select_over_cross_becomes_join(self):
        left = _num_lit("a", 4, ("v",))
        right = _num_lit("b", 4)
        s = alg.Select(alg.Cross(left, right), "eq", col("a"), col("b"))
        out = optimize(s, disabled={"fold"})
        joins = [op for op in alg.walk(out) if isinstance(op, alg.Join)]
        assert joins and joins[0].keys == (("a", "b"),)
        assert all(not isinstance(op, alg.Cross) for op in alg.walk(out))
        same_result(s)

    def test_extra_key_added_to_existing_join(self):
        left = _num_lit("a", 4, ("v",))
        right = _num_lit("b", 4, ("w",))
        j = alg.Join(left, right, (("a", "b"),))
        s = alg.Select(j, "eq", col("v"), col("w"))
        out = optimize(s, disabled={"fold"})
        joins = [op for op in alg.walk(out) if isinstance(op, alg.Join)]
        assert joins and set(joins[0].keys) == {("a", "b"), ("v", "w")}
        same_result(s)

    def test_item_columns_not_recognized(self):
        """General comparison ≠ surrogate equality for polymorphic items."""
        left = alg.Lit(("a",), ((1,), (2,)), frozenset({"a"}))
        right = alg.Lit(("b",), ((1,), (True,)), frozenset({"b"}))
        s = alg.Select(alg.Cross(left, right), "eq", col("a"), col("b"))
        out = optimize(s, disabled={"fold"})
        assert all(not isinstance(op, alg.Join) for op in alg.walk(out))
        same_result(s)


class TestDistinctElim:
    def test_distinct_over_stepjoin_removed(self, small_arena):
        arena, doc = small_arena
        ctx_lit = alg.Lit(("iter", "item"), ((1, doc),))
        step = alg.StepJoin(ctx_lit, Axis.DESCENDANT, ANY_ELEMENT)
        d = alg.Distinct(step, ("iter", "item"))
        out = optimize(d)
        assert all(not isinstance(op, alg.Distinct) for op in alg.walk(out))
        t1 = evaluate(d, EvalContext(arena))
        t2 = evaluate(out, EvalContext(arena))
        assert list(t1.item("item").data) == list(t2.item("item").data)

    def test_partial_key_distinct_kept(self, small_arena):
        arena, doc = small_arena
        ctx_lit = alg.Lit(("iter", "item"), ((1, doc),))
        step = alg.StepJoin(ctx_lit, Axis.DESCENDANT, ANY_ELEMENT)
        d = alg.Distinct(alg.Project(step, (("iter", "iter"),)), ("iter",))
        out = optimize(d)
        assert any(isinstance(op, alg.Distinct) for op in alg.walk(out))

    def test_distinct_over_distinct_removed(self):
        inner = alg.Distinct(LIT, ("iter", "pos"))
        outer = alg.Distinct(inner, ("iter", "pos"))
        out = optimize(outer)
        assert sum(1 for op in alg.walk(out) if isinstance(op, alg.Distinct)) == 1
        same_result(outer)

    def test_genrange_over_duplicate_iters_keeps_distinct(self):
        """Regression: GenRange output is only unique per iteration when
        the input loop relation is — δ above it must survive otherwise."""
        dup = alg.Lit(("iter", "lo", "hi"), ((1, 1, 3), (1, 1, 3)))
        d = alg.Distinct(alg.GenRange(dup, "lo", "hi"), ("iter", "item"))
        out = optimize(d, disabled={"fold"})
        assert any(isinstance(op, alg.Distinct) for op in alg.walk(out))
        same_result(d)

    def test_genrange_over_unique_iters_drops_distinct(self):
        uniq = alg.Distinct(
            alg.Lit(("iter", "lo", "hi"), ((1, 1, 3), (2, 1, 2))), ("iter",)
        )
        d = alg.Distinct(alg.GenRange(uniq, "lo", "hi"), ("iter", "item"))
        out = optimize(d, disabled={"fold"})
        assert (
            sum(1 for op in alg.walk(out) if isinstance(op, alg.Distinct)) == 1
        )
        same_result(d)

    def test_map_overwrite_invalidates_uniqueness(self):
        """Regression: ⊛ overwriting a column of a uniqueness set must not
        let distinct_elim drop a still-needed δ."""
        base = alg.Lit(("a", "t"), ((1, 10), (1, 20)))  # unique on {a, t}
        m = alg.Map(base, "eq", "t", (col("a"), const(1)))  # t := const
        d = alg.Distinct(m, ("a", "t"))
        out = optimize(d, disabled={"fold"})
        assert any(isinstance(op, alg.Distinct) for op in alg.walk(out))
        same_result(d)


class TestJoinOrder:
    def test_larger_right_input_swapped(self):
        small = _num_lit("a", 2)
        big = _num_lit("b", 64, ("w",))
        j = alg.Join(small, big, (("a", "b"),))
        out = optimize(j, disabled={"fold"})
        joins = [op for op in alg.walk(out) if isinstance(op, alg.Join)]
        assert joins and joins[0].keys == (("b", "a"),)
        assert out.columns == ("a", "b", "w")
        same_result(j)

    def test_balanced_join_untouched(self):
        l, r = _num_lit("a", 8), _num_lit("b", 8)
        j = alg.Join(l, r, (("a", "b"),))
        out = optimize(j, disabled={"fold"})
        joins = [op for op in alg.walk(out) if isinstance(op, alg.Join)]
        assert joins and joins[0].keys == (("a", "b"),)

    def test_no_swap_below_order_sensitive_distinct(self):
        """Regression: δ without order_col keeps the first *physical* row
        per key, so a join feeding it must not be reordered."""
        left = alg.Lit(("a", "u"), ((2, 7), (1, 7)))
        right = alg.Lit(
            ("b", "w"), tuple((i % 2 + 1, 100 + i % 2) for i in range(16))
        )
        j = alg.Join(left, right, (("a", "b"),))
        d = alg.Distinct(j, ("u",))
        out = optimize(d, disabled={"fold"})
        r1 = evaluate(d, EvalContext(NodeArena()))
        r2 = evaluate(out, EvalContext(NodeArena()))
        rows1 = sorted(zip(r1.num("a"), r1.num("w")))
        rows2 = sorted(zip(r2.num("a"), r2.num("w")))
        assert rows1 == rows2


class TestEstimator:
    def test_leaf_estimates(self):
        est = CardinalityEstimator()
        assert est.estimate(_num_lit("a", 7)) == 7.0
        assert est.estimate(alg.DocRoot("d.xml")) == 1.0
        cross = alg.Cross(_num_lit("a", 3), _num_lit("b", 4))
        assert est.estimate(cross) == 12.0

    def test_from_database_seeds_doc_rows(self, small_arena):
        arena, doc = small_arena
        est = CardinalityEstimator.from_database(arena, {"doc.xml": doc})
        assert est.doc_rows["doc.xml"] == float(arena.size[doc]) + 1.0
        assert est.child_fanout >= 2.0

    def test_doc_anchored_descendant_step_estimates_doc_size(self, small_arena):
        arena, doc = small_arena
        est = CardinalityEstimator.from_database(arena, {"doc.xml": doc})
        anchored = alg.StepJoin(
            alg.Project(alg.DocRoot("doc.xml"), (("iter", "iter"), ("item", "item"))),
            Axis.DESCENDANT,
            ANY_ELEMENT,
        )
        assert est.estimate(anchored) >= est.doc_rows["doc.xml"]
        floating = alg.StepJoin(
            alg.Lit(("iter", "item"), ((1, doc),)), Axis.DESCENDANT, ANY_ELEMENT
        )
        assert est.estimate(floating) == est.descendant_fanout


class TestPassFramework:
    def test_unknown_disabled_pass_rejected(self):
        with pytest.raises(AlgebraError, match="unknown optimizer pass"):
            optimize(LIT, disabled={"nonsense"})

    def test_pass_stats_reported(self):
        plan = alg.Select(
            alg.Project(LIT, (("iter", "iter"), ("pos", "pos"))),
            "eq", col("pos"), const(1),
        )
        stats = OptimizerStats()
        optimize(plan, stats)
        assert [p.name for p in stats.pass_stats] == list(PASS_NAMES)
        table = stats.pass_table()
        for name in PASS_NAMES:
            assert name in table
        assert stats.estimated_rows is not None

    def test_disabled_pass_not_run(self):
        plan = alg.Select(LIT, "eq", col("pos"), const(1))
        stats = OptimizerStats()
        optimize(plan, stats, disabled={"pushdown"})
        assert "pushdown" not in {p.name for p in stats.pass_stats}

    def test_pass_timings_recorded(self):
        stats = OptimizerStats()
        optimize(alg.Select(LIT, "eq", col("pos"), const(1)), stats)
        assert all(p.seconds >= 0.0 for p in stats.pass_stats)
        assert any(p.runs > 0 for p in stats.pass_stats)

    def test_trace_receives_snapshots(self):
        plan = LIT
        for _ in range(3):
            plan = alg.Project(plan, (("iter", "iter"), ("pos", "pos"), ("item", "item")))
        trace: list = []
        out = optimize(plan, trace=trace)
        # a global pass is labelled by its name, a normalizer traversal by
        # the local rules that fired in it, joined by "+"
        assert trace and all(
            set(label.split("+")) <= set(PASS_NAMES) for label, _ in trace
        )
        assert trace[0][0] == "cse+fold"  # π over the literal folds into LIT
        assert trace[-1][1] is out


class TestStats:
    def test_stats_reduction(self):
        plan = LIT
        for i in range(5):
            plan = alg.Project(plan, (("iter", "iter"), ("pos", "pos"), ("item", "item")))
        stats = OptimizerStats()
        optimize(plan, stats)
        assert stats.ops_before == 6
        assert stats.ops_after == 1
        assert stats.reduction_pct > 80

    def test_loop_lifted_plan_shrinks(self):
        """The paper's point: mechanical loop-lifted plans shrink a lot."""
        from repro.compiler.loop_lifting import Compiler
        from repro.xquery.core import desugar_module
        from repro.xquery.parser import parse_query

        m = desugar_module(
            parse_query("for $v in (10,20) where $v > 10 return $v + 100")
        )
        plan = Compiler({}, None).compile_module(m)
        stats = OptimizerStats()
        optimize(plan, stats)
        assert stats.ops_after < stats.ops_before


#: compiles every XMark query and prints one digest of the optimized
#: plans' structure (run in a subprocess per hash seed)
_DIGEST_CHILD = """
import hashlib
from repro.api.database import Database
from repro.relational import algebra as alg
from repro.xmark import XMARK_QUERIES, generate_document

db = Database()
db.load_document("auction.xml", generate_document(0.0005, seed=42))
digest = hashlib.sha256()
for name in sorted(XMARK_QUERIES):
    plan = db.compile_query(XMARK_QUERIES[name], use_optimizer=True).plan
    ids = {}
    for node in alg.walk(plan):
        ids[node] = len(ids)
        key = node.struct_key(tuple(ids[c] for c in node.children))
        digest.update(repr(key).encode())
print(digest.hexdigest())
"""


@pytest.fixture(scope="module")
def xmark_plans():
    """(estimator, {query name: loop-lifted plan}) over a small XMark
    instance."""
    from repro.api.database import Database
    from repro.xmark import XMARK_QUERIES, generate_document

    db = Database()
    db.load_document("auction.xml", generate_document(0.0005, seed=42))
    estimator = CardinalityEstimator.from_database(db.arena, db.documents)
    plans = {
        name: db.compile_query(query, use_optimizer=False).plan
        for name, query in sorted(XMARK_QUERIES.items())
    }
    return estimator, plans


class TestDriver:
    """The driver: one normalizer for the local rules, rounds of the
    global passes only while they change something, and plans that do
    not depend on the interpreter's hash seed."""

    def test_plans_do_not_depend_on_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _DIGEST_CHILD],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE,
                text=True,
            )
            for seed in ("0", "1", "2")
        ]
        digests = set()
        for child in children:
            out, _ = child.communicate(timeout=300)
            assert child.returncode == 0
            digests.add(out.strip())
        assert len(digests) == 1

    def test_xmark_plans_are_a_fixpoint(self, xmark_plans):
        estimator, plans = xmark_plans
        for name, plan in plans.items():
            once = optimize(plan, estimator=estimator)
            stats = OptimizerStats()
            twice = optimize(once, stats, estimator=estimator)
            assert twice is once, name
            assert sum(p.rewrites for p in stats.pass_stats) == 0, name

    def test_xmark_converges_in_three_rounds(self, xmark_plans):
        estimator, plans = xmark_plans
        for name, plan in plans.items():
            stats = OptimizerStats()
            optimize(plan, stats, estimator=estimator)
            assert stats.passes <= 3, name

    @pytest.mark.parametrize(
        "rule",
        ["cse", "fold", "fuse_select", "join_recognition", "distinct_elim",
         "merge_projects"],
    )
    def test_disabled_local_rule_never_fires(self, xmark_plans, rule):
        estimator, plans = xmark_plans
        for plan in plans.values():
            trace: list = []
            stats = OptimizerStats()
            optimize(plan, stats, disabled={rule}, estimator=estimator, trace=trace)
            assert rule not in {p.name for p in stats.pass_stats}
            assert all(rule not in label.split("+") for label, _ in trace)

    def test_disabled_merge_projects_keeps_project_chain(self):
        inner = alg.Project(alg.DocRoot("d.xml"), (("iter", "iter"), ("item", "item")))
        outer = alg.Project(inner, (("i", "iter"), ("item", "item")))
        kept = optimize(outer, disabled={"merge_projects"})
        assert isinstance(kept, alg.Project) and isinstance(kept.child, alg.Project)
        merged = optimize(outer)
        assert isinstance(merged, alg.Project)
        assert isinstance(merged.child, alg.DocRoot)

    def test_disabled_cse_keeps_identical_subplans_apart(self):
        m1 = alg.Map(LIT, "add", "r", (col("item"), const(1)))
        m2 = alg.Map(LIT, "add", "r", (col("item"), const(1)))
        out = optimize(alg.Union((m1, m2)), disabled={"cse"})
        union = next(op for op in alg.walk(out) if isinstance(op, alg.Union))
        assert union.inputs[0] is not union.inputs[1]

    def test_unchanged_plan_is_returned_as_is(self):
        """Every pass keeps unchanged subtrees as the very same objects,
        so a plan nothing applies to comes back untouched."""
        plan = alg.StepJoin(
            alg.Project(alg.DocRoot("d.xml"), (("iter", "iter"), ("item", "item"))),
            Axis.CHILD, ANY_ELEMENT,
        )
        stats = OptimizerStats()
        assert optimize(plan, stats) is plan
        assert stats.passes == 1
        assert sum(p.rewrites for p in stats.pass_stats) == 0
