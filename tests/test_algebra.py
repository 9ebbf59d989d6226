"""Unit tests for the algebra operators and the DAG evaluator."""

import pytest

from repro.encoding.arena import NodeArena
from repro.encoding.axes import Axis, element
from repro.encoding.shred import shred_text
from repro.errors import AlgebraError, DynamicError
from repro.relational import algebra as alg
from repro.relational.algebra import col, const
from repro.relational.evaluate import EvalContext, evaluate


def ctx():
    return EvalContext(NodeArena())


def rows(plan, context=None):
    context = context or ctx()
    table = evaluate(plan, context)
    return table.schema, table.to_rows(context.pool)


LIT = alg.Lit(
    ("iter", "pos", "item"),
    ((1, 1, 10), (1, 2, 20), (2, 1, 30)),
    frozenset({"item"}),
)


class TestBasicOperators:
    def test_lit(self):
        schema, data = rows(LIT)
        assert schema == ("iter", "pos", "item")
        assert data == [(1, 1, 10), (1, 2, 20), (2, 1, 30)]

    def test_project_rename_and_duplicate(self):
        p = alg.Project(LIT, (("a", "item"), ("b", "item"), ("iter", "iter")))
        schema, data = rows(p)
        assert schema == ("a", "b", "iter")
        assert data[0] == (10, 10, 1)

    def test_project_unknown_column_raises(self):
        with pytest.raises(AlgebraError):
            rows(alg.Project(LIT, (("x", "nope"),)))

    def test_select_numeric(self):
        s = alg.Select(LIT, "eq", col("iter"), const(1))
        assert rows(s)[1] == [(1, 1, 10), (1, 2, 20)]

    def test_select_item_vs_const(self):
        s = alg.Select(LIT, "gt", col("item"), const(15))
        assert rows(s)[1] == [(1, 2, 20), (2, 1, 30)]

    def test_select_col_vs_col(self):
        s = alg.Select(LIT, "eq", col("iter"), col("pos"))
        assert rows(s)[1] == [(1, 1, 10)]

    def test_union_disjoint(self):
        u = alg.Union((LIT, LIT))
        assert len(rows(u)[1]) == 6

    def test_union_schema_mismatch_raises(self):
        other = alg.Lit(("x",), ((1,),))
        with pytest.raises(AlgebraError):
            rows(alg.Union((LIT, other)))

    def test_difference(self):
        left = alg.Lit(("iter",), ((1,), (2,), (3,)))
        right = alg.Lit(("iter",), ((2,),))
        d = alg.Difference(left, right, ("iter",))
        assert rows(d)[1] == [(1,), (3,)]

    def test_distinct_keeps_first(self):
        t = alg.Lit(("a", "b"), ((1, 7), (1, 8), (2, 9)))
        d = alg.Distinct(t, ("a",))
        assert rows(d)[1] == [(1, 7), (2, 9)]

    def test_cross(self):
        a = alg.Lit(("x",), ((1,), (2,)))
        b = alg.Lit(("y",), ((7,), (8,)))
        assert rows(alg.Cross(a, b))[1] == [(1, 7), (1, 8), (2, 7), (2, 8)]

    def test_cross_schema_collision_raises(self):
        with pytest.raises(AlgebraError):
            rows(alg.Cross(LIT, LIT))


class TestJoins:
    def test_equi_join(self):
        a = alg.Lit(("x", "v"), ((1, 10), (2, 20)))
        b = alg.Lit(("y", "w"), ((2, 7), (2, 8), (3, 9)))
        j = alg.Join(a, b, (("x", "y"),))
        assert rows(j)[1] == [(2, 20, 2, 7), (2, 20, 2, 8)]

    def test_join_on_item_columns(self):
        a = alg.Lit(("x", "v"), ((1, "k"), (2, "m")), frozenset({"v"}))
        b = alg.Lit(("y", "w"), ((7, "m"),), frozenset({"w"}))
        j = alg.Join(a, b, (("v", "w"),))
        assert rows(j)[1] == [(2, "m", 7, "m")]

    def test_multi_key_join(self):
        a = alg.Lit(("x", "v"), ((1, 5), (1, 6)))
        b = alg.Lit(("y", "w"), ((1, 5), (1, 6)))
        j = alg.Join(a, b, (("x", "y"), ("v", "w")))
        assert len(rows(j)[1]) == 2

    def test_semijoin(self):
        a = alg.Lit(("x",), ((1,), (2,), (3,)))
        b = alg.Lit(("y",), ((2,), (2,)))
        assert rows(alg.SemiJoin(a, b, (("x", "y"),)))[1] == [(2,)]


class TestRowNumAndMap:
    def test_rownum_global(self):
        r = alg.RowNum(LIT, "n", (("iter", False), ("pos", False)), None)
        assert [row[-1] for row in rows(r)[1]] == [1, 2, 3]

    def test_rownum_grouped(self):
        r = alg.RowNum(LIT, "n", (("pos", False),), "iter")
        assert [row[-1] for row in rows(r)[1]] == [1, 2, 1]

    def test_rownum_descending(self):
        r = alg.RowNum(LIT, "n", (("item", True),), None)
        assert [row[-1] for row in rows(r)[1]] == [3, 2, 1]

    def test_rownum_orders_item_strings(self):
        t = alg.Lit(("iter", "item"), ((1, "b"), (2, "a")), frozenset({"item"}))
        r = alg.RowNum(t, "n", (("item", False),), None)
        assert [row[-1] for row in rows(r)[1]] == [2, 1]

    def test_map_arith(self):
        m = alg.Map(LIT, "add", "r", (col("item"), const(5)))
        assert [row[-1] for row in rows(m)[1]] == [15, 25, 35]

    def test_map_comparison(self):
        m = alg.Map(LIT, "ge", "r", (col("item"), const(20)))
        assert [row[-1] for row in rows(m)[1]] == [False, True, True]

    def test_map_string_functions(self):
        t = alg.Lit(("item",), (("hello",), ("hi",)), frozenset({"item"}))
        m = alg.Map(t, "contains", "r", (col("item"), const("ell")))
        assert [row[-1] for row in rows(m)[1]] == [True, False]

    def test_map_unknown_fn_raises(self):
        with pytest.raises(AlgebraError):
            rows(alg.Map(LIT, "frobnicate", "r", (col("item"),)))


class TestAggregates:
    def test_count_grouped(self):
        a = alg.Aggr(LIT, "count", "n", None, "iter")
        assert rows(a)[1] == [(1, 2), (2, 1)]

    def test_count_global_empty_input(self):
        empty = alg.Lit(("iter", "item"), (), frozenset({"item"}))
        a = alg.Aggr(empty, "count", "n", None, None)
        assert rows(a)[1] == [(0,)]

    def test_sum_int_stays_int(self):
        a = alg.Aggr(LIT, "sum", "s", "item", "iter")
        assert rows(a)[1] == [(1, 30), (2, 30)]

    def test_each_group_is_typed_on_its_own(self):
        """A double in one group must not turn another group's integer
        sum into a double (selecting a group before or after aggregating
        — what pushdown does — must agree)."""
        t = alg.Lit(("iter", "item"), ((1, 0.5), (2, 1), (2, 2)), frozenset({"item"}))
        for kind, want in (("sum", 3), ("min", 1), ("max", 2)):
            context = ctx()
            out = evaluate(alg.Aggr(t, kind, "s", "item", "iter"), context)
            assert out.item("s").to_values(context.pool)[1] == want
            assert type(out.item("s").to_values(context.pool)[1]) is int, kind

    def test_min_max_avg(self):
        assert rows(alg.Aggr(LIT, "min", "m", "item", "iter"))[1] == [(1, 10), (2, 30)]
        assert rows(alg.Aggr(LIT, "max", "m", "item", "iter"))[1] == [(1, 20), (2, 30)]
        assert rows(alg.Aggr(LIT, "avg", "m", "item", "iter"))[1] == [(1, 15.0), (2, 30.0)]

    def test_str_join(self):
        t = alg.Lit(("iter", "s"), ((1, "a"), (1, "b"), (2, "c")), frozenset({"s"}))
        a = alg.Aggr(t, "str_join", "j", "s", "iter", sep="-")
        assert rows(a)[1] == [(1, "a-b"), (2, "c")]


class TestTreeOperators:
    def _doc_ctx(self):
        context = ctx()
        doc = shred_text(context.arena, "<r><a>x</a><a>y</a></r>")
        context.documents["d"] = doc
        return context, doc

    def test_step_join(self):
        context, doc = self._doc_ctx()
        lit = alg.Lit(("iter", "item"), ((1, doc),), frozenset({"item"}))
        # force item column to be node-kinded via DocRoot instead
        plan = alg.StepJoin(
            alg.Project(alg.DocRoot("d"), (("iter", "iter"), ("item", "item"))),
            Axis.DESCENDANT,
            element("a"),
        )
        table = evaluate(plan, context)
        assert table.num_rows == 2

    def test_step_join_rejects_atomics(self):
        context, _ = self._doc_ctx()
        lit = alg.Lit(("iter", "item"), ((1, 5),), frozenset({"item"}))
        with pytest.raises(DynamicError):
            evaluate(alg.StepJoin(lit, Axis.CHILD, element()), context)

    def test_atomize(self):
        context, doc = self._doc_ctx()
        plan = alg.Atomize(alg.DocRoot("d"), "v", "item")
        table = evaluate(plan, context)
        vals = table.item("v").to_values(context.pool)
        assert vals == ["xy"]

    def test_genrange(self):
        t = alg.Lit(("iter", "lo", "hi"), ((1, 2, 4), (2, 5, 4)))
        g = alg.GenRange(t, "lo", "hi")
        assert rows(g)[1] == [(1, 1, 2), (1, 2, 3), (1, 3, 4)]

    def test_docroot_missing_raises(self):
        with pytest.raises(DynamicError):
            evaluate(alg.DocRoot("missing"), ctx())

    def test_elem_constr(self):
        context, doc = self._doc_ctx()
        names = alg.Lit(("iter", "item"), ((1, "out"),), frozenset({"item"}))
        content = alg.Lit(
            ("iter", "pos", "item"), ((1, 1, "hello"),), frozenset({"item"})
        )
        table = evaluate(alg.ElemConstr(names, content), context)
        from repro.xml.serializer import serialize_node

        node = int(table.item("item").data[0])
        assert serialize_node(context.arena, node) == "<out>hello</out>"

    def test_dag_shared_subplan_evaluated_once(self):
        context = ctx()
        trace = {}
        context.trace = trace
        shared = alg.Map(LIT, "add", "r", (col("item"), const(1)))
        u = alg.Union((alg.Project(shared, (("iter", "iter"),)),
                       alg.Project(shared, (("iter", "iter"),))))
        evaluate(u, context)
        # the shared Map appears exactly once in the trace
        labels = [id for id in trace]
        assert len(labels) == len(set(labels))


class TestDagUtilities:
    def test_walk_children_first(self):
        order = list(alg.walk(alg.Union((LIT, alg.Project(LIT, (("iter", "iter"),))))))
        assert isinstance(order[0], alg.Lit)
        assert isinstance(order[-1], alg.Union)

    def test_op_count_counts_shared_once(self):
        p = alg.Project(LIT, (("iter", "iter"),))
        u = alg.Union((p, p))
        assert alg.op_count(u) == 3


class TestRebuild:
    """``Op.with_children`` rebuilds any operator from its inputs and its
    ``_params()`` — which therefore must list every other field, in
    declaration order."""

    def test_every_operator_rebuilds_over_new_inputs(self):
        import dataclasses

        other = alg.Lit(("iter", "pos", "item"), ((9, 9, 9),), frozenset({"item"}))
        samples = [
            alg.Project(LIT, (("a", "item"),)),
            alg.Select(LIT, "eq", col("pos"), const(1)),
            alg.Union((LIT, LIT)),
            alg.Difference(LIT, LIT, ("iter",)),
            alg.Distinct(LIT, ("iter",), "pos"),
            alg.Join(LIT, LIT, (("iter", "iter"),)),
            alg.ThetaJoin(LIT, LIT, (("iter", "iter"),), "lt", "pos", "item"),
            alg.SemiJoin(LIT, LIT, (("iter", "iter"),)),
            alg.Cross(LIT, LIT),
            alg.RowNum(LIT, "n", (("pos", True),), "iter"),
            alg.Map(LIT, "add", "r", (col("item"), const(1))),
            alg.Aggr(LIT, "str_join", "s", "item", "iter", ",", "pos"),
            alg.StepJoin(LIT, Axis.CHILD, element("a"), "iter", "item"),
            alg.Atomize(LIT, "v", "item"),
            alg.ElemConstr(LIT, LIT),
            alg.TextConstr(LIT),
            alg.AttrConstr(LIT, LIT),
            alg.GenRange(LIT, "pos", "item"),
        ]
        covered = {type(op) for op in samples}
        assert covered == {
            cls for cls in vars(alg).values()
            if isinstance(cls, type) and issubclass(cls, alg.Op)
            and cls is not alg.Op and alg.Op.children is not cls.children
        }
        for op in samples:
            assert op.with_children(op.children) is op
            inputs = tuple(other for _ in op.children)
            new = op.with_children(inputs)
            assert type(new) is type(op) and new.children == inputs
            for f in dataclasses.fields(op):
                if f.name not in ("child", "left", "right", "inputs", "names",
                                  "content", "values"):
                    assert getattr(new, f.name) == getattr(op, f.name), f.name

    def test_leaves_are_never_rebuilt(self):
        for leaf in (LIT, alg.DocRoot("d.xml"), alg.ParamTable("x")):
            assert leaf.with_children(()) is leaf
