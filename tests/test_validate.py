"""Tests for the static plan validator — and validation of every compiled
XMark plan (optimized and unoptimized)."""

import pytest

from repro.errors import AlgebraError
from repro.relational import algebra as alg
from repro.relational.algebra import col, const
from repro.relational.validate import validate

LIT = alg.Lit(("iter", "pos", "item"), ((1, 1, 5),), frozenset({"item"}))


class TestValidRejections:
    def test_unknown_projection_column(self):
        with pytest.raises(AlgebraError):
            validate(alg.Project(LIT, (("x", "nope"),)))

    def test_duplicate_projection_output(self):
        with pytest.raises(AlgebraError):
            validate(alg.Project(LIT, (("x", "iter"), ("x", "pos"))))

    def test_union_schema_mismatch(self):
        other = alg.Lit(("a",), ((1,),))
        with pytest.raises(AlgebraError):
            validate(alg.Union((LIT, other)))

    def test_join_schema_collision(self):
        with pytest.raises(AlgebraError):
            validate(alg.Join(LIT, LIT, (("iter", "iter"),)))

    @pytest.mark.parametrize("op, lhs, rhs", [
        ("lt", "pos", "item"),   # both operands on the left
        ("lt", "pos", "ghost"),  # unknown operand
        ("like", "pos", "r"),    # unknown comparison
    ])
    def test_theta_join_operands(self, op, lhs, rhs):
        right = alg.Lit(("r",), ((1,),))
        assert validate(alg.ThetaJoin(LIT, right, (), "lt", "r", "pos")) == 3
        with pytest.raises(AlgebraError):
            validate(alg.ThetaJoin(LIT, right, (), op, lhs, rhs))

    def test_rownum_target_collision(self):
        with pytest.raises(AlgebraError):
            validate(alg.RowNum(LIT, "pos", (("iter", False),), None))

    def test_select_unknown_operand(self):
        with pytest.raises(AlgebraError):
            validate(alg.Select(LIT, "eq", col("ghost"), const(1)))

    def test_aggr_missing_arg(self):
        with pytest.raises(AlgebraError):
            validate(alg.Aggr(LIT, "sum", "s", None, "iter"))

    def test_lit_bad_row_arity(self):
        with pytest.raises(AlgebraError):
            validate(alg.Lit(("a", "b"), ((1,),)))

    def test_error_names_the_operator(self):
        with pytest.raises(AlgebraError) as exc:
            validate(alg.Project(LIT, (("x", "nope"),)))
        assert "π" in str(exc.value)


class TestValidAcceptance:
    def test_simple_plan_counts_ops(self):
        plan = alg.Select(
            alg.Map(LIT, "add", "r", (col("item"), const(1))),
            "eq", col("pos"), const(1),
        )
        assert validate(plan) == 3


class TestCompiledPlansValidate:
    @pytest.mark.parametrize("optimized", [False, True], ids=["raw", "optimized"])
    def test_all_xmark_plans_validate(self, xmark_session, optimized):
        from repro.compiler.loop_lifting import Compiler
        from repro.relational.optimizer import optimize
        from repro.xmark import XMARK_QUERIES
        from repro.xquery.core import desugar_module
        from repro.xquery.parser import parse_query

        for name, query in XMARK_QUERIES.items():
            module = desugar_module(parse_query(query))
            database = xmark_session.database
            compiler = Compiler(database.documents, database.default_document)
            plan = compiler.compile_module(module)
            if optimized:
                plan = optimize(plan)
            assert validate(plan) > 0, name

    def test_battery_plans_validate(self, session):
        from tests.test_differential import BATTERY

        for query in BATTERY:
            plan = session.database.compile_query(query, use_optimizer=True).plan
            assert validate(plan) > 0, query
