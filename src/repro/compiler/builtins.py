"""Compilation rules for the built-in function library (Table 2).

Each rule takes the compiler, the call node, the loop relation and the
environment, and emits an (iter, pos, item) plan.  Aggregates group by
``iter`` and explicitly fill in the defaults the XQuery functions demand
for empty sequences (``count`` → 0, ``sum`` → 0, ``string`` → "").
"""

from __future__ import annotations

from repro.errors import NotSupportedError, StaticError
from repro.relational import algebra as alg
from repro.relational.algebra import col, const
from repro.xquery import ast
from repro.compiler.loop_lifting import CTX_LAST, CTX_POSITION


def compile_builtin(comp, e: ast.FunctionCall, loop, env) -> alg.Op:
    """Dispatch a built-in call; raises for unknown functions."""
    check_builtin(e.name, len(e.args))
    handler = _BUILTINS.get((e.name, len(e.args))) or _BUILTINS[(e.name, -1)]
    return handler(comp, e.args, loop, env)


def check_builtin(name: str, arity: int) -> None:
    """``err:XPST0017`` unless ``name``/``arity`` is in the built-in
    library — the one signature table both evaluators check a call
    against before they look at its arguments."""
    if (name, arity) not in _BUILTINS and (name, -1) not in _BUILTINS:
        raise StaticError(f"unknown function {name}/{arity}", code="err:XPST0017")


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------
def _fill_items(comp, present, q, loop, default_value):
    """(iter, item) plan → one row per loop iteration, filling absent
    iterations with a constant item."""
    missing = comp._missing(q, loop)
    lit = alg.Lit(("item",), ((default_value,),), frozenset({"item"}))
    filled = alg.Union(
        (
            present,
            alg.Project(
                alg.Cross(missing, lit), (("iter", "iter"), ("item", "item"))
            ),
        )
    )
    return comp._with_pos1(filled)


def _unary_string(comp, arg_plan, loop, fn):
    """First item → string cast → per-iter string with "" default."""
    f = comp._first(comp._atomize(arg_plan))
    m = alg.Map(f, fn, "s", (col("item"),))
    present = alg.Project(m, (("iter", "iter"), ("item", "s")))
    return _fill_items(comp, present, arg_plan, loop, "")


# --------------------------------------------------------------------------
# documents and nodes
# --------------------------------------------------------------------------
def _fn_doc(comp, args, loop, env):
    uri_expr = args[0]
    if not isinstance(uri_expr, ast.Literal) or not isinstance(uri_expr.value, str):
        raise NotSupportedError("fn:doc requires a string literal argument")
    return comp._doc_plan(uri_expr.value, loop)


def _fn_root(comp, args, loop, env):
    q = comp._first(comp.compile(args[0], loop, env))
    m = alg.Map(q, "root_of", "r", (col("item"),))
    return comp._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "r"))))


def _fn_name(comp, args, loop, env):
    q = comp.compile(args[0], loop, env) if args else comp._c_ContextItem(None, loop, env)
    f = comp._first(q)
    m = alg.Map(f, "node_name", "s", (col("item"),))
    present = alg.Project(m, (("iter", "iter"), ("item", "s")))
    return _fill_items(comp, present, q, loop, "")


def _fn_ddo(comp, args, loop, env):
    q = comp.compile(args[0], loop, env)
    d = alg.Distinct(
        alg.Project(q, (("iter", "iter"), ("item", "item"))), ("iter", "item")
    )
    return comp._q3(alg.RowNum(d, "pos", (("item", False),), "iter"))


# --------------------------------------------------------------------------
# atomization / strings
# --------------------------------------------------------------------------
def _fn_data(comp, args, loop, env):
    return comp._atomize(comp.compile(args[0], loop, env))


def _fn_string(comp, args, loop, env):
    arg = comp.compile(args[0], loop, env) if args else comp._c_ContextItem(None, loop, env)
    return _unary_string(comp, arg, loop, "cast_str")


def _fn_number(comp, args, loop, env):
    arg = comp.compile(args[0], loop, env) if args else comp._c_ContextItem(None, loop, env)
    f = comp._first(comp._atomize(arg))
    m = alg.Map(f, "cast_dbl", "d", (col("item"),))
    present = alg.Project(m, (("iter", "iter"), ("item", "d")))
    return _fill_items(comp, present, arg, loop, float("nan"))


def _fn_concat(comp, args, loop, env):
    if len(args) < 2:
        raise StaticError("fn:concat needs at least two arguments")
    out = _unary_string(comp, comp.compile(args[0], loop, env), loop, "cast_str")
    for a in args[1:]:
        nxt = _unary_string(comp, comp.compile(a, loop, env), loop, "cast_str")
        i2 = comp.fresh("i")
        l = alg.Project(out, (("iter", "iter"), ("v1", "item")))
        r = alg.Project(nxt, ((i2, "iter"), ("v2", "item")))
        j = alg.Join(l, r, (("iter", i2),))
        m = alg.Map(j, "concat", "s", (col("v1"), col("v2")))
        out = comp._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "s"))))
    return out


def _fn_contains(comp, args, loop, env):
    return _string_pair(comp, args, loop, env, "contains")


def _fn_starts_with(comp, args, loop, env):
    return _string_pair(comp, args, loop, env, "starts_with")


def _string_pair(comp, args, loop, env, fn):
    s1 = _unary_string(comp, comp.compile(args[0], loop, env), loop, "cast_str")
    s2 = _unary_string(comp, comp.compile(args[1], loop, env), loop, "cast_str")
    i2 = comp.fresh("i")
    l = alg.Project(s1, (("iter", "iter"), ("v1", "item")))
    r = alg.Project(s2, ((i2, "iter"), ("v2", "item")))
    j = alg.Join(l, r, (("iter", i2),))
    m = alg.Map(j, fn, "b", (col("v1"), col("v2")))
    return comp._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "b"))))


def _unary_string_fn(fn):
    """string → string function of one argument (empty → "")."""

    def handler(comp, args, loop, env):
        s = _unary_string(comp, comp.compile(args[0], loop, env), loop, "cast_str")
        m = alg.Map(s, fn, "r", (col("item"),))
        return comp._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "r"))))

    return handler


def _unary_numeric_fn(fn):
    """number → number function of one argument (empty → empty)."""

    def handler(comp, args, loop, env):
        q = comp._first(comp._atomize(comp.compile(args[0], loop, env)))
        m = alg.Map(q, fn, "r", (col("item"),))
        return comp._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "r"))))

    return handler


def _fn_substring(comp, args, loop, env):
    s = _unary_string(comp, comp.compile(args[0], loop, env), loop, "cast_str")
    start = comp._first(comp._atomize(comp.compile(args[1], loop, env)))
    i2, i3 = comp.fresh("i"), comp.fresh("i")
    l = alg.Project(s, (("iter", "iter"), ("v1", "item")))
    r = alg.Project(start, ((i2, "iter"), ("v2", "item")))
    j = alg.Join(l, r, (("iter", i2),))
    if len(args) == 3:
        length = comp._first(comp._atomize(comp.compile(args[2], loop, env)))
        l3 = alg.Project(length, ((i3, "iter"), ("v3", "item")))
        j = alg.Join(j, l3, (("iter", i3),))
        m = alg.Map(j, "substring3", "r", (col("v1"), col("v2"), col("v3")))
    else:
        m = alg.Map(j, "substring2", "r", (col("v1"), col("v2")))
    return comp._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "r"))))


def _fn_string_length(comp, args, loop, env):
    arg = comp.compile(args[0], loop, env) if args else comp._c_ContextItem(None, loop, env)
    s = _unary_string(comp, arg, loop, "cast_str")
    m = alg.Map(s, "string_length", "n", (col("item"),))
    return comp._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "n"))))


def _fn_string_join(comp, args, loop, env):
    sep = " "
    if len(args) == 2:
        if not isinstance(args[1], ast.Literal) or not isinstance(args[1].value, str):
            raise NotSupportedError("fn:string-join needs a literal separator")
        sep = args[1].value
    q = comp._atomize(comp.compile(args[0], loop, env))
    return _joined(comp, q, loop, sep)


def _fn_item_join(comp, args, loop, env):
    """fs:item-join — constructor-content semantics: atomize everything,
    join the lexical forms with single spaces (used for AVTs)."""
    q = comp._atomize(comp.compile(args[0], loop, env))
    return _joined(comp, q, loop, " ")


def _joined(comp, q, loop, sep):
    strs = alg.Map(q, "cast_str", "s", (col("item"),))
    agg = alg.Aggr(
        alg.Project(strs, (("iter", "iter"), ("pos", "pos"), ("s", "s"))),
        "str_join", "item", "s", "iter", sep=sep, order_col="pos",
    )
    present = alg.Project(agg, (("iter", "iter"), ("item", "item")))
    return _fill_items(comp, present, q, loop, "")


# --------------------------------------------------------------------------
# aggregates / cardinality
# --------------------------------------------------------------------------
def _fn_count(comp, args, loop, env):
    q = comp.compile(args[0], loop, env)
    agg = alg.Aggr(q, "count", "n", None, "iter")
    m = alg.Map(agg, "cast_int", "c", (col("n"),))
    present = alg.Project(m, (("iter", "iter"), ("item", "c")))
    return _fill_items(comp, present, q, loop, 0)


def _aggregate(comp, args, loop, env, kind, fill=None):
    q = comp._atomize(comp.compile(args[0], loop, env))
    agg = alg.Aggr(q, kind, "v", "item", "iter")
    present = alg.Project(agg, (("iter", "iter"), ("item", "v")))
    if fill is None:
        return comp._with_pos1(present)
    return _fill_items(comp, present, q, loop, fill)


def _fn_sum(comp, args, loop, env):
    if len(args) == 1:
        return _aggregate(comp, args, loop, env, "sum", fill=0)
    # fn:sum($arg, $zero): an iteration whose $arg is empty yields its own
    # $zero, which may itself be empty
    q = comp._atomize(comp.compile(args[0], loop, env))
    agg = alg.Aggr(q, "sum", "v", "item", "iter")
    present = alg.Project(agg, (("iter", "iter"), ("item", "v")))
    zero = comp._first(comp._atomize(comp.compile(args[1], loop, env)))
    zeros = alg.SemiJoin(
        alg.Project(zero, (("iter", "iter"), ("item", "item"))),
        comp._missing(q, loop),
        (("iter", "iter"),),
    )
    return comp._with_pos1(alg.Union((present, zeros)))


def _fn_avg(comp, args, loop, env):
    return _aggregate(comp, args, loop, env, "avg")


def _fn_min(comp, args, loop, env):
    return _aggregate(comp, args, loop, env, "min")


def _fn_max(comp, args, loop, env):
    return _aggregate(comp, args, loop, env, "max")


def _fn_empty(comp, args, loop, env):
    q = comp.compile(args[0], loop, env)
    present = comp._iters_of(q)
    missing = alg.Difference(loop, present, ("iter",))
    return comp._bool_result(missing, loop)


def _fn_exists(comp, args, loop, env):
    q = comp.compile(args[0], loop, env)
    return comp._bool_result(comp._iters_of(q), loop)


def _fn_not(comp, args, loop, env):
    eb = comp._ebv(comp.compile(args[0], loop, env), loop)
    m = alg.Map(eb, "not", "b", (col("item"),))
    return comp._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "b"))))


def _fn_boolean(comp, args, loop, env):
    eb = comp._ebv(comp.compile(args[0], loop, env), loop)
    return comp._with_pos1(alg.Project(eb, (("iter", "iter"), ("item", "item"))))


def _fn_true(comp, args, loop, env):
    return comp._const_seq(loop, (True,))


def _fn_false(comp, args, loop, env):
    return comp._const_seq(loop, (False,))


def _fn_distinct_values(comp, args, loop, env):
    """Distinct by *value* equality: ``1`` and ``1.0`` are one value, so
    the distinct keys are the (class, canonical key) columns computed by
    the ``atom_cls``/``atom_key`` kernels, not the raw item encoding."""
    q = comp._atomize(comp.compile(args[0], loop, env))
    cls = alg.Map(q, "atom_cls", "dv_cls", (col("item"),))
    key = alg.Map(cls, "atom_key", "dv_key", (col("item"),))
    d = alg.Distinct(
        alg.Project(
            key,
            (
                ("iter", "iter"),
                ("pos", "pos"),
                ("item", "item"),
                ("dv_cls", "dv_cls"),
                ("dv_key", "dv_key"),
            ),
        ),
        ("iter", "dv_cls", "dv_key"),
        order_col="pos",
    )
    renum = alg.RowNum(d, "pos1", (("pos", False),), "iter")
    return alg.Project(renum, (("iter", "iter"), ("pos", "pos1"), ("item", "item")))


# --------------------------------------------------------------------------
# sequence functions
# --------------------------------------------------------------------------
def _fn_reverse(comp, args, loop, env):
    q = comp.compile(args[0], loop, env)
    renum = alg.RowNum(q, "pos1", (("pos", True),), "iter")
    return alg.Project(renum, (("iter", "iter"), ("pos", "pos1"), ("item", "item")))


def _positional_arg(comp, expr, loop, env, name):
    """A per-iteration rounded integer (for subsequence/remove positions)."""
    f = comp._first(comp._atomize(comp.compile(expr, loop, env)))
    rounded = alg.Map(f, "round", "r", (col("item"),))
    as_int = alg.Map(rounded, "cast_int", name, (col("r"),))
    i2 = comp.fresh("i")
    return alg.Project(as_int, ((i2, "iter"), (name, name))), i2


def _fn_subsequence(comp, args, loop, env):
    q = comp.compile(args[0], loop, env)
    start, si = _positional_arg(comp, args[1], loop, env, "sq_start")
    j = alg.Join(q, start, (("iter", si),))
    ge = alg.Map(j, "ge", "keep1", (col("pos"), col("sq_start")))
    kept = alg.Select(ge, "eq", col("keep1"), const(True))
    if len(args) == 3:
        length, li = _positional_arg(comp, args[2], loop, env, "sq_len")
        j2 = alg.Join(kept, length, (("iter", li),))
        # pos < start + length
        limit = alg.Map(j2, "add", "sq_lim", (col("sq_start"), col("sq_len")))
        lt = alg.Map(limit, "lt", "keep2", (col("pos"), col("sq_lim")))
        kept = alg.Select(lt, "eq", col("keep2"), const(True))
    renum = alg.RowNum(kept, "pos1", (("pos", False),), "iter")
    return alg.Project(renum, (("iter", "iter"), ("pos", "pos1"), ("item", "item")))


def _fn_index_of(comp, args, loop, env):
    q = comp._atomize(comp.compile(args[0], loop, env))
    needle = comp._first(comp._atomize(comp.compile(args[1], loop, env)))
    i2 = comp.fresh("i")
    n = alg.Project(needle, ((i2, "iter"), ("needle", "item")))
    j = alg.Join(q, n, (("iter", i2),))
    eq = alg.Map(j, "eq", "m", (col("item"), col("needle")))
    hits = alg.Select(eq, "eq", col("m"), const(True))
    as_item = alg.Map(hits, "cast_int", "item1", (col("pos"),))
    renum = alg.RowNum(as_item, "pos1", (("pos", False),), "iter")
    return alg.Project(
        renum, (("iter", "iter"), ("pos", "pos1"), ("item", "item1"))
    )


def _fn_insert_before(comp, args, loop, env):
    q = comp.compile(args[0], loop, env)
    pos_arg, pi = _positional_arg(comp, args[1], loop, env, "ins_at")
    ins = comp.compile(args[2], loop, env)
    j = alg.Join(q, pos_arg, (("iter", pi),))
    # original items sort before the insertion iff pos < max(ins_at, 1)
    before = alg.Map(j, "lt", "is_before", (col("pos"), col("ins_at")))
    orig_ord = alg.Map(
        before, "not", "after_flag", (col("is_before"),)
    )  # False(0) before, True(1) after — encode ord as 0 / 2
    with_ord = alg.Map(
        orig_ord, "add", "ord", (col("after_flag"), col("after_flag"))
    )
    orig = alg.Project(
        with_ord, (("iter", "iter"), ("ord", "ord"), ("pos", "pos"), ("item", "item"))
    )
    ins_tagged = alg.Cross(ins, alg.Lit(("ordn",), ((1,),)))
    ins_part = alg.Project(
        ins_tagged,
        (("iter", "iter"), ("ord", "ordn"), ("pos", "pos"), ("item", "item")),
    )
    u = alg.Union((orig, ins_part))
    renum = alg.RowNum(u, "pos1", (("ord", False), ("pos", False)), "iter")
    return alg.Project(renum, (("iter", "iter"), ("pos", "pos1"), ("item", "item")))


def _fn_remove(comp, args, loop, env):
    q = comp.compile(args[0], loop, env)
    pos_arg, pi = _positional_arg(comp, args[1], loop, env, "rm_at")
    j = alg.Join(q, pos_arg, (("iter", pi),))
    ne = alg.Map(j, "ne", "keep", (col("pos"), col("rm_at")))
    kept = alg.Select(ne, "eq", col("keep"), const(True))
    renum = alg.RowNum(kept, "pos1", (("pos", False),), "iter")
    return alg.Project(renum, (("iter", "iter"), ("pos", "pos1"), ("item", "item")))


def _fn_deep_equal(comp, args, loop, env):
    """Pairwise deep equality of two sequences per iteration."""
    q1 = comp.compile(args[0], loop, env)
    q2 = comp.compile(args[1], loop, env)
    c1 = alg.Aggr(q1, "count", "n1", None, "iter")
    c2 = alg.Aggr(q2, "count", "n2", None, "iter")
    i2, i3 = comp.fresh("i"), comp.fresh("i")
    # pair items positionally and test deep equality per pair
    a = alg.Project(q1, (("iter", "iter"), ("pos", "pos"), ("v1", "item")))
    b = alg.Project(q2, ((i2, "iter"), (i3, "pos"), ("v2", "item")))
    pairs = alg.Join(a, b, (("iter", i2), ("pos", i3)))
    de = alg.Map(pairs, "deep_equal", "m", (col("v1"), col("v2")))
    bad = alg.Distinct(
        alg.Project(
            alg.Select(de, "eq", col("m"), const(False)), (("iter", "iter"),)
        ),
        ("iter",),
    )
    # equal-length check
    cj = alg.Join(
        alg.Project(c1, (("iter", "iter"), ("n1", "n1"))),
        alg.Project(c2, ((i3 + "c", "iter"), ("n2", "n2"))),
        (("iter", i3 + "c"),),
    )
    same_len = alg.Project(
        alg.Select(cj, "eq", col("n1"), col("n2")), (("iter", "iter"),)
    )
    # empty-vs-empty iterations are equal: both sides absent
    both_absent = alg.Difference(
        comp._missing(q1, loop),
        alg.Project(q2, (("iter", "iter"),)),
        ("iter",),
    )
    trues = alg.Union(
        (alg.Difference(same_len, bad, ("iter",)), both_absent)
    )
    return comp._bool_result(alg.Distinct(trues, ("iter",)), loop)


# --------------------------------------------------------------------------
# cardinality assertions (pass-through in this dialect)
# --------------------------------------------------------------------------
def _fn_zero_or_one(comp, args, loop, env):
    return comp.compile(args[0], loop, env)


def _fn_exactly_one(comp, args, loop, env):
    return comp.compile(args[0], loop, env)


def _fn_one_or_more(comp, args, loop, env):
    return comp.compile(args[0], loop, env)


# --------------------------------------------------------------------------
# context functions
# --------------------------------------------------------------------------
def _fn_position(comp, args, loop, env):
    plan = env.get(CTX_POSITION)
    if plan is None:
        raise StaticError("fn:position() outside a predicate", code="err:XPDY0002")
    return plan


def _fn_last(comp, args, loop, env):
    plan = env.get(CTX_LAST)
    if plan is None:
        raise StaticError("fn:last() outside a predicate", code="err:XPDY0002")
    return plan


_BUILTINS = {
    ("doc", 1): _fn_doc,
    ("root", 1): _fn_root,
    ("name", 0): _fn_name,
    ("name", 1): _fn_name,
    ("fs:ddo", 1): _fn_ddo,
    ("data", 1): _fn_data,
    ("string", 0): _fn_string,
    ("string", 1): _fn_string,
    ("number", 0): _fn_number,
    ("number", 1): _fn_number,
    ("concat", -1): _fn_concat,
    ("contains", 2): _fn_contains,
    ("starts-with", 2): _fn_starts_with,
    ("ends-with", 2): lambda c, a, l, e: _string_pair(c, a, l, e, "ends_with"),
    ("substring-before", 2): lambda c, a, l, e: _string_pair(c, a, l, e, "substring_before"),
    ("substring-after", 2): lambda c, a, l, e: _string_pair(c, a, l, e, "substring_after"),
    ("substring", 2): _fn_substring,
    ("substring", 3): _fn_substring,
    ("upper-case", 1): _unary_string_fn("upper_case"),
    ("lower-case", 1): _unary_string_fn("lower_case"),
    ("normalize-space", 1): _unary_string_fn("normalize_space"),
    ("floor", 1): _unary_numeric_fn("floor"),
    ("ceiling", 1): _unary_numeric_fn("ceiling"),
    ("round", 1): _unary_numeric_fn("round"),
    ("abs", 1): _unary_numeric_fn("abs"),
    ("string-length", 0): _fn_string_length,
    ("string-length", 1): _fn_string_length,
    ("string-join", 1): _fn_string_join,
    ("string-join", 2): _fn_string_join,
    ("fs:item-join", 1): _fn_item_join,
    ("count", 1): _fn_count,
    ("sum", 1): _fn_sum,
    ("sum", 2): _fn_sum,
    ("avg", 1): _fn_avg,
    ("min", 1): _fn_min,
    ("max", 1): _fn_max,
    ("empty", 1): _fn_empty,
    ("exists", 1): _fn_exists,
    ("not", 1): _fn_not,
    ("boolean", 1): _fn_boolean,
    ("true", 0): _fn_true,
    ("false", 0): _fn_false,
    ("distinct-values", 1): _fn_distinct_values,
    ("reverse", 1): _fn_reverse,
    ("subsequence", 2): _fn_subsequence,
    ("subsequence", 3): _fn_subsequence,
    ("index-of", 2): _fn_index_of,
    ("insert-before", 3): _fn_insert_before,
    ("remove", 2): _fn_remove,
    ("deep-equal", 2): _fn_deep_equal,
    ("zero-or-one", 1): _fn_zero_or_one,
    ("exactly-one", 1): _fn_exactly_one,
    ("one-or-more", 1): _fn_one_or_more,
    ("position", 0): _fn_position,
    ("last", 0): _fn_last,
}
