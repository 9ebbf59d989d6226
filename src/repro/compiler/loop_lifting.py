"""Loop-lifting compilation of XQuery Core to the relational algebra.

The compilation scheme follows Grust/Sakr/Teubner, "XQuery on SQL Hosts"
(VLDB 2004), which the paper recites in Section 2:

* every expression, compiled relative to an iteration scope, yields a plan
  for a table ``iter | pos | item`` (``pos`` dense 1..n per ``iter``);
* the scope itself is a ``loop`` relation — one column ``iter`` listing
  the live iterations;
* ``for $v in e1 return e2`` row-numbers the tuples of ``e1`` to mint the
  iterations of the inner scope, binds ``$v`` per new iteration, compiles
  ``e2`` in the inner scope and back-maps its result through the
  ``map(outer, inner)`` relation (paper Figure 3);
* conditionals split the loop relation; axis steps are staircase joins;
  aggregates group by ``iter``.

**Dependency-scoped loop-lifting.**  Every ``for`` clause creates a
:class:`Scope` that records its parent scopes together with their
``map(outer, inner)`` relations.  A sub-expression is compiled in the
*outermost scope that binds all of its free variables* (context
pseudo-variables included) and its result is lifted down through the
composed map only where it is consumed: in XMark Q11, ``$p/profile/@income``
runs once per person and ``5000 * $i/text()`` once per auction, not once
per (person, auction) pair.  A ``for`` range that does not depend on the
enclosing scope gets an *independent* scope under the outermost scope it
does depend on; the FLWOR's tuple stream is then the product of both
scopes, with one map to each.  When the ``where`` clause's leading
conjunct compares the two sides, the product is built directly as a
join of their value tables (the paper's join recognition): an equi-join
for a string equality, a θ-join for any other general comparison; ``let``
clauses after that ``for`` then run for the joined tuples only.  Three
rules keep hoisting exact:

* **no crossing** — nothing is hoisted out of a conditional or typeswitch
  branch, a predicate or filter-step context, a constructor or a
  user-defined function body, and an expression containing a constructor
  or a user-defined function call is never hoisted (each iteration must
  build its own nodes);
* **consumer restriction** — a hoisted expression is compiled in its
  target scope *restricted to the iterations the consuming map reaches*,
  so it raises no error the nested-loop semantics would not raise
  (``for $x in () return 1 div 0`` is ``()``);
* **immutable scopes** — environments are never mutated; a ``let`` whose
  expression was hoisted binds its variable in the target scope, where
  later expressions that depend on it can be hoisted too.

The invariant maintained throughout: every emitted plan has dense ``pos``
1..n per ``iter`` and contains only iterations of its scope's loop.
"""

from __future__ import annotations

import itertools

from repro.encoding.axes import REVERSE_AXES, Axis, NodeTest
from repro.errors import NotSupportedError, StaticError
from repro.relational import algebra as alg
from repro.relational.algebra import col, const
from repro.relational.items import (
    K_BOOL,
    K_DBL,
    K_DEC,
    K_INT,
    K_STR,
    K_UNTYPED,
    PARAM_TYPE_KINDS,
)
from repro.encoding.arena import NK_COMMENT, NK_DOC, NK_ELEM, NK_PI, NK_TEXT
from repro.xquery import ast
from repro.xquery.core import CTX_ITEM, CTX_LAST, CTX_POSITION, free_vars, sub_expressions

_MAX_INLINE_DEPTH = 32

#: expressions that are as cheap to replicate as to lift: never hoisted
_LEAVES = (ast.Literal, ast.EmptySeq, ast.VarRef, ast.ContextItem)

#: expressions that build new nodes per iteration: never hoisted
_CONSTRUCTORS = (
    ast.CompElement, ast.CompAttribute, ast.CompText, ast.DirectElement,
) + ast.UPDATE_NODES

#: the node test of the ``//`` abbreviation's ``descendant-or-self::node()``
_ANY_NODE = NodeTest("node")

#: built-ins whose result is a boolean, never a number
_BOOLEAN_FUNCTIONS = frozenset({
    "not", "boolean", "true", "false", "empty", "exists", "contains",
    "starts-with", "ends-with", "deep-equal",
})


#: built-in functions whose result is at most one item
_SINGLE_VALUED_FUNCTIONS = _BOOLEAN_FUNCTIONS | {
    "count", "sum", "avg", "min", "max", "string", "number", "name",
    "string-length", "position", "last", "round", "floor", "ceiling", "abs",
    "concat", "substring", "upper-case", "lower-case", "normalize-space",
    "string-join",
}


class Scope:
    """An iteration scope: a ``loop`` relation (column ``iter``) and the
    scopes it is nested in.

    ``parents`` pairs each parent scope with its ``map(outer, inner)``
    relation (``outer`` a parent iteration, ``inner`` one of ours); a
    product scope has two.  A *restriction* keeps a subset of ``base``'s
    iterations under the same ids (a ``where``-filtered tuple stream, or a
    hoisting target cut down to what its consumer reaches) and shares
    ``base``'s parents.  A scope without parents is a hoisting barrier.
    ``unit`` marks a loop known to hold at most one iteration.
    """

    __slots__ = ("loop", "parents", "base", "unit", "above", "maps", "moved", "hoists")

    def __init__(self, loop: alg.Op, parents: tuple = (), base: "Scope | None" = None,
                 unit: bool = False):
        self.loop = loop
        self.parents = parents
        self.base = base
        self.unit = unit
        ups = [parent for parent, _ in parents]
        if base is not None:
            ups.append(base)
        above = set(ups)
        for up in ups:
            above |= up.above
        #: every other scope our iterations map back to (a scope listing
        #: itself would be a reference cycle, holding everything it
        #: compiled until the cyclic garbage collector runs)
        self.above = frozenset(above)
        #: ancestor → composed map(outer = ancestor iteration, inner = ours)
        self.maps: dict = {}
        #: (binder, id(plan)) → (plan, the plan moved into this scope)
        self.moved: dict = {}
        #: hoisting target → the target restricted to what reaches us
        self.hoists: dict = {}

    def under(self, scope: "Scope") -> bool:
        """Is ``scope`` this scope or one its iterations map back to?"""
        return scope is self or scope in self.above

    def restrict(self, loop: alg.Op) -> "Scope":
        """The subset ``loop`` of our iterations, as a scope of its own."""
        return Scope(loop, self.parents, base=self, unit=self.unit)


class Env:
    """The variables visible at one point of the query (immutable).

    ``vars`` maps a name to ``(binder, plan)``: the scope whose iterations
    key the plan.  :meth:`get` moves the plan into this env's scope through
    the composed map (memoized per scope).  ``outer`` resolves names from
    beyond a hoisting barrier on first use.
    """

    __slots__ = ("comp", "scope", "vars", "outer")

    def __init__(self, comp: "Compiler", scope: Scope, vars: dict, outer=None):
        self.comp = comp
        self.scope = scope
        self.vars = vars
        self.outer = outer

    @property
    def loop(self) -> alg.Op:
        """The loop relation of this env's scope."""
        return self.scope.loop

    def binding(self, name: str):
        """``(binder scope, plan)`` for ``name``, or None if unbound."""
        hit = self.vars.get(name)
        if hit is None and self.outer is not None:
            hit = self.outer(name)
        return hit

    def get(self, name: str) -> alg.Op | None:
        """``name``'s (iter, pos, item) plan in this env's scope."""
        hit = self.binding(name)
        return None if hit is None else self.comp._move(hit[1], hit[0], self.scope)

    def bind(self, bindings: dict) -> "Env":
        """This env plus ``bindings`` (name → (binder, plan))."""
        return Env(self.comp, self.scope, {**self.vars, **bindings}, self.outer)

    def enter(self, scope: Scope, bindings: dict | None = None) -> "Env":
        """The same variables (plus ``bindings``) seen from ``scope``, a
        descendant or restriction of ours."""
        return Env(self.comp, scope, {**self.vars, **(bindings or {})}, self.outer)


class CompiledQuery:
    """A compiled query: the plan plus front-end artifacts for explain()."""

    def __init__(self, plan: alg.Op, module: ast.Module, core: ast.Module):
        self.plan = plan
        self.module = module
        self.core = core


class Compiler:
    """Compiles a desugared module against a set of loaded documents."""

    def __init__(
        self,
        documents: dict[str, int],
        default_document: str | None = None,
        use_join_recognition: bool = True,
    ):
        self.documents = documents
        self.default_document = default_document
        self.use_join_recognition = use_join_recognition
        self._fresh_counter = itertools.count()
        self._functions: dict[str, ast.FunctionDecl] = {}
        self._external_vars: tuple[ast.ExternalVar, ...] = ()
        self._inline_depth = 0
        # variables statically known to hold xs:untypedAtomic/xs:string
        # sequences (feeds the join-recognition soundness gate)
        self._untyped_vars: set[str] = set()
        # per-Core-node analyses, keyed by node identity
        self._fv_memo: dict = {}
        self._movable_memo: dict = {}

    # ----------------------------------------------------------------- API
    def compile_module(self, module: ast.Module) -> alg.Op:
        """Compile a desugared module body under the unit loop (iter = 1).

        External variable declarations (``declare variable $x external``)
        become :class:`~repro.relational.algebra.ParamTable` leaves bound
        in the top-level environment: the emitted plan contains no value
        for them, so one compiled plan serves every parameter binding.
        """
        self._functions = {}
        self._movable_memo = {}
        for f in module.functions:
            key = (f.name, len(f.params))
            if key in self._functions:
                raise StaticError(f"duplicate function {f.name}/{len(f.params)}")
            self._functions[key] = f
        root = Scope(alg.Lit(("iter",), ((1,),)), unit=True)
        self._external_vars = tuple(module.external_vars)
        for var in module.external_vars:
            if var.type_name is not None and var.type_name not in PARAM_TYPE_KINDS:
                raise NotSupportedError(
                    f"external variable ${var.name}: type {var.type_name} is "
                    f"not bindable (supported: {', '.join(sorted(PARAM_TYPE_KINDS))})"
                )
        env = Env(self, root, self._param_vars(root))
        return self.compile(module.body, root.loop, env)

    def _param_vars(self, scope: Scope) -> dict:
        """The external variables, bound in ``scope``."""
        return {
            var.name: (scope, self._param_seq(var, scope.loop))
            for var in self._external_vars
        }

    def _param_seq(self, var: ast.ExternalVar, loop: alg.Op) -> alg.Op:
        """An external variable's sequence plan in an arbitrary scope.

        ``ParamTable`` is a pure leaf, so the binding is loop-invariant by
        construction and can be replicated into any loop directly."""
        param = alg.ParamTable(var.name, var.type_name)
        return self._q3(alg.Cross(loop, param))

    # ------------------------------------------------------------- helpers
    def fresh(self, base: str) -> str:
        """A fresh column name (the '%' keeps it out of the query's)."""
        return f"{base}%{next(self._fresh_counter)}"

    def _q3(self, plan: alg.Op) -> alg.Op:
        """Normalise column order to (iter, pos, item)."""
        return alg.Project(plan, (("iter", "iter"), ("pos", "pos"), ("item", "item")))

    def _empty(self) -> alg.Op:
        return alg.Lit(("iter", "pos", "item"), (), frozenset({"item"}))

    def _const_seq(self, loop: alg.Op, values: tuple) -> alg.Op:
        """A constant sequence replicated into every iteration of ``loop``."""
        rows = tuple((i + 1, v) for i, v in enumerate(values))
        lit = alg.Lit(("pos", "item"), rows, frozenset({"item"}))
        return self._q3(alg.Cross(loop, lit))

    def _first(self, q: alg.Op) -> alg.Op:
        """Restrict a sequence plan to its first item per iteration."""
        return alg.Select(q, "eq", col("pos"), const(1))

    def _iters_of(self, q: alg.Op) -> alg.Op:
        """The distinct iterations present in a plan — column ``iter``."""
        return alg.Distinct(alg.Project(q, (("iter", "iter"),)), ("iter",))

    def _missing(self, q: alg.Op, loop: alg.Op) -> alg.Op:
        """Loop iterations with no row in ``q`` — column ``iter``."""
        return alg.Difference(loop, self._iters_of(q), ("iter",))

    def _at_most_one(self, e: ast.Expr) -> bool:
        """Is ``e`` statically a sequence of at most one item?  (Then a
        runtime check of its cardinality is dead weight.)"""
        if isinstance(e, (ast.Literal, ast.Arith, ast.Neg, ast.ValueComp, ast.GeneralComp,
                          ast.NodeComp, ast.BoolOp, ast.InstanceOf, ast.CastExpr)):
            return True
        return (
            isinstance(e, ast.FunctionCall)
            and e.name in _SINGLE_VALUED_FUNCTIONS
            and (e.name, len(e.args)) not in self._functions
        )

    def _checked(self, q: alg.Op, ok: str, kernel: str) -> alg.Op:
        """``q`` with its items passed through ``kernel``, which raises its
        error when the flag column ``ok`` is false on some row."""
        item = self.fresh("checked")
        checked = alg.Map(q, kernel, item, (col("item"), col(ok)))
        return alg.Project(checked, (("iter", "iter"), ("pos", "pos"), ("item", item)))

    def _required(self, q: alg.Op, loop: alg.Op) -> alg.Op:
        """``q`` (at most one row per iteration) checked to have a row in
        every iteration of ``loop``: an empty sequence where a value is
        required is ``err:XPTY0004``."""
        columns = (("iter", "iter"), ("pos", "pos"), ("item", "item"), ("ok", "ok"))
        present = alg.Cross(q, alg.Lit(("ok",), ((True,),), frozenset({"ok"})))
        missing = alg.Cross(
            self._missing(q, loop),
            alg.Lit(("pos", "item", "ok"), ((1, 0, False),), frozenset({"item", "ok"})),
        )
        flagged = alg.Union((alg.Project(present, columns), alg.Project(missing, columns)))
        return self._checked(flagged, "ok", "required")

    def _only_item(self, first: alg.Op, q: alg.Op, kernel: str) -> alg.Op:
        """Rows of ``first`` (first items of ``q``) checked by ``kernel``
        to be the only item of their iteration in ``q``."""
        ci = self.fresh("ci")
        counts = alg.Project(alg.Aggr(q, "count", "n", None, "iter"), ((ci, "iter"), ("n", "n")))
        joined = alg.Join(first, counts, (("iter", ci),))
        single = alg.Map(joined, "le", "one", (col("n"), const(1)))
        return self._checked(single, "one", kernel)

    def _atomize(self, q: alg.Op) -> alg.Op:
        a = alg.Atomize(q, "item@", "item")
        return alg.Project(a, (("iter", "iter"), ("pos", "pos"), ("item", "item@")))

    def _with_pos1(self, iter_item: alg.Op) -> alg.Op:
        """(iter, item) → (iter, pos=1, item)."""
        crossed = alg.Cross(iter_item, alg.Lit(("pos",), ((1,),)))
        return self._q3(crossed)

    def _bool_result(self, trues: alg.Op, loop: alg.Op) -> alg.Op:
        """Single-column ``iter`` plan of true iterations → boolean
        sequence plan over ``loop`` (false for the remaining iterations)."""
        falses = alg.Difference(loop, trues, ("iter",))
        t = alg.Cross(trues, alg.Lit(("pos", "item"), ((1, True),), frozenset({"item"})))
        f = alg.Cross(falses, alg.Lit(("pos", "item"), ((1, False),), frozenset({"item"})))
        return alg.Union((self._q3(t), self._q3(f)))

    def _lift(self, q: alg.Op, map_rel: alg.Op) -> alg.Op:
        """Lift a plan into an inner scope through ``map(outer, inner)``."""
        o = self.fresh("o")
        renamed = alg.Project(
            q, ((o, "iter"), ("pos", "pos"), ("item", "item"))
        )
        joined = alg.Join(renamed, map_rel, ((o, "outer"),))
        return alg.Project(
            joined, (("iter", "inner"), ("pos", "pos"), ("item", "item"))
        )

    # -------------------------------------------------------------- scopes
    def _compose(self, upper: alg.Op, step: alg.Op) -> alg.Op:
        """map(a, b) ∘ map(b, c) → map(a, c)."""
        o2 = self.fresh("o")
        step_renamed = alg.Project(step, ((o2, "outer"), ("inner", "inner")))
        prev = alg.Project(upper, (("outer", "outer"), ("mid", "inner")))
        return alg.Project(
            alg.Join(step_renamed, prev, ((o2, "mid"),)),
            (("outer", "outer"), ("inner", "inner")),
        )

    def _map_to(self, scope: Scope, anc: Scope) -> alg.Op | None:
        """map(outer = ``anc`` iteration, inner = ``scope`` iteration) for
        an ancestor ``anc``; None when ``anc`` is ``scope`` itself."""
        if anc is scope:
            return None
        m = scope.maps.get(anc)
        if m is None:
            if scope.base is not None:
                up = self._map_to(scope.base, anc)
                m = (
                    alg.Project(scope.loop, (("outer", "iter"), ("inner", "iter")))
                    if up is None
                    else alg.SemiJoin(up, scope.loop, (("inner", "iter"),))
                )
            else:
                parent, step = next(
                    (p, s) for p, s in scope.parents if p.under(anc)
                )
                up = self._map_to(parent, anc)
                m = step if up is None else self._compose(up, step)
            scope.maps[anc] = m
        return m

    def _move(self, plan: alg.Op, binder: Scope, scope: Scope) -> alg.Op:
        """A plan keyed by ``binder``'s iterations, moved into ``scope``."""
        if binder is scope:
            return plan
        key = (binder, id(plan))
        hit = scope.moved.get(key)
        if hit is None:
            if scope.base is not None:
                moved = alg.SemiJoin(
                    self._move(plan, binder, scope.base), scope.loop, (("iter", "iter"),)
                )
            else:
                moved = self._lift(plan, self._map_to(scope, binder))
            hit = scope.moved[key] = (plan, moved)
        return hit[1]

    def _barrier(self, env: Env, loop: alg.Op, move, unit: bool = False) -> Env:
        """A scope over ``loop`` that nothing is hoisted out of.  Outer
        variables are brought in through ``move`` on first use and count
        as bound here."""
        scope = Scope(loop, unit=unit)
        memo: dict = {}

        def outer(name):
            if name not in memo:
                plan = env.get(name)
                memo[name] = None if plan is None else (scope, move(plan))
            return memo[name]

        return Env(self, scope, {}, outer)

    def _restricted(self, env: Env, loop: alg.Op) -> Env:
        """A barrier over the subset ``loop`` of ``env``'s iterations."""
        return self._barrier(
            env, loop, lambda p: alg.SemiJoin(p, loop, (("iter", "iter"),)), env.scope.unit
        )

    def _sealed(self, env: Env) -> Env:
        """The same iterations behind a barrier (constructor content)."""
        return self._barrier(env, env.loop, lambda p: p, env.scope.unit)

    def _movable(self, e: ast.Expr) -> bool:
        """May ``e`` be evaluated in another scope?  Not when it builds
        nodes: each iteration must construct its own."""
        hit = self._movable_memo.get(id(e))
        if hit is None:
            ok = not isinstance(e, _CONSTRUCTORS) and not (
                isinstance(e, ast.FunctionCall)
                and (e.name, len(e.args)) in self._functions
            )
            ok = ok and all(self._movable(c) for c in sub_expressions(e))
            hit = self._movable_memo[id(e)] = (e, ok)
        return hit[1]

    def _placement(self, e: ast.Expr, env: Env) -> Scope | None:
        """The outermost scope above ``env``'s that binds every free
        variable of ``e`` by the same binding, or None to compile ``e``
        where it stands."""
        scope = env.scope
        if not scope.parents or isinstance(e, _LEAVES):
            return None
        binders = set()
        for name in free_vars(e, self._fv_memo):
            hit = env.binding(name)
            if hit is None:
                return None  # compiling in place reports the unbound name
            binders.add(hit[0])
        target = scope
        while True:
            parent = next(
                (p for p, _ in target.parents if all(map(p.under, binders))), None
            )
            if parent is None:
                break
            target = parent
        return None if target is scope or not self._movable(e) else target

    def _hoisted_env(self, e: ast.Expr, env: Env, target: Scope) -> Env:
        """``e``'s free variables in ``target``, restricted to the target
        iterations that reach ``env``'s scope (the consumer restriction)."""
        scope = env.scope
        at = scope.hoists.get(target)
        if at is None:
            reach = alg.SemiJoin(
                target.loop, self._map_to(scope, target), (("iter", "outer"),)
            )
            at = scope.hoists[target] = target.restrict(reach)
        names = free_vars(e, self._fv_memo)
        return Env(self, at, {name: env.binding(name) for name in names})

    def _ebv(self, q: alg.Op, loop: alg.Op) -> alg.Op:
        """Effective boolean value per iteration → (iter, item) plan with
        exactly one boolean row per loop iteration."""
        f = self._first(q)
        b = alg.Map(f, "ebv", "b", (col("item"),))
        present = alg.Project(b, (("iter", "iter"), ("item", "b")))
        missing = self._missing(q, loop)
        f_lit = alg.Lit(("item",), ((False,),), frozenset({"item"}))
        return alg.Union((present, alg.Project(alg.Cross(missing, f_lit), (("iter", "iter"), ("item", "item")))))

    def _true_iters(self, cond: ast.Expr, loop: alg.Op, env: Env) -> alg.Op:
        """Iterations of ``loop`` where ``cond``'s EBV is true."""
        q = self.compile(cond, loop, env)
        eb = self._ebv(q, loop)
        sel = alg.Select(eb, "eq", col("item"), const(True))
        return alg.Project(sel, (("iter", "iter"),))

    # ------------------------------------------------------------ dispatch
    def compile(self, e: ast.Expr, loop: alg.Op, env: Env) -> alg.Op:
        """Compile expression ``e`` in scope ``loop`` (``env.loop``) with
        variable environment ``env``; returns an (iter, pos, item) plan.

        ``e`` is evaluated in the outermost scope that binds all of its
        free variables, and its result lifted into ``loop``."""
        owner, q = self._placed(e, env)
        if owner is env.scope:
            return q
        return self._lift(q, self._map_to(env.scope, owner))

    def _placed(self, e: ast.Expr, env: Env) -> tuple[Scope, alg.Op]:
        """``e`` compiled where it belongs: ``(owner, plan)``, the plan
        keyed by ``owner``'s iterations (only those reaching ``env``)."""
        target = self._placement(e, env)
        if target is None:
            return env.scope, self._dispatch(e, env.loop, env)
        inner = self._hoisted_env(e, env, target)
        return target, self._dispatch(e, inner.loop, inner)

    def _dispatch(self, e: ast.Expr, loop: alg.Op, env: Env) -> alg.Op:
        if isinstance(e, ast.UPDATE_NODES):
            raise StaticError(
                "updating expressions cannot be compiled as queries — "
                "run them through Session.execute_update (or POST /update)",
                code="err:XUST0001",
            )
        method = getattr(self, "_c_" + type(e).__name__, None)
        if method is None:
            raise NotSupportedError(f"cannot compile {type(e).__name__}")
        return method(e, loop, env)

    # ------------------------------------------------------------ literals
    def _c_Literal(self, e: ast.Literal, loop, env):
        return self._const_seq(loop, (e.value,))

    def _c_EmptySeq(self, e, loop, env):
        return self._empty()

    def _c_Sequence(self, e: ast.Sequence, loop, env):
        parts = []
        for ordinal, item in enumerate(e.items):
            q = self.compile(item, loop, env)
            tagged = alg.Cross(q, alg.Lit(("ord",), ((ordinal,),)))
            parts.append(
                alg.Project(
                    tagged,
                    (("iter", "iter"), ("ord", "ord"), ("pos", "pos"), ("item", "item")),
                )
            )
        u = alg.Union(tuple(parts))
        renum = alg.RowNum(u, "pos1", (("ord", False), ("pos", False)), "iter")
        return alg.Project(
            renum, (("iter", "iter"), ("pos", "pos1"), ("item", "item"))
        )

    def _c_RangeExpr(self, e: ast.RangeExpr, loop, env):
        lo = self._first(self._atomize(self.compile(e.lo, loop, env)))
        hi = self._first(self._atomize(self.compile(e.hi, loop, env)))
        i2 = self.fresh("i")
        lo_p = alg.Project(
            alg.Map(lo, "cast_int", "lo", (col("item"),)),
            (("iter", "iter"), ("lo", "lo")),
        )
        hi_p = alg.Project(
            alg.Map(hi, "cast_int", "hi", (col("item"),)),
            ((i2, "iter"), ("hi", "hi")),
        )
        j = alg.Join(lo_p, hi_p, (("iter", i2),))
        return alg.GenRange(j, "lo", "hi")

    def _c_VarRef(self, e: ast.VarRef, loop, env):
        plan = env.get(e.name)
        if plan is None:
            raise StaticError(f"undefined variable ${e.name}", code="err:XPST0008")
        return plan

    def _c_ContextItem(self, e, loop, env):
        plan = env.get(CTX_ITEM)
        if plan is None:
            raise StaticError("no context item in scope", code="err:XPDY0002")
        return plan

    # --------------------------------------------------------------- FLWOR
    def _c_FLWOR(self, e: ast.FLWOR, loop, env: Env):
        # the tuple stream lives in env.scope, a descendant of ``entry``;
        # ``conds`` are the where conjuncts still to be applied
        entry = env.scope
        conds = [] if e.where is None else [e.where]
        for idx, clause in enumerate(e.clauses):
            self._track_untyped(clause)
            if isinstance(clause, ast.LetClause):
                env = self._let_clause(clause, env)
            else:
                env, conds = self._for_clause(e, idx, clause, env, conds)
        for cond in conds:
            keep = self._true_iters(cond, env.loop, env)
            env = env.enter(env.scope.restrict(keep))
        cur_loop = env.loop
        # order-by keys: one atomic (or missing) per tuple iteration
        key_cols: list[tuple[str, bool]] = []
        key_plans: list[alg.Op] = []
        for spec in e.order:
            aq = self._atomize(self.compile(spec.expr, cur_loop, env))
            kq = self._first(aq)
            if not self._at_most_one(spec.expr):
                kq = self._only_item(kq, aq, "single_key")
            kname = self.fresh("k")
            present = alg.Project(kq, (("iter", "iter"), (kname, "item")))
            missing = self._missing(kq, cur_loop)
            sentinel = float("inf") if spec.empty_greatest else float("-inf")
            m_lit = alg.Lit((kname,), ((sentinel,),), frozenset({kname}))
            filled = alg.Union(
                (present, alg.Project(alg.Cross(missing, m_lit), (("iter", "iter"), (kname, kname))))
            )
            key_plans.append(filled)
            key_cols.append((kname, spec.descending))
        ret = self.compile(e.ret, cur_loop, env)
        # back-map to the entry scope, ordering tuples by (keys, inner)
        cur_map = self._map_to(env.scope, entry)
        if cur_map is None:
            cur_map = alg.Project(cur_loop, (("outer", "iter"), ("inner", "iter")))
        inner_col = self.fresh("inner")
        renamed = alg.Project(
            ret, ((inner_col, "iter"), ("pos", "pos"), ("item", "item"))
        )
        joined = alg.Join(renamed, cur_map, ((inner_col, "inner"),))
        for kplan, (kname, _) in zip(key_plans, key_cols):
            ki = self.fresh("ki")
            kp = alg.Project(kplan, ((ki, "iter"), (kname, kname)))
            joined = alg.Join(joined, kp, ((inner_col, ki),))
        order = tuple(key_cols) + ((inner_col, False), ("pos", False))
        renum = alg.RowNum(joined, "pos1", order, "outer")
        return alg.Project(
            renum, (("iter", "outer"), ("pos", "pos1"), ("item", "item"))
        )

    def _let_clause(self, clause: ast.LetClause, env: Env) -> Env:
        """Bind a let variable in the scope its expression is compiled in
        (its plan covers every iteration a consumer of the variable can
        reach)."""
        return env.bind({clause.var: self._placed(clause.expr, env)})

    def _for_clause(self, e: ast.FLWOR, idx: int, clause: ast.ForClause, env: Env, conds):
        """Extend the tuple stream by a for clause; returns the new env and
        the where conjuncts still to be applied."""
        scope = env.scope
        owner, q = self._placed(clause.expr, env)
        numbered = self._numbered(q)
        down = alg.Project(numbered, (("outer", "iter"), ("inner", "inner")))
        ind = Scope(alg.Project(numbered, (("iter", "inner"),)), ((owner, down),))
        bindings = self._for_vars(clause, numbered, ind)
        if owner is scope:
            # the range depends on the current tuple: a nested scope
            return env.enter(ind, bindings), conds
        # an independent range: the tuple stream is the product of the
        # range's own scope and the current one
        pairs = None
        if conds and self._joinable(e, idx, conds[0]):
            first, rest = _split_conjunct(conds[0])
            pairs = self._where_join(clause, first, env, owner, ind, down, bindings)
            if pairs is not None:
                conds = ([rest] if rest is not None else []) + conds[1:]
        if pairs is None:
            pairs = self._product(scope, owner, ind, down)
        t = alg.RowNum(pairs, "t", (("s", False), ("i", False)), None)
        product = Scope(
            alg.Project(t, (("iter", "t"),)),
            (
                (scope, alg.Project(t, (("outer", "s"), ("inner", "t")))),
                (ind, alg.Project(t, (("outer", "i"), ("inner", "t")))),
            ),
        )
        return env.enter(product, bindings), conds

    def _numbered(self, q: alg.Op) -> alg.Op:
        """Mint one new iteration (column ``inner``) per tuple of ``q``."""
        return alg.RowNum(q, "inner", (("iter", False), ("pos", False)), None)

    def _for_vars(self, clause: ast.ForClause, numbered: alg.Op, scope: Scope) -> dict:
        """The for variable (and positional variable), bound in ``scope``."""
        out = {
            clause.var: (scope, self._with_pos1(
                alg.Project(numbered, (("iter", "inner"), ("item", "item")))
            ))
        }
        if clause.pos_var is not None:
            pos_item = alg.Map(numbered, "cast_int", "pitem", (col("pos"),))
            out[clause.pos_var] = (scope, self._with_pos1(
                alg.Project(pos_item, (("iter", "inner"), ("item", "pitem")))
            ))
        return out

    def _product(self, scope: Scope, target: Scope, ind: Scope, down: alg.Op) -> alg.Op:
        """(s, i): every tuple iteration of ``scope`` with every iteration
        of ``ind`` under the same ``target`` iteration."""
        if target.unit:
            return alg.Cross(
                alg.Project(scope.loop, (("s", "iter"),)),
                alg.Project(ind.loop, (("i", "iter"),)),
            )
        up = alg.Project(self._map_to(scope, target), (("a", "outer"), ("s", "inner")))
        across = alg.Project(down, (("a2", "outer"), ("i", "inner")))
        return alg.Project(alg.Join(up, across, (("a", "a2"),)), (("s", "s"), ("i", "i")))

    # ------------------------------------------------ join recognition [3]
    def _joinable(self, e: ast.FLWOR, idx: int, cond: ast.Expr) -> bool:
        """May the where clause be applied while clause ``idx`` builds the
        tuple stream?  Only when no later for clause multiplies it and no
        later let rebinds a name the condition reads."""
        if not self.use_join_recognition:
            return False
        names = free_vars(cond, self._fv_memo)
        return all(
            isinstance(c, ast.LetClause) and c.var not in names
            for c in e.clauses[idx + 1:]
        )

    def _where_join(self, clause, cond, env: Env, target: Scope, ind: Scope,
                    down: alg.Op, bindings: dict) -> alg.Op | None:
        """The paper's "join recognition logic in our compiler" [3].

        When a where conjunct is a general comparison between an
        expression of the new, independent for variable (the *i* side)
        and one of the current tuple (the *s* side), the product of the
        two scopes never materialises: each side is evaluated once in its
        own scope and the surviving (s, i) pairs are built from the two
        value tables directly.  A string equality becomes an **equi-join
        on the comparison value** (XMark Q8/Q9); any other comparison a
        θ-join, ``alg.ThetaJoin`` (Q11/Q12), whose sort-based kernel
        builds only the pairs that satisfy it.

        Soundness gate of the equi-join: both sides end in an attribute
        or ``text()`` step, or are statically string-valued, so both
        atomize to ``xs:untypedAtomic``/``xs:string`` and the general
        comparison is a string equality — exactly what the equi-join on
        pooled string surrogates computes.

        The s side is evaluated only for tuples that have a partner, as
        the nested-loop semantics would.
        """
        if not isinstance(cond, ast.GeneralComp):
            return None
        own = {clause.var, clause.pos_var} - {None}
        i_side = s_side = None
        for operand in (cond.lhs, cond.rhs):
            names = free_vars(operand, self._fv_memo)
            if not names & own:
                s_side = operand
            elif all(n in own or self._bound_in(env, n, ind) for n in names):
                i_side = operand
        if i_side is None or s_side is None:
            return None
        scope = env.scope
        up = self._map_to(scope, target)
        partnered = alg.SemiJoin(
            scope.loop, alg.SemiJoin(up, down, (("outer", "outer"),)), (("iter", "inner"),)
        )
        i_env = Env(self, ind, {
            n: bindings[n] if n in own else env.binding(n)
            for n in free_vars(i_side, self._fv_memo)
        })
        equi = cond.op == "eq" and self._untyped_valued(i_side) and self._untyped_valued(s_side)
        cast = "cast_str" if equi else None
        iv = self._values(i_side, i_env, "i", "iv", cast)
        sv = self._values(s_side, env.enter(scope.restrict(partnered)), "s", "sv", cast)
        keys: tuple = ()
        if not target.unit:
            # pairs must also agree on their target iteration
            sv = alg.Join(sv, alg.Project(up, (("sa", "outer"), ("s2", "inner"))), (("s", "s2"),))
            iv = alg.Join(iv, alg.Project(down, (("ia", "outer"), ("i2", "inner"))), (("i", "i2"),))
            keys = (("sa", "ia"),)
        if equi:
            pairs = alg.Join(sv, iv, (("sv", "iv"),) + keys)
        else:
            lhs, rhs = ("iv", "sv") if i_side is cond.lhs else ("sv", "iv")
            pairs = alg.ThetaJoin(sv, iv, keys, cond.op, lhs, rhs)
        return alg.Distinct(alg.Project(pairs, (("s", "s"), ("i", "i"))), ("s", "i"))

    @staticmethod
    def _bound_in(env: Env, name: str, scope: Scope) -> bool:
        """Is ``name`` bound in ``scope`` or one of its ancestors?"""
        hit = env.binding(name)
        return hit is not None and scope.under(hit[0])

    def _values(self, e: ast.Expr, env: Env, iter_col: str, value_col: str,
                cast: str | None) -> alg.Op:
        """(iter_col, value_col): every atomized item of ``e``, optionally
        cast."""
        q = self._atomize(self.compile(e, env.loop, env))
        src = "item"
        if cast is not None:
            q, src = alg.Map(q, cast, value_col, (col("item"),)), value_col
        return alg.Project(q, ((iter_col, "iter"), (value_col, src)))

    def _track_untyped(self, clause) -> None:
        """Maintain the set of variables that are statically known to bind
        untypedAtomic/string sequences."""
        if self._statically_untyped(clause.expr):
            self._untyped_vars.add(clause.var)
        else:
            self._untyped_vars.discard(clause.var)
        if isinstance(clause, ast.ForClause) and clause.pos_var:
            self._untyped_vars.discard(clause.pos_var)

    def _statically_untyped(self, e: ast.Expr) -> bool:
        """Does ``e`` statically yield only untypedAtomic/string items?"""
        if isinstance(e, ast.Literal):
            return isinstance(e.value, str)
        if isinstance(e, ast.VarRef):
            return e.name in self._untyped_vars
        if isinstance(e, ast.PathExpr) and e.steps:
            last = e.steps[-1]
            return isinstance(last, ast.Step) and _last_step_untyped(last)
        if isinstance(e, ast.Sequence):
            return all(self._statically_untyped(i) for i in e.items)
        if isinstance(e, ast.FunctionCall) and len(e.args) == 1 and e.name in (
            "distinct-values", "data", "fs:ddo", "zero-or-one", "exactly-one",
            "one-or-more",
        ):
            return self._statically_untyped(e.args[0])
        if isinstance(e, ast.FunctionCall) and e.name in (
            "string", "concat", "string-join", "fs:item-join", "substring",
            "upper-case", "lower-case", "normalize-space",
        ):
            return True
        return False

    def _untyped_valued(self, e: ast.Expr) -> bool:
        """Join-recognition gate for the outer comparison side: paths
        ending in @attr/text(), string expressions, or variables tracked
        as untyped."""
        if isinstance(e, ast.VarRef):
            return e.name in self._untyped_vars
        return _untyped_valued(e) or self._statically_untyped(e)

    # -------------------------------------------------------- conditionals
    def _c_IfExpr(self, e: ast.IfExpr, loop, env):
        trues = self._true_iters(e.cond, loop, env)
        falses = alg.Difference(loop, trues, ("iter",))
        q_then = self.compile(e.then, trues, self._restricted(env, trues))
        q_else = self.compile(e.els, falses, self._restricted(env, falses))
        return alg.Union((self._q3(q_then), self._q3(q_else)))

    def _c_Typeswitch(self, e: ast.Typeswitch, loop, env):
        operand = self.compile(e.operand, loop, env)
        remaining = loop
        branches: list[alg.Op] = []
        for case in e.cases:
            match = self._type_match_iters(operand, case.test, loop)
            case_loop = alg.SemiJoin(remaining, match, (("iter", "iter"),))
            remaining = alg.Difference(remaining, match, ("iter",))
            branches.append(
                self._q3(self._typeswitch_branch(case.expr, case.var, operand, case_loop, env))
            )
        branches.append(self._q3(
            self._typeswitch_branch(e.default, e.default_var, operand, remaining, env)
        ))
        return alg.Union(tuple(branches))

    def _typeswitch_branch(self, expr, var, operand, branch_loop, env):
        branch_env = self._restricted(env, branch_loop)
        if var is not None:
            branch_env = branch_env.bind({var: (
                branch_env.scope, alg.SemiJoin(operand, branch_loop, (("iter", "iter"),))
            )})
        return self.compile(expr, branch_loop, branch_env)

    def _type_match_iters(self, operand: alg.Op, test: ast.SeqTypeTest, loop) -> alg.Op:
        """Iterations whose operand value matches a sequence type (judged,
        as everywhere in this dialect, on emptiness and the first item)."""
        if test.kind == "empty-sequence":
            return self._missing(operand, loop)
        present = self._iters_of(operand)
        if test.kind == "item":
            return present
        f = self._first(operand)
        if test.kind in ("element", "text", "comment", "document-node",
                         "processing-instruction", "node", "attribute"):
            if test.kind == "element" and test.name is not None:
                m = alg.Map(f, "elem_name_is", "m", (col("item"), const(test.name)))
                sel = alg.Select(m, "eq", col("m"), const(True))
                return alg.Project(sel, (("iter", "iter"),))
            nk = alg.Map(f, "node_kind", "nk", (col("item"),))
            want = {
                "element": NK_ELEM,
                "text": NK_TEXT,
                "comment": NK_COMMENT,
                "processing-instruction": NK_PI,
                "document-node": NK_DOC,
                "attribute": -2,
            }.get(test.kind)
            if test.kind == "node":
                sel = alg.Select(nk, "ne", col("nk"), const(-1))
            else:
                sel = alg.Select(nk, "eq", col("nk"), const(int(want)))
            return alg.Project(sel, (("iter", "iter"),))
        kind_of_type = {
            "xs:integer": K_INT, "xs:int": K_INT, "xs:long": K_INT,
            "xs:double": K_DBL, "xs:decimal": K_DEC, "xs:float": K_DBL,
            "xs:string": K_STR, "xs:boolean": K_BOOL,
            "xs:untypedAtomic": K_UNTYPED, "xs:anyAtomicType": -3,
        }
        code = kind_of_type.get(test.kind)
        if code is None:
            raise NotSupportedError(f"unsupported sequence type {test.kind}")
        kc = alg.Map(f, "kind_code", "kc", (col("item"),))
        if code == -3:  # any atomic: not a node
            sel = alg.Select(
                alg.Map(f, "is_node", "n", (col("item"),)), "eq", col("n"), const(False)
            )
        else:
            sel = alg.Select(kc, "eq", col("kc"), const(code))
        return alg.Project(sel, (("iter", "iter"),))

    # ----------------------------------------------------------- operators
    def _binary_scalar(self, fn: str, e1, e2, loop, env, atomize=True):
        """First items of both operands joined on iter, one Map apply."""
        q1 = self.compile(e1, loop, env)
        q2 = self.compile(e2, loop, env)
        if atomize:
            q1, q2 = self._atomize(q1), self._atomize(q2)
        i2 = self.fresh("i")
        a = alg.Project(self._first(q1), (("iter", "iter"), ("v1", "item")))
        b = alg.Project(self._first(q2), ((i2, "iter"), ("v2", "item")))
        j = alg.Join(a, b, (("iter", i2),))
        m = alg.Map(j, fn, "res", (col("v1"), col("v2")))
        return self._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "res"))))

    def _c_Arith(self, e: ast.Arith, loop, env):
        return self._binary_scalar(e.op, e.lhs, e.rhs, loop, env)

    def _c_Neg(self, e: ast.Neg, loop, env):
        q = self._first(self._atomize(self.compile(e.operand, loop, env)))
        m = alg.Map(q, "neg", "res", (col("item"),))
        return self._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "res"))))

    def _c_ValueComp(self, e: ast.ValueComp, loop, env):
        return self._binary_scalar(e.op, e.lhs, e.rhs, loop, env)

    def _c_NodeComp(self, e: ast.NodeComp, loop, env):
        fn = {"is": "node_eq", "before": "node_before", "after": "node_after"}[e.op]
        return self._binary_scalar(fn, e.lhs, e.rhs, loop, env, atomize=False)

    def _c_GeneralComp(self, e: ast.GeneralComp, loop, env):
        """Existential comparison: per-iteration theta-join of both
        sequences.  (For ``>`` this is exactly the paper's Q11/Q12
        theta-join whose output is inherently quadratic.)"""
        q1 = self._atomize(self.compile(e.lhs, loop, env))
        q2 = self._atomize(self.compile(e.rhs, loop, env))
        i2 = self.fresh("i")
        a = alg.Project(q1, (("iter", "iter"), ("v1", "item")))
        b = alg.Project(q2, ((i2, "iter"), ("v2", "item")))
        j = alg.Join(a, b, (("iter", i2),))
        m = alg.Map(j, e.op, "cmp", (col("v1"), col("v2")))
        sel = alg.Select(m, "eq", col("cmp"), const(True))
        trues = alg.Distinct(alg.Project(sel, (("iter", "iter"),)), ("iter",))
        return self._bool_result(trues, loop)

    def _c_NodeSetOp(self, e: ast.NodeSetOp, loop, env):
        """``except``/``intersect``: node-identity set operations per
        iteration, delivered in document order (δ + the paper's \\ )."""
        a = self.compile(e.lhs, loop, env)
        b = self.compile(e.rhs, loop, env)
        a2 = alg.Project(a, (("iter", "iter"), ("item", "item")))
        b2 = alg.Project(b, (("iter", "iter"), ("item", "item")))
        if e.kind == "except":
            kept = alg.Difference(a2, b2, ("iter", "item"))
        else:
            kept = alg.SemiJoin(a2, b2, (("iter", "iter"), ("item", "item")))
        d = alg.Distinct(kept, ("iter", "item"))
        return self._q3(alg.RowNum(d, "pos", (("item", False),), "iter"))

    def _c_BoolOp(self, e: ast.BoolOp, loop, env):
        b1 = self._ebv(self.compile(e.lhs, loop, env), loop)
        b2 = self._ebv(self.compile(e.rhs, loop, env), loop)
        i2 = self.fresh("i")
        a = alg.Project(b1, (("iter", "iter"), ("v1", "item")))
        b = alg.Project(b2, ((i2, "iter"), ("v2", "item")))
        j = alg.Join(a, b, (("iter", i2),))
        m = alg.Map(j, e.op, "res", (col("v1"), col("v2")))
        return self._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "res"))))

    def _c_CastExpr(self, e: ast.CastExpr, loop, env):
        fn = _cast_fn(e.type_name)
        q = self._first(self._atomize(self.compile(e.operand, loop, env)))
        m = alg.Map(q, fn, "res", (col("item"),))
        return self._with_pos1(alg.Project(m, (("iter", "iter"), ("item", "res"))))

    def _c_InstanceOf(self, e: ast.InstanceOf, loop, env):
        operand = self.compile(e.operand, loop, env)
        match = self._type_match_iters(operand, e.test, loop)
        return self._bool_result(match, loop)

    # ---------------------------------------------------------------- paths
    def _doc_plan(self, uri: str, loop) -> alg.Op:
        if uri not in self.documents:
            raise StaticError(f"document {uri!r} is not loaded", code="err:FODC0002")
        root = alg.Project(alg.DocRoot(uri), (("pos", "pos"), ("item", "item")))
        return self._q3(alg.Cross(loop, root))

    def _c_PathExpr(self, e: ast.PathExpr, loop, env):
        if e.start is not None:
            q = self.compile(e.start, loop, env)
        elif e.absolute:
            if self.default_document is None:
                raise StaticError(
                    "query uses an absolute path but no default document is set"
                )
            q = self._doc_plan(self.default_document, loop)
        else:
            q = self._c_ContextItem(None, loop, env)
        for step in self._fused_steps(e.steps):
            if isinstance(step, ast.Step):
                q = self._compile_axis_step(q, step, loop, env)
            else:
                q = self._compile_filter_step(q, step, env)
        return q

    def _fused_steps(self, steps: list) -> list:
        """``//T``: ``descendant-or-self::node()/child::T[p]`` as the one
        staircase step ``descendant::T[p]``.

        The two paths select the same nodes, but a predicate's position
        counts among a parent's children in the first and among all
        descendants in the second, so the steps fuse only when no
        predicate can observe position (:meth:`_position_blind`).  Core
        keeps the literal two-step form, which the baseline interpreter
        evaluates.
        """
        out: list = []
        for step in steps:
            prev = out[-1] if out else None
            if (
                isinstance(step, ast.Step)
                and step.axis is Axis.CHILD
                and isinstance(prev, ast.Step)
                and prev.axis is Axis.DESCENDANT_OR_SELF
                and prev.test == _ANY_NODE
                and not prev.predicates
                and all(map(self._position_blind, step.predicates))
            ):
                out[-1] = ast.Step(Axis.DESCENDANT, step.test, step.predicates)
            else:
                out.append(step)
        return out

    def _position_blind(self, pred: ast.Expr) -> bool:
        """Does the predicate keep the same nodes whatever their position?
        It must neither read ``position()``/``last()`` nor possibly be a
        number (which XPath compares with the position): it is a
        comparison, a boolean operator or function, or a path ending in an
        axis step."""
        if free_vars(pred, self._fv_memo) & {CTX_POSITION, CTX_LAST}:
            return False
        if isinstance(pred, (ast.GeneralComp, ast.ValueComp, ast.NodeComp, ast.BoolOp,
                             ast.InstanceOf)):
            return True
        if isinstance(pred, ast.FunctionCall):
            return (
                pred.name in _BOOLEAN_FUNCTIONS
                and (pred.name, len(pred.args)) not in self._functions
            )
        return (
            isinstance(pred, ast.PathExpr)
            and bool(pred.steps)
            and isinstance(pred.steps[-1], ast.Step)
        )

    def _compile_filter_step(self, q, step: ast.FilterStep, env):
        """A non-axis step inside a path: evaluate the primary expression
        once per context item (with ``.``, position() and last() bound) and
        concatenate the results in context order."""
        ctxs = alg.Project(q, (("iter", "iter"), ("pos", "pos"), ("item", "item")))
        rn = alg.RowNum(ctxs, "citer", (("iter", False), ("pos", False)), None)
        env2, rmap = self._context_env(env, ctxs, rn, "citer")
        r = self.compile(step.expr, env2.loop, env2)
        r = self._apply_predicates(r, step.predicates, env2)
        ci = self.fresh("ci")
        joined = alg.Join(
            alg.Project(r, ((ci, "iter"), ("pos", "pos"), ("item", "item"))),
            rmap,
            ((ci, "inner"),),
        )
        renum = alg.RowNum(joined, "pos1", ((ci, False), ("pos", False)), "outer")
        return alg.Project(
            renum, (("iter", "outer"), ("pos", "pos1"), ("item", "item"))
        )

    def _context_env(self, env: Env, seq: alg.Op, rn: alg.Op, citer: str):
        """A barrier scope with one iteration per item of ``seq`` (numbered
        ``citer`` by ``rn``) binding ``.``, fn:position() and fn:last();
        returns it with its map(outer, inner) from ``env``'s scope."""
        rmap = alg.Project(rn, (("outer", "iter"), ("inner", citer)))
        inner = self._barrier(
            env, alg.Project(rn, (("iter", citer),)), lambda p: self._lift(p, rmap)
        )
        pos_item = alg.Map(rn, "cast_int", "pitem", (col("pos"),))
        counts = alg.Aggr(seq, "count", "n", None, "iter")
        counts_item = alg.Map(counts, "cast_int", "citem", (col("n"),))
        last_per_outer = self._with_pos1(
            alg.Project(counts_item, (("iter", "iter"), ("item", "citem")))
        )
        scope = inner.scope
        return inner.bind({
            CTX_ITEM: (scope, self._with_pos1(
                alg.Project(rn, (("iter", citer), ("item", "item")))
            )),
            CTX_POSITION: (scope, self._with_pos1(
                alg.Project(pos_item, (("iter", citer), ("item", "pitem")))
            )),
            CTX_LAST: (scope, self._lift(last_per_outer, rmap)),
        }), rmap

    def _c_Filter(self, e: ast.Filter, loop, env):
        base = self.compile(e.base, loop, env)
        return self._apply_predicates(base, e.predicates, env)

    def _compile_axis_step(self, q, step: ast.Step, loop, env):
        ctxs = alg.Project(q, (("iter", "iter"), ("item", "item")))
        if not step.predicates:
            s = alg.StepJoin(ctxs, step.axis, step.test)
            renum = alg.RowNum(s, "pos", (("item", False),), "iter")
            return self._q3(renum)
        # context numbering: each context node becomes its own iteration
        cn = alg.RowNum(ctxs, "citer", (("iter", False), ("item", False)), None)
        cmap = alg.Project(cn, (("outer", "iter"), ("inner", "citer")))
        per_ctx = alg.Project(cn, (("iter", "citer"), ("item", "item")))
        s = alg.StepJoin(per_ctx, step.axis, step.test)
        # a reverse axis numbers its nodes from the context node outwards
        reverse = step.axis in REVERSE_AXES
        cur = self._q3(alg.RowNum(s, "pos", (("item", reverse),), "iter"))
        env_in_ctx = self._barrier(
            env, alg.Project(cn, (("iter", "citer"),)), lambda p: self._lift(p, cmap)
        )
        for pred in step.predicates:
            cur = self._one_predicate(cur, pred, env_in_ctx)
        # back-map kept nodes to the original iterations; ddo per iteration
        ci = self.fresh("ci")
        back = alg.Join(
            alg.Project(cur, ((ci, "iter"), ("item", "item"))),
            cmap,
            ((ci, "inner"),),
        )
        merged = alg.Distinct(
            alg.Project(back, (("iter", "outer"), ("item", "item"))),
            ("iter", "item"),
        )
        return self._q3(alg.RowNum(merged, "pos", (("item", False),), "iter"))

    def _apply_predicates(self, base, predicates, env):
        cur = base
        for pred in predicates:
            cur = self._one_predicate(cur, pred, env)
        return cur

    def _one_predicate(self, cur, pred: ast.Expr, env) -> alg.Op:
        """Filter a sequence plan by one predicate (positional or boolean),
        renumbering ``pos`` afterwards.

        Every row of ``cur`` becomes its own predicate iteration with the
        context item, fn:position() and fn:last() bound.
        """
        rn = alg.RowNum(cur, "riter", (("iter", False), ("pos", False)), None)
        env_pred, _ = self._context_env(env, cur, rn, "riter")
        pred_loop = env_pred.loop
        p = self.compile(pred, pred_loop, env_pred)
        pf = self._first(p)
        isnum = alg.Map(pf, "is_numeric", "isn", (col("item"),))
        num_rows = alg.Select(isnum, "eq", col("isn"), const(True))
        if not self._at_most_one(pred):
            num_rows = self._only_item(num_rows, p, "single_number")
        # numeric predicate: keep rows whose position equals the value
        ri = self.fresh("ri")
        num_vals = alg.Project(num_rows, ((ri, "iter"), ("pv", "item")))
        rpos = alg.Project(rn, (("riter", "riter"), ("cpos", "pos")))
        jn = alg.Join(num_vals, rpos, ((ri, "riter"),))
        eqm = alg.Map(jn, "eq", "m", (col("pv"), col("cpos")))
        kept_num = alg.Project(
            alg.Select(eqm, "eq", col("m"), const(True)), (("iter", ri),)
        )
        # boolean predicate: EBV true and not numeric-first
        eb = self._ebv(p, pred_loop)
        ebv_true = alg.Project(
            alg.Select(eb, "eq", col("item"), const(True)), (("iter", "iter"),)
        )
        numeric_iters = alg.Project(num_rows, (("iter", "iter"),))
        kept_bool = alg.Difference(ebv_true, numeric_iters, ("iter",))
        kept = alg.Union((kept_num, kept_bool))
        filtered = alg.SemiJoin(rn, kept, (("riter", "iter"),))
        renum = alg.RowNum(filtered, "pos1", (("pos", False),), "iter")
        return alg.Project(
            renum, (("iter", "iter"), ("pos", "pos1"), ("item", "item"))
        )

    # --------------------------------------------------------- constructors
    def _string_per_iter(self, e: ast.Expr, loop, env) -> alg.Op:
        """Compile ``e`` to exactly one string per loop iteration (the
        space-joined atomization — constructor content semantics)."""
        q = self._atomize(self.compile(e, loop, env))
        strs = alg.Map(q, "cast_str", "s", (col("item"),))
        joined = alg.Aggr(
            alg.Project(strs, (("iter", "iter"), ("pos", "pos"), ("s", "s"))),
            "str_join",
            "item",
            "s",
            "iter",
            sep=" ",
            order_col="pos",
        )
        present = alg.Project(joined, (("iter", "iter"), ("item", "item")))
        missing = self._missing(q, loop)
        empty_lit = alg.Lit(("item",), (("",),), frozenset({"item"}))
        filled = alg.Union(
            (present, alg.Project(alg.Cross(missing, empty_lit), (("iter", "iter"), ("item", "item"))))
        )
        return filled  # (iter, item)

    # constructor content is compiled behind a barrier (_sealed): nothing
    # is hoisted across a constructor
    def _c_CompElement(self, e: ast.CompElement, loop, env):
        env = self._sealed(env)
        names = self._string_per_iter(e.name, loop, env)
        content = self._q3(self.compile(e.content, loop, env))
        constructed = alg.ElemConstr(names, content)
        return self._with_pos1(constructed)

    def _c_CompAttribute(self, e: ast.CompAttribute, loop, env):
        env = self._sealed(env)
        names = self._string_per_iter(e.name, loop, env)
        values = self._string_per_iter(e.value, loop, env)
        constructed = alg.AttrConstr(names, values)
        return self._with_pos1(constructed)

    def _c_CompText(self, e: ast.CompText, loop, env):
        env = self._sealed(env)
        content = self._string_per_iter(e.content, loop, env)
        constructed = alg.TextConstr(content)
        return self._with_pos1(constructed)

    # ------------------------------------------------------------ functions
    def _c_FunctionCall(self, e: ast.FunctionCall, loop, env):
        udf = self._functions.get((e.name, len(e.args)))
        if udf is not None:
            return self._inline_udf(udf, e.args, loop, env)
        from repro.compiler.builtins import compile_builtin

        return compile_builtin(self, e, loop, env)

    def _inline_udf(self, f: ast.FunctionDecl, args, loop, env):
        if self._inline_depth >= _MAX_INLINE_DEPTH:
            raise NotSupportedError(
                f"recursion in {f.name} exceeds the compiler's inline depth "
                f"({_MAX_INLINE_DEPTH}); use the baseline interpreter"
            )
        # the body is a hoisting barrier that sees only its parameters and
        # the global (external) variables — loop-invariant leaves that
        # rebind in any scope.  Parameters shadow globals of the same name.
        scope = Scope(loop, unit=env.scope.unit)
        call_vars = self._param_vars(scope)
        call_vars.update(
            (param, (scope, self.compile(arg, loop, env)))
            for param, arg in zip(f.params, args)
        )
        self._inline_depth += 1
        try:
            return self.compile(f.body, loop, Env(self, scope, call_vars))
        finally:
            self._inline_depth -= 1


def _split_conjunct(e: ast.Expr):
    """``a and b and c`` → (``a``, ``b and c``); anything else → (e, None)."""
    if not (isinstance(e, ast.BoolOp) and e.op == "and"):
        return e, None
    first, rest = _split_conjunct(e.lhs)
    return first, e.rhs if rest is None else ast.BoolOp("and", rest, e.rhs)


def _untyped_valued(e: ast.Expr) -> bool:
    """Does ``e`` statically atomize to strings/untypedAtomic?  (Paths
    ending in @attr or text(), or string literals.)"""
    if isinstance(e, ast.Literal):
        return isinstance(e.value, str)
    if isinstance(e, ast.PathExpr) and e.steps:
        last = e.steps[-1]
        return isinstance(last, ast.Step) and _last_step_untyped(last)
    return False


def _last_step_untyped(step: ast.Step) -> bool:
    if step.predicates:
        return False
    return step.axis is Axis.ATTRIBUTE or step.test.kind == "text"


def _cast_fn(type_name: str) -> str:
    mapping = {
        "xs:double": "cast_dbl", "xs:decimal": "cast_dec", "xs:float": "cast_dbl",
        "xs:integer": "cast_int", "xs:int": "cast_int", "xs:long": "cast_int",
        "xs:string": "cast_str", "xs:untypedAtomic": "cast_str",
        "xs:boolean": "ebv",
    }
    fn = mapping.get(type_name)
    if fn is None:
        raise NotSupportedError(f"cast to {type_name} is not supported")
    return fn
