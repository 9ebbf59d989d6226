"""Desugaring to a small core dialect (the XQuery-Core step of Fig. 1).

The parser accepts convenient surface syntax; both back-ends (loop-lifting
compiler and nested-loop baseline) consume the reduced form produced here:

* direct element constructors become computed constructors — character
  data becomes ``text {...}`` children, attribute value templates become
  computed attributes with explicit string concatenation;
* quantifiers become ``fn:exists``/``fn:not`` over FLWORs (their classic
  Core expansion);
* ``fn:`` prefixes are stripped from built-in calls;
* the paper's ``fs:distinct-doc-order`` shows up as an explicit call when
  the user writes it; path steps imply it internally.

Everything else (paths, predicates, FLWOR, comparisons) stays structural —
the interesting work happens in the compiler.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import StaticError
from repro.xquery import ast

#: surface name → canonical builtin name
_BUILTIN_ALIASES = {
    "fn:doc": "doc",
    "fn:root": "root",
    "fn:data": "data",
    "fn:string": "string",
    "fn:count": "count",
    "fn:sum": "sum",
    "fn:avg": "avg",
    "fn:max": "max",
    "fn:min": "min",
    "fn:empty": "empty",
    "fn:exists": "exists",
    "fn:not": "not",
    "fn:boolean": "boolean",
    "fn:true": "true",
    "fn:false": "false",
    "fn:position": "position",
    "fn:last": "last",
    "fn:contains": "contains",
    "fn:starts-with": "starts-with",
    "fn:ends-with": "ends-with",
    "fn:substring": "substring",
    "fn:substring-before": "substring-before",
    "fn:substring-after": "substring-after",
    "fn:upper-case": "upper-case",
    "fn:lower-case": "lower-case",
    "fn:normalize-space": "normalize-space",
    "fn:floor": "floor",
    "fn:ceiling": "ceiling",
    "fn:round": "round",
    "fn:abs": "abs",
    "fn:string-length": "string-length",
    "fn:concat": "concat",
    "fn:string-join": "string-join",
    "fn:number": "number",
    "fn:distinct-values": "distinct-values",
    "fn:reverse": "reverse",
    "fn:subsequence": "subsequence",
    "fn:index-of": "index-of",
    "fn:insert-before": "insert-before",
    "fn:remove": "remove",
    "fn:deep-equal": "deep-equal",
    "fn:zero-or-one": "zero-or-one",
    "fn:exactly-one": "exactly-one",
    "fn:one-or-more": "one-or-more",
    "fn:name": "name",
    "fn:local-name": "name",
    "local-name": "name",
    "fs:distinct-doc-order": "fs:ddo",
    "fn:distinct-doc-order": "fs:ddo",
}


#: the context pseudo-variables: the context item, fn:position(), fn:last()
CTX_ITEM = "fs:ctx"
CTX_POSITION = "fs:position"
CTX_LAST = "fs:last"
CONTEXT_VARS = frozenset({CTX_ITEM, CTX_POSITION, CTX_LAST})

#: zero-argument built-ins that read the context
_CONTEXT_FUNCTIONS = {
    "position": CTX_POSITION,
    "last": CTX_LAST,
    "string": CTX_ITEM,
    "number": CTX_ITEM,
    "string-length": CTX_ITEM,
    "name": CTX_ITEM,
}

_NO_VARS: frozenset[str] = frozenset()


def free_vars(expr: ast.Expr, memo: dict | None = None) -> frozenset[str]:
    """The free variables of an expression, context dependence included.

    Besides ``$name`` references, the result names the context
    pseudo-variables (:data:`CONTEXT_VARS`) the expression reads from its
    surroundings: ``.``, a relative path with no start, zero-argument
    ``position()``/``last()``/``string()``/``number()``/
    ``string-length()``/``name()``.  Predicates and filter steps bind all
    three, so their reads stay inside.

    ``memo`` (keyed by node identity) makes repeated queries over one tree
    linear: every node is analysed once, bottom-up.
    """
    return _fv(expr, {} if memo is None else memo)


def _fv(e, memo: dict) -> frozenset[str]:
    if e is None:
        return _NO_VARS
    hit = memo.get(id(e))
    if hit is None:
        # the node is kept alive next to its entry so its id cannot be reused
        hit = memo[id(e)] = (e, _fv_node(e, memo))
    return hit[1]


def _fv_node(e, memo: dict) -> frozenset[str]:
    if isinstance(e, ast.VarRef):
        return frozenset({e.name})
    if isinstance(e, ast.ContextItem):
        return frozenset({CTX_ITEM})
    if isinstance(e, ast.FLWOR):
        out = set(_fv(e.ret, memo) | _fv(e.where, memo))
        for spec in e.order:
            out |= _fv(spec.expr, memo)
        for c in reversed(e.clauses):
            out -= {c.var, getattr(c, "pos_var", None)}
            out |= _fv(c.expr, memo)
        return frozenset(out)
    if isinstance(e, ast.Quantified):
        out = set(_fv(e.satisfies, memo))
        for var, b in reversed(e.bindings):
            out.discard(var)
            out |= _fv(b, memo)
        return frozenset(out)
    if isinstance(e, ast.Typeswitch):
        out = _fv(e.operand, memo) | (_fv(e.default, memo) - {e.default_var})
        for case in e.cases:
            out |= _fv(case.expr, memo) - {case.var}
        return out
    if isinstance(e, ast.PathExpr):
        return _fv_path(e, memo)
    if isinstance(e, ast.Filter):
        return _fv(e.base, memo) | _fv_in_context(e.predicates, memo)
    out = frozenset().union(*(_fv(c, memo) for c in sub_expressions(e)))
    if isinstance(e, ast.FunctionCall) and not e.args and e.name in _CONTEXT_FUNCTIONS:
        out |= {_CONTEXT_FUNCTIONS[e.name]}
    return out


def _fv_path(e: ast.PathExpr, memo: dict) -> frozenset[str]:
    steps = e.steps
    if e.start is not None:
        out = _fv(e.start, memo)
    elif e.absolute:
        out = _NO_VARS
    elif steps and isinstance(steps[0], ast.FilterStep):
        # before desugaring, a leading primary is the path's start
        out = _fv(steps[0].expr, memo) | _fv_in_context(steps[0].predicates, memo)
        steps = steps[1:]
    else:
        out = frozenset({CTX_ITEM})
    for s in steps:
        exprs = [s.expr, *s.predicates] if isinstance(s, ast.FilterStep) else s.predicates
        out |= _fv_in_context(exprs, memo)
    return out


def _fv_in_context(exprs, memo: dict) -> frozenset[str]:
    """Expressions evaluated per context item (predicates, filter steps):
    the context they read is bound there, not free."""
    return frozenset().union(*(_fv(x, memo) for x in exprs)) - CONTEXT_VARS


def sub_expressions(e: ast.Expr) -> Iterator[ast.Expr]:
    """The direct sub-expressions of ``e``, in source order."""
    if isinstance(e, ast.FLWOR):
        for c in e.clauses:
            yield c.expr
        if e.where is not None:
            yield e.where
        for spec in e.order:
            yield spec.expr
        yield e.ret
    elif isinstance(e, ast.Quantified):
        for _, b in e.bindings:
            yield b
        yield e.satisfies
    elif isinstance(e, ast.Typeswitch):
        yield e.operand
        for case in e.cases:
            yield case.expr
        yield e.default
    elif isinstance(e, ast.PathExpr):
        if e.start is not None:
            yield e.start
        for s in e.steps:
            if isinstance(s, ast.FilterStep):
                yield s.expr
            yield from s.predicates
    elif isinstance(e, ast.Filter):
        yield e.base
        yield from e.predicates
    elif isinstance(e, ast.Sequence):
        yield from e.items
    elif isinstance(e, ast.FunctionCall):
        yield from e.args
    elif isinstance(e, ast.DirectElement):
        for _, parts in e.attributes:
            yield from (p for p in parts if not isinstance(p, str))
        yield from (p for p in e.content if not isinstance(p, str))
    else:
        for attr in _CHILD_FIELDS.get(type(e), ()):
            yield getattr(e, attr)


#: the sub-expression fields of the node types with a fixed shape
_CHILD_FIELDS = {
    ast.RangeExpr: ("lo", "hi"),
    ast.IfExpr: ("cond", "then", "els"),
    ast.Neg: ("operand",),
    ast.CastExpr: ("operand",),
    ast.InstanceOf: ("operand",),
    ast.CompElement: ("name", "content"),
    ast.CompAttribute: ("name", "value"),
    ast.CompText: ("content",),
    ast.InsertExpr: ("source", "target"),
    ast.DeleteExpr: ("target",),
    ast.ReplaceExpr: ("target", "source"),
    ast.ReplaceValueExpr: ("target", "value"),
    ast.RenameExpr: ("target", "name"),
    **{t: ("lhs", "rhs") for t in (
        ast.NodeUnion, ast.NodeSetOp, ast.Arith, ast.ValueComp,
        ast.GeneralComp, ast.NodeComp, ast.BoolOp,
    )},
}


def is_updating(expr: ast.Expr) -> bool:
    """True when the expression is an *updating expression* (XQUF 2.2):
    an update primitive, or a FLWOR / conditional / sequence / typeswitch
    whose return branches are updating."""
    if isinstance(expr, ast.UPDATE_NODES):
        return True
    if isinstance(expr, ast.Sequence):
        return any(is_updating(i) for i in expr.items)
    if isinstance(expr, ast.FLWOR):
        return is_updating(expr.ret)
    if isinstance(expr, ast.IfExpr):
        return is_updating(expr.then) or is_updating(expr.els)
    if isinstance(expr, ast.Typeswitch):
        return any(is_updating(c.expr) for c in expr.cases) or is_updating(
            expr.default
        )
    return False


def desugar_module(module: ast.Module) -> ast.Module:
    """Desugar a parsed module (function bodies and main expression)."""
    functions = [
        ast.FunctionDecl(f.name, list(f.params), desugar(f.body))
        for f in module.functions
    ]
    return ast.Module(
        functions, desugar(module.body), list(module.external_vars)
    )


def desugar(expr: ast.Expr) -> ast.Expr:
    """Recursively desugar one expression."""
    t = type(expr)
    handler = _HANDLERS.get(t)
    if handler is None:
        raise StaticError(f"desugar: unhandled AST node {t.__name__}")
    return handler(expr)


def _d_literal(e: ast.Literal):
    return e


def _d_empty(e: ast.EmptySeq):
    return e


def _d_sequence(e: ast.Sequence):
    return ast.Sequence([desugar(i) for i in e.items])


def _d_range(e: ast.RangeExpr):
    return ast.RangeExpr(desugar(e.lo), desugar(e.hi))


def _d_var(e: ast.VarRef):
    return e


def _d_ctx(e: ast.ContextItem):
    return e


def _d_flwor(e: ast.FLWOR):
    clauses = []
    for c in e.clauses:
        if isinstance(c, ast.ForClause):
            clauses.append(ast.ForClause(c.var, desugar(c.expr), c.pos_var))
        else:
            clauses.append(ast.LetClause(c.var, desugar(c.expr)))
    where = desugar(e.where) if e.where is not None else None
    order = [
        ast.OrderSpec(desugar(o.expr), o.descending, o.empty_greatest)
        for o in e.order
    ]
    return ast.FLWOR(clauses, where, order, desugar(e.ret), e.stable)


def _d_quantified(e: ast.Quantified):
    """``some ... satisfies c`` → ``exists(for ... where c return 1)``;
    ``every ... satisfies c`` → ``not(exists(for ... where not(c) ...))``."""
    satisfies = desugar(e.satisfies)
    clauses = [ast.ForClause(v, desugar(b), None) for v, b in e.bindings]
    if e.kind == "some":
        flwor = ast.FLWOR(clauses, satisfies, [], ast.Literal(1))
        return ast.FunctionCall("exists", [flwor])
    negated = ast.FunctionCall("not", [satisfies])
    flwor = ast.FLWOR(clauses, negated, [], ast.Literal(1))
    return ast.FunctionCall("not", [ast.FunctionCall("exists", [flwor])])


def _d_if(e: ast.IfExpr):
    return ast.IfExpr(desugar(e.cond), desugar(e.then), desugar(e.els))


def _d_typeswitch(e: ast.Typeswitch):
    cases = [
        ast.TypeswitchCase(c.test, c.var, desugar(c.expr)) for c in e.cases
    ]
    return ast.Typeswitch(desugar(e.operand), cases, e.default_var, desugar(e.default))


def _d_union(e: ast.NodeUnion):
    """``e1 | e2`` → ``fs:ddo((e1, e2))`` — union is distinct-doc-order
    over the concatenation."""
    return ast.FunctionCall(
        "fs:ddo", [ast.Sequence([desugar(e.lhs), desugar(e.rhs)])]
    )


def _d_nodesetop(e: ast.NodeSetOp):
    return ast.NodeSetOp(e.kind, desugar(e.lhs), desugar(e.rhs))


def _d_arith(e: ast.Arith):
    return ast.Arith(e.op, desugar(e.lhs), desugar(e.rhs))


def _d_neg(e: ast.Neg):
    return ast.Neg(desugar(e.operand))


def _d_valuecomp(e: ast.ValueComp):
    return ast.ValueComp(e.op, desugar(e.lhs), desugar(e.rhs))


def _d_generalcomp(e: ast.GeneralComp):
    return ast.GeneralComp(e.op, desugar(e.lhs), desugar(e.rhs))


def _d_nodecomp(e: ast.NodeComp):
    return ast.NodeComp(e.op, desugar(e.lhs), desugar(e.rhs))


def _d_boolop(e: ast.BoolOp):
    return ast.BoolOp(e.op, desugar(e.lhs), desugar(e.rhs))


def _d_path(e: ast.PathExpr):
    start = desugar(e.start) if e.start is not None else None
    raw_steps = list(e.steps)
    # a relative path beginning with a primary expression ($x/a, doc(..)/a)
    # hoists that primary into the path start
    if start is None and not e.absolute and raw_steps and isinstance(
        raw_steps[0], ast.FilterStep
    ):
        first = raw_steps.pop(0)
        start = desugar(first.expr)
        if first.predicates:
            start = ast.Filter(start, [desugar(p) for p in first.predicates])
    steps = []
    for s in raw_steps:
        if isinstance(s, ast.Step):
            steps.append(ast.Step(s.axis, s.test, [desugar(p) for p in s.predicates]))
        else:
            steps.append(
                ast.FilterStep(desugar(s.expr), [desugar(p) for p in s.predicates])
            )
    return ast.PathExpr(start, steps, e.absolute)


def _d_filter(e: ast.Filter):
    return ast.Filter(desugar(e.base), [desugar(p) for p in e.predicates])


def _d_call(e: ast.FunctionCall):
    name = _BUILTIN_ALIASES.get(e.name, e.name)
    return ast.FunctionCall(name, [desugar(a) for a in e.args])


def _avt_value(parts: list) -> ast.Expr:
    """An attribute value template → one string-valued expression."""
    exprs: list[ast.Expr] = []
    for part in parts:
        if isinstance(part, str):
            exprs.append(ast.Literal(part))
        else:
            exprs.append(ast.FunctionCall("fs:item-join", [desugar(part)]))
    if not exprs:
        return ast.Literal("")
    out = exprs[0]
    if isinstance(out, ast.Literal) and not isinstance(out.value, str):
        out = ast.FunctionCall("string", [out])
    for nxt in exprs[1:]:
        out = ast.FunctionCall("concat", [out, nxt])
    return out


def _d_direct(e: ast.DirectElement):
    """Direct constructor → computed element with explicit children."""
    content: list[ast.Expr] = []
    for attr_name, parts in e.attributes:
        content.append(
            ast.CompAttribute(ast.Literal(attr_name), _avt_value(parts))
        )
    for part in e.content:
        if isinstance(part, str):
            content.append(ast.CompText(ast.Literal(part)))
        else:
            content.append(desugar(part))
    body: ast.Expr
    if not content:
        body = ast.EmptySeq()
    elif len(content) == 1:
        body = content[0]
    else:
        body = ast.Sequence(content)
    return ast.CompElement(ast.Literal(e.name), body)


def _d_comp_elem(e: ast.CompElement):
    return ast.CompElement(desugar(e.name), desugar(e.content))


def _d_comp_attr(e: ast.CompAttribute):
    return ast.CompAttribute(desugar(e.name), desugar(e.value))


def _d_comp_text(e: ast.CompText):
    return ast.CompText(desugar(e.content))


def _d_insert(e: ast.InsertExpr):
    return ast.InsertExpr(desugar(e.source), e.position, desugar(e.target))


def _d_delete(e: ast.DeleteExpr):
    return ast.DeleteExpr(desugar(e.target))


def _d_replace(e: ast.ReplaceExpr):
    return ast.ReplaceExpr(desugar(e.target), desugar(e.source))


def _d_replace_value(e: ast.ReplaceValueExpr):
    return ast.ReplaceValueExpr(desugar(e.target), desugar(e.value))


def _d_rename(e: ast.RenameExpr):
    return ast.RenameExpr(desugar(e.target), desugar(e.name))


def _d_cast(e: ast.CastExpr):
    return ast.CastExpr(desugar(e.operand), e.type_name)


def _d_instance(e: ast.InstanceOf):
    return ast.InstanceOf(desugar(e.operand), e.test)


_HANDLERS = {
    ast.Literal: _d_literal,
    ast.EmptySeq: _d_empty,
    ast.Sequence: _d_sequence,
    ast.RangeExpr: _d_range,
    ast.VarRef: _d_var,
    ast.ContextItem: _d_ctx,
    ast.FLWOR: _d_flwor,
    ast.Quantified: _d_quantified,
    ast.IfExpr: _d_if,
    ast.Typeswitch: _d_typeswitch,
    ast.NodeUnion: _d_union,
    ast.NodeSetOp: _d_nodesetop,
    ast.Arith: _d_arith,
    ast.Neg: _d_neg,
    ast.ValueComp: _d_valuecomp,
    ast.GeneralComp: _d_generalcomp,
    ast.NodeComp: _d_nodecomp,
    ast.BoolOp: _d_boolop,
    ast.PathExpr: _d_path,
    ast.Filter: _d_filter,
    ast.FunctionCall: _d_call,
    ast.DirectElement: _d_direct,
    ast.CompElement: _d_comp_elem,
    ast.CompAttribute: _d_comp_attr,
    ast.CompText: _d_comp_text,
    ast.CastExpr: _d_cast,
    ast.InstanceOf: _d_instance,
    ast.InsertExpr: _d_insert,
    ast.DeleteExpr: _d_delete,
    ast.ReplaceExpr: _d_replace,
    ast.ReplaceValueExpr: _d_replace_value,
    ast.RenameExpr: _d_rename,
}
