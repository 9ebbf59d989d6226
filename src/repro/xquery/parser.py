"""Recursive-descent parser for the supported XQuery dialect.

Builds the AST of :mod:`repro.xquery.ast` from query text.  The grammar is
the XQuery 1.0 expression grammar restricted to the paper's Table 2 plus
the constructs XMark needs: the full FLWOR (multiple for/let clauses,
``at`` positional variables, ``where``, ``order by``), quantified
expressions, typeswitch, direct and computed constructors (with attribute
value templates), path expressions with all axes, predicates, arithmetic,
all three comparison families, user-defined functions and a prolog with
``declare function`` / ``declare variable`` / ``declare namespace``.
"""

from __future__ import annotations

from repro.encoding.axes import Axis, NodeTest
from repro.errors import XQuerySyntaxError
from repro.xml.escape import resolve_entities
from repro.xquery import ast
from repro.xquery.lexer import Lexer, Token

_AXES = {axis.value: axis for axis in Axis}

_KIND_TESTS = {
    "text",
    "node",
    "comment",
    "processing-instruction",
    "element",
    "attribute",
    "document-node",
}

#: names that cannot be function names in a call position
_RESERVED_FN = _KIND_TESTS | {"if", "typeswitch", "item", "empty-sequence"}

_GENERAL_COMP = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
_VALUE_COMP = {"eq", "ne", "lt", "le", "gt", "ge"}


def parse_query(text: str) -> ast.Module:
    """Parse a complete query (prolog + body) into a :class:`ast.Module`."""
    return _Parser(text).parse_module()


def parse_parts(
    text: str,
) -> tuple[list[tuple[str, object]], list[tuple[str, ast.Expr]]]:
    """Parse a query and cut its source text into parts: each prolog
    declaration (with its :class:`ast.FunctionDecl`, :class:`ast.LetClause`
    or :class:`ast.ExternalVar`; ``None`` for a namespace declaration) and
    each top-level comma operand of the body (with its expression; one
    operand when the body is not a comma sequence).  Declarations in
    source order followed by one operand make a query of their own — the
    unit the cluster router scatters over shards.  Raises like
    :func:`parse_query`.
    """
    parser = _Parser(text)
    parser.parse_module()
    # a part runs up to the next part's start; an operand stops one
    # short of it, before the comma that ends the operand
    decl_ends = [start for start, _ in parser.declarations[1:]]
    decl_ends.append(parser.operands[0][0])
    op_ends = [start - 1 for start, _ in parser.operands[1:]]
    op_ends.append(len(text))
    declarations = [
        (text[start:end], node)
        for (start, node), end in zip(parser.declarations, decl_ends)
    ]
    operands = [
        (text[start:end], expr)
        for (start, expr), end in zip(parser.operands, op_ends)
    ]
    return declarations, operands


class _Parser:
    def __init__(self, text: str):
        self.lexer = Lexer(text)
        #: (source position, node) of each prolog declaration and of each
        #: top-level comma operand of the body, recorded by
        #: :meth:`parse_module` for :func:`parse_parts`
        self.declarations: list[tuple[int, object]] = []
        self.operands: list[tuple[int, ast.Expr]] = []

    # ------------------------------------------------------------ utilities
    def peek(self, k: int = 0) -> Token:
        return self.lexer.peek(k)

    def next(self) -> Token:
        return self.lexer.next()

    def error(self, message: str, token: Token | None = None) -> XQuerySyntaxError:
        token = token or self.peek()
        line, col = self.lexer.line_col(token.pos)
        return XQuerySyntaxError(message, line, col)

    def expect_symbol(self, sym: str) -> Token:
        token = self.next()
        if not token.is_symbol(sym):
            raise self.error(f"expected {sym!r}, found {token.value!r}", token)
        return token

    def expect_name(self, *names: str) -> Token:
        token = self.next()
        if token.type != "name" or (names and token.value not in names):
            raise self.error(f"expected {' or '.join(names)}", token)
        return token

    def accept_symbol(self, sym: str) -> bool:
        if self.peek().is_symbol(sym):
            self.next()
            return True
        return False

    def accept_name(self, *names: str) -> bool:
        if self.peek().is_name(*names):
            self.next()
            return True
        return False

    def var_name(self) -> str:
        self.expect_symbol("$")
        return self.expect_name().value

    # -------------------------------------------------------------- module
    def parse_module(self) -> ast.Module:
        functions: list[ast.FunctionDecl] = []
        global_lets: list[ast.LetClause] = []
        external_vars: list[ast.ExternalVar] = []
        while self.peek().is_name("declare"):
            start = self.peek().pos
            kind = self.peek(1)
            if kind.is_name("function"):
                node = self._parse_function_decl()
                functions.append(node)
            elif kind.is_name("variable"):
                self.next(), self.next()
                name = self.var_name()
                declared = {v.name for v in external_vars} | {
                    c.var for c in global_lets
                }
                if name in declared:
                    raise self.error(
                        f"duplicate global variable declaration ${name}"
                    )
                type_name = None
                if self.accept_name("as"):
                    seq_type = self._parse_seq_type()
                    type_name = seq_type.kind
                if self.accept_name("external"):
                    node = ast.ExternalVar(name, type_name)
                    external_vars.append(node)
                else:
                    self.expect_symbol(":=")
                    node = ast.LetClause(name, self.parse_expr_single())
                    global_lets.append(node)
                self.expect_symbol(";")
            elif kind.is_name("namespace"):
                self.next(), self.next()
                self.expect_name()
                self.expect_symbol("=")
                tok = self.next()
                if tok.type != "string":
                    raise self.error("expected a namespace URI string", tok)
                self.expect_symbol(";")
                node = None
            else:
                raise self.error("unsupported declaration", kind)
            self.declarations.append((start, node))
        body = self.parse_expr(self.operands)
        tok = self.peek()
        if tok.type != "eof":
            raise self.error(f"unexpected trailing input {tok.value!r}", tok)
        if global_lets:
            body = ast.FLWOR(list(global_lets), None, [], body)
        return ast.Module(functions, body, external_vars)

    def _parse_function_decl(self) -> ast.FunctionDecl:
        self.expect_name("declare")
        self.expect_name("function")
        name = self.expect_name().value
        self.expect_symbol("(")
        params: list[str] = []
        if not self.peek().is_symbol(")"):
            while True:
                params.append(self.var_name())
                if self.accept_name("as"):
                    self._parse_seq_type()
                if not self.accept_symbol(","):
                    break
        self.expect_symbol(")")
        if self.accept_name("as"):
            self._parse_seq_type()
        self.expect_symbol("{")
        body = self.parse_expr()
        self.expect_symbol("}")
        self.expect_symbol(";")
        return ast.FunctionDecl(name, params, body)

    # --------------------------------------------------------- expressions
    def parse_expr(self, operands: list | None = None) -> ast.Expr:
        """``Expr``: a comma sequence of ``ExprSingle``.  When ``operands``
        is given, each ``ExprSingle`` is appended to it with the source
        position where it starts (just past its comma, for all but the
        first)."""
        start = self.peek().pos
        items = [self.parse_expr_single()]
        starts = [start]
        while self.peek().is_symbol(","):
            starts.append(self.next().pos + 1)
            items.append(self.parse_expr_single())
        if operands is not None:
            operands.extend(zip(starts, items))
        if len(items) == 1:
            return items[0]
        flat: list[ast.Expr] = []
        for item in items:
            if isinstance(item, ast.Sequence):
                flat.extend(item.items)
            elif not isinstance(item, ast.EmptySeq):
                flat.append(item)
        if not flat:
            return ast.EmptySeq()
        if len(flat) == 1:
            return flat[0]
        return ast.Sequence(flat)

    def parse_expr_single(self) -> ast.Expr:
        tok = self.peek()
        if tok.type == "name":
            nxt = self.peek(1)
            if tok.value in ("for", "let") and nxt.is_symbol("$"):
                return self._parse_flwor()
            if tok.value in ("some", "every") and nxt.is_symbol("$"):
                return self._parse_quantified()
            if tok.value == "if" and nxt.is_symbol("("):
                return self._parse_if()
            if tok.value == "typeswitch" and nxt.is_symbol("("):
                return self._parse_typeswitch()
            # XQuery Update Facility expressions; the two-name lookahead
            # keeps plain paths over elements named insert/delete/... valid
            if tok.value == "insert" and nxt.is_name("node", "nodes"):
                return self._parse_insert()
            if tok.value == "delete" and nxt.is_name("node", "nodes"):
                return self._parse_delete()
            if tok.value == "replace" and (
                nxt.is_name("node")
                or (nxt.is_name("value") and self.peek(2).is_name("of"))
            ):
                return self._parse_replace()
            if tok.value == "rename" and nxt.is_name("node"):
                return self._parse_rename()
        return self.parse_or()

    # ------------------------------------------------- update expressions
    def _parse_insert(self) -> ast.InsertExpr:
        self.next(), self.next()  # insert node|nodes
        source = self.parse_expr_single()
        if self.accept_name("as"):
            position = self.expect_name("first", "last").value
            self.expect_name("into")
        elif self.accept_name("into"):
            position = "into"
        elif self.accept_name("before"):
            position = "before"
        elif self.accept_name("after"):
            position = "after"
        else:
            raise self.error(
                "expected 'into', 'as first into', 'as last into', "
                "'before' or 'after' in insert expression"
            )
        return ast.InsertExpr(source, position, self.parse_expr_single())

    def _parse_delete(self) -> ast.DeleteExpr:
        self.next(), self.next()  # delete node|nodes
        return ast.DeleteExpr(self.parse_expr_single())

    def _parse_replace(self) -> ast.Expr:
        self.next()  # replace
        value_of = self.accept_name("value")
        if value_of:
            self.expect_name("of")
        self.expect_name("node")
        target = self.parse_expr_single()
        self.expect_name("with")
        source = self.parse_expr_single()
        if value_of:
            return ast.ReplaceValueExpr(target, source)
        return ast.ReplaceExpr(target, source)

    def _parse_rename(self) -> ast.RenameExpr:
        self.next(), self.next()  # rename node
        target = self.parse_expr_single()
        self.expect_name("as")
        return ast.RenameExpr(target, self.parse_expr_single())

    def _parse_flwor(self) -> ast.FLWOR:
        clauses: list[object] = []
        while True:
            tok = self.peek()
            if tok.is_name("for") and self.peek(1).is_symbol("$"):
                self.next()
                while True:
                    var = self.var_name()
                    if self.accept_name("as"):
                        self._parse_seq_type()
                    pos_var = None
                    if self.accept_name("at"):
                        pos_var = self.var_name()
                    self.expect_name("in")
                    clauses.append(
                        ast.ForClause(var, self.parse_expr_single(), pos_var)
                    )
                    if not self.accept_symbol(","):
                        break
            elif tok.is_name("let") and self.peek(1).is_symbol("$"):
                self.next()
                while True:
                    var = self.var_name()
                    if self.accept_name("as"):
                        self._parse_seq_type()
                    self.expect_symbol(":=")
                    clauses.append(ast.LetClause(var, self.parse_expr_single()))
                    if not self.accept_symbol(","):
                        break
            else:
                break
        where = None
        if self.accept_name("where"):
            where = self.parse_expr_single()
        order: list[ast.OrderSpec] = []
        stable = False
        if self.peek().is_name("stable") and self.peek(1).is_name("order"):
            self.next()
            stable = True
        if self.peek().is_name("order") and self.peek(1).is_name("by"):
            self.next(), self.next()
            while True:
                expr = self.parse_expr_single()
                descending = False
                if self.accept_name("descending"):
                    descending = True
                else:
                    self.accept_name("ascending")
                empty_greatest = False
                if self.accept_name("empty"):
                    tok = self.expect_name("greatest", "least")
                    empty_greatest = tok.value == "greatest"
                order.append(ast.OrderSpec(expr, descending, empty_greatest))
                if not self.accept_symbol(","):
                    break
        self.expect_name("return")
        ret = self.parse_expr_single()
        return ast.FLWOR(clauses, where, order, ret, stable)

    def _parse_quantified(self) -> ast.Quantified:
        kind = self.next().value
        bindings: list[tuple[str, ast.Expr]] = []
        while True:
            var = self.var_name()
            if self.accept_name("as"):
                self._parse_seq_type()
            self.expect_name("in")
            bindings.append((var, self.parse_expr_single()))
            if not self.accept_symbol(","):
                break
        self.expect_name("satisfies")
        return ast.Quantified(kind, bindings, self.parse_expr_single())

    def _parse_if(self) -> ast.IfExpr:
        self.expect_name("if")
        self.expect_symbol("(")
        cond = self.parse_expr()
        self.expect_symbol(")")
        self.expect_name("then")
        then = self.parse_expr_single()
        self.expect_name("else")
        els = self.parse_expr_single()
        return ast.IfExpr(cond, then, els)

    def _parse_typeswitch(self) -> ast.Typeswitch:
        self.expect_name("typeswitch")
        self.expect_symbol("(")
        operand = self.parse_expr()
        self.expect_symbol(")")
        cases: list[ast.TypeswitchCase] = []
        while self.peek().is_name("case"):
            self.next()
            var = None
            if self.peek().is_symbol("$"):
                var = self.var_name()
                self.expect_name("as")
            test = self._parse_seq_type()
            self.expect_name("return")
            cases.append(ast.TypeswitchCase(test, var, self.parse_expr_single()))
        if not cases:
            raise self.error("typeswitch needs at least one case")
        self.expect_name("default")
        default_var = None
        if self.peek().is_symbol("$"):
            default_var = self.var_name()
        self.expect_name("return")
        default = self.parse_expr_single()
        return ast.Typeswitch(operand, cases, default_var, default)

    def _parse_seq_type(self) -> ast.SeqTypeTest:
        tok = self.next()
        if tok.type != "name":
            raise self.error("expected a sequence type", tok)
        kind = tok.value
        name = None
        if kind in _KIND_TESTS or kind in ("item", "empty-sequence"):
            self.expect_symbol("(")
            if not self.peek().is_symbol(")"):
                inner = self.next()
                if inner.type == "name":
                    name = inner.value
                elif inner.is_symbol("*"):
                    name = None
                else:
                    raise self.error("bad kind test argument", inner)
            self.expect_symbol(")")
        occurrence = ""
        if self.peek().is_symbol("?", "*", "+"):
            occurrence = self.next().value
        return ast.SeqTypeTest(kind, name, occurrence)

    # ----------------------------------------------------------- operators
    def parse_or(self) -> ast.Expr:
        expr = self.parse_and()
        while self.peek().is_name("or"):
            self.next()
            expr = ast.BoolOp("or", expr, self.parse_and())
        return expr

    def parse_and(self) -> ast.Expr:
        expr = self.parse_comparison()
        while self.peek().is_name("and"):
            self.next()
            expr = ast.BoolOp("and", expr, self.parse_comparison())
        return expr

    def parse_comparison(self) -> ast.Expr:
        expr = self.parse_range()
        tok = self.peek()
        if tok.type == "symbol" and tok.value in _GENERAL_COMP:
            op = _GENERAL_COMP[self.next().value]
            return ast.GeneralComp(op, expr, self.parse_range())
        if tok.is_symbol("<<"):
            self.next()
            return ast.NodeComp("before", expr, self.parse_range())
        if tok.is_symbol(">>"):
            self.next()
            return ast.NodeComp("after", expr, self.parse_range())
        if tok.type == "name" and tok.value in _VALUE_COMP and self._operator_follows():
            op = self.next().value
            return ast.ValueComp(op, expr, self.parse_range())
        if tok.is_name("is") and self._operator_follows():
            self.next()
            return ast.NodeComp("is", expr, self.parse_range())
        if tok.is_name("instance") and self.peek(1).is_name("of"):
            self.next(), self.next()
            return ast.InstanceOf(expr, self._parse_seq_type())
        return expr

    def _operator_follows(self) -> bool:
        """Disambiguate a name used as a binary operator from a step name:
        an operator must be followed by something that starts an operand."""
        nxt = self.peek(1)
        if nxt.type in ("integer", "decimal", "double", "string", "name"):
            return True
        return nxt.is_symbol("$", "(", "-", "+", "/", "//", ".", "@", "<")

    def parse_range(self) -> ast.Expr:
        expr = self.parse_additive()
        if self.peek().is_name("to") and self._operator_follows():
            self.next()
            return ast.RangeExpr(expr, self.parse_additive())
        return expr

    def parse_additive(self) -> ast.Expr:
        expr = self.parse_multiplicative()
        while self.peek().is_symbol("+", "-"):
            op = "add" if self.next().value == "+" else "sub"
            expr = ast.Arith(op, expr, self.parse_multiplicative())
        return expr

    def parse_multiplicative(self) -> ast.Expr:
        expr = self.parse_union()
        while True:
            tok = self.peek()
            if tok.is_symbol("*"):
                self.next()
                expr = ast.Arith("mul", expr, self.parse_union())
            elif tok.type == "name" and tok.value in ("div", "idiv", "mod") and self._operator_follows():
                op = self.next().value
                expr = ast.Arith(op, expr, self.parse_union())
            else:
                return expr

    def parse_union(self) -> ast.Expr:
        expr = self.parse_intersect_except()
        while True:
            tok = self.peek()
            if tok.is_symbol("|") or (tok.is_name("union") and self._operator_follows()):
                self.next()
                expr = ast.NodeUnion(expr, self.parse_intersect_except())
            else:
                return expr

    def parse_intersect_except(self) -> ast.Expr:
        expr = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.type == "name" and tok.value in ("intersect", "except") and self._operator_follows():
                kind = self.next().value
                expr = ast.NodeSetOp(kind, expr, self.parse_unary())
            else:
                return expr

    def parse_unary(self) -> ast.Expr:
        negate = False
        while self.peek().is_symbol("-", "+"):
            if self.next().value == "-":
                negate = not negate
        expr = self.parse_cast()
        return ast.Neg(expr) if negate else expr

    def parse_cast(self) -> ast.Expr:
        expr = self.parse_path()
        if self.peek().is_name("cast") and self.peek(1).is_name("as"):
            self.next(), self.next()
            type_name = self.expect_name().value
            self.accept_symbol("?")
            return ast.CastExpr(expr, type_name)
        return expr

    # ---------------------------------------------------------------- paths
    def parse_path(self) -> ast.Expr:
        tok = self.peek()
        if tok.is_symbol("/"):
            self.next()
            if self._starts_step():
                steps = self._parse_relative_steps()
                return ast.PathExpr(None, steps, absolute=True)
            return ast.PathExpr(None, [], absolute=True)
        if tok.is_symbol("//"):
            self.next()
            steps = [ast.Step(Axis.DESCENDANT_OR_SELF, NodeTest("node"))]
            steps.extend(self._parse_relative_steps())
            return ast.PathExpr(None, steps, absolute=True)
        if not self._starts_step():
            raise self.error(f"unexpected token {tok.value!r}", tok)
        steps = self._parse_relative_steps()
        if len(steps) == 1 and isinstance(steps[0], ast.FilterStep):
            fs = steps[0]
            if not fs.predicates:
                return fs.expr
            return ast.Filter(fs.expr, fs.predicates)
        return ast.PathExpr(None, steps, absolute=False)

    def _parse_relative_steps(self) -> list:
        steps = [self._parse_step()]
        while True:
            if self.accept_symbol("/"):
                steps.append(self._parse_step())
            elif self.accept_symbol("//"):
                steps.append(ast.Step(Axis.DESCENDANT_OR_SELF, NodeTest("node")))
                steps.append(self._parse_step())
            else:
                return steps

    def _starts_step(self) -> bool:
        tok = self.peek()
        if tok.type in ("integer", "decimal", "double", "string"):
            return True
        if tok.type == "name":
            return True
        return tok.is_symbol("$", "(", ".", "..", "@", "*", "<")

    def _looks_like_axis_step(self) -> bool:
        tok = self.peek()
        if tok.is_symbol("@", "..", "*"):
            return True
        if tok.type != "name":
            return False
        nxt = self.peek(1)
        if nxt.is_symbol("::"):
            return True
        if nxt.is_symbol("("):
            return tok.value in _KIND_TESTS  # text(), node(), element(x)...
        if tok.value in ("element", "attribute", "text") and (
            nxt.is_symbol("{")
            or (nxt.type == "name" and self.peek(2).is_symbol("{"))
        ):
            return False  # computed constructor, not a name test
        return True  # bare name: child::name element test

    def _parse_step(self):
        if self._looks_like_axis_step():
            step = self._parse_axis_step()
        else:
            step = ast.FilterStep(self._parse_primary(), [])
        step.predicates.extend(self._parse_predicates())
        return step

    def _parse_predicates(self) -> list[ast.Expr]:
        predicates: list[ast.Expr] = []
        while self.accept_symbol("["):
            predicates.append(self.parse_expr())
            self.expect_symbol("]")
        return predicates

    def _parse_axis_step(self) -> ast.Step:
        tok = self.peek()
        if tok.is_symbol(".."):
            self.next()
            return ast.Step(Axis.PARENT, NodeTest("node"))
        if tok.is_symbol("@"):
            self.next()
            return ast.Step(Axis.ATTRIBUTE, self._parse_node_test(Axis.ATTRIBUTE))
        if tok.type == "name" and self.peek(1).is_symbol("::"):
            axis_name = self.next().value
            self.next()
            axis = _AXES.get(axis_name)
            if axis is None:
                raise self.error(f"unknown axis {axis_name!r}", tok)
            return ast.Step(axis, self._parse_node_test(axis))
        return ast.Step(Axis.CHILD, self._parse_node_test(Axis.CHILD))

    def _parse_node_test(self, axis: Axis) -> NodeTest:
        principal = "attribute" if axis is Axis.ATTRIBUTE else "element"
        tok = self.next()
        if tok.is_symbol("*"):
            return NodeTest(principal, None)
        if tok.type != "name":
            raise self.error("expected a node test", tok)
        name = tok.value
        if name in _KIND_TESTS and self.peek().is_symbol("("):
            self.next()
            inner = None
            if not self.peek().is_symbol(")"):
                arg = self.next()
                if arg.type == "name":
                    inner = arg.value
                elif arg.type == "string":
                    inner = arg.value
                elif arg.is_symbol("*"):
                    inner = None
                else:
                    raise self.error("bad kind test argument", arg)
            self.expect_symbol(")")
            if name == "processing-instruction":
                return NodeTest("processing-instruction", inner)
            if name in ("element", "attribute") and inner is not None:
                return NodeTest(name, inner)
            return NodeTest(name)
        return NodeTest(principal, name)

    # -------------------------------------------------------------- primary
    def _parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.type in ("integer", "decimal", "double", "string"):
            self.next()
            return ast.Literal(tok.value)
        if tok.is_symbol("$"):
            return ast.VarRef(self.var_name())
        if tok.is_symbol("("):
            self.next()
            if self.accept_symbol(")"):
                return ast.EmptySeq()
            expr = self.parse_expr()
            self.expect_symbol(")")
            return expr
        if tok.is_symbol("."):
            self.next()
            return ast.ContextItem()
        if tok.is_symbol("<"):
            return self._parse_direct_constructor()
        if tok.type == "name":
            nxt = self.peek(1)
            if tok.value in ("element", "attribute", "text") and (
                nxt.is_symbol("{") or (nxt.type == "name" and self.peek(2).is_symbol("{"))
            ):
                return self._parse_computed_constructor()
            if nxt.is_symbol("(") and tok.value not in _RESERVED_FN:
                return self._parse_function_call()
        raise self.error(f"unexpected token {tok.value!r}", tok)

    def _parse_function_call(self) -> ast.FunctionCall:
        name = self.next().value
        self.expect_symbol("(")
        args: list[ast.Expr] = []
        if not self.peek().is_symbol(")"):
            while True:
                args.append(self.parse_expr_single())
                if not self.accept_symbol(","):
                    break
        self.expect_symbol(")")
        return ast.FunctionCall(name, args)

    def _parse_computed_constructor(self) -> ast.Expr:
        kind = self.next().value
        name_expr: ast.Expr | None = None
        if self.peek().type == "name":
            name_expr = ast.Literal(self.next().value)
        else:
            self.expect_symbol("{")
            name_expr = self.parse_expr()
            self.expect_symbol("}")
        if kind == "text":
            # 'text { expr }' — the name slot *was* the content for text
            return ast.CompText(name_expr)
        self.expect_symbol("{")
        content: ast.Expr = ast.EmptySeq()
        if not self.peek().is_symbol("}"):
            content = self.parse_expr()
        self.expect_symbol("}")
        if kind == "element":
            return ast.CompElement(name_expr, content)
        return ast.CompAttribute(name_expr, content)

    # ------------------------------------------------- direct constructors
    def _parse_direct_constructor(self) -> ast.DirectElement:
        lt = self.expect_symbol("<")
        text = self.lexer.raw()
        pos = lt.pos + 1
        elem, pos = self._parse_direct_element(text, pos)
        self.lexer.set_pos(pos)
        return elem

    def _dc_error(self, message: str, pos: int) -> XQuerySyntaxError:
        line, col = self.lexer.line_col(pos)
        return XQuerySyntaxError(message, line, col)

    def _read_xml_name(self, text: str, pos: int) -> tuple[str, int]:
        start = pos
        n = len(text)
        if pos >= n or not (text[pos].isalpha() or text[pos] in "_"):
            raise self._dc_error("expected an XML name", pos)
        while pos < n and (text[pos].isalnum() or text[pos] in "-._:"):
            pos += 1
        return text[start:pos], pos

    def _skip_xml_ws(self, text: str, pos: int) -> int:
        n = len(text)
        while pos < n and text[pos] in " \t\r\n":
            pos += 1
        return pos

    def _parse_direct_element(self, text: str, pos: int) -> tuple[ast.DirectElement, int]:
        name, pos = self._read_xml_name(text, pos)
        attributes: list[tuple[str, list]] = []
        n = len(text)
        while True:
            pos = self._skip_xml_ws(text, pos)
            if pos >= n:
                raise self._dc_error("unterminated start tag", pos)
            if text.startswith("/>", pos):
                return ast.DirectElement(name, attributes, []), pos + 2
            if text[pos] == ">":
                pos += 1
                break
            aname, pos = self._read_xml_name(text, pos)
            pos = self._skip_xml_ws(text, pos)
            if pos >= n or text[pos] != "=":
                raise self._dc_error("expected '=' in attribute", pos)
            pos = self._skip_xml_ws(text, pos + 1)
            parts, pos = self._parse_avt(text, pos)
            attributes.append((aname, parts))
        content, pos = self._parse_direct_content(text, pos, name)
        return ast.DirectElement(name, attributes, content), pos

    def _parse_avt(self, text: str, pos: int) -> tuple[list, int]:
        """Attribute value template: string with embedded ``{expr}``."""
        n = len(text)
        if pos >= n or text[pos] not in "'\"":
            raise self._dc_error("attribute value must be quoted", pos)
        quote = text[pos]
        pos += 1
        parts: list = []
        buf: list[str] = []
        while True:
            if pos >= n:
                raise self._dc_error("unterminated attribute value", pos)
            ch = text[pos]
            if ch == quote:
                if text.startswith(quote * 2, pos):
                    buf.append(quote)
                    pos += 2
                    continue
                break
            if ch == "{":
                if text.startswith("{{", pos):
                    buf.append("{")
                    pos += 2
                    continue
                if buf:
                    parts.append(resolve_entities("".join(buf)))
                    buf = []
                expr, pos = self._parse_enclosed(pos)
                parts.append(expr)
                continue
            if ch == "}":
                if text.startswith("}}", pos):
                    buf.append("}")
                    pos += 2
                    continue
                raise self._dc_error("unescaped '}' in attribute value", pos)
            buf.append(ch)
            pos += 1
        if buf:
            parts.append(resolve_entities("".join(buf)))
        return parts, pos + 1

    def _parse_enclosed(self, brace_pos: int) -> tuple[ast.Expr, int]:
        """Parse ``{ Expr }`` in token mode starting at the ``{``."""
        self.lexer.set_pos(brace_pos)
        self.expect_symbol("{")
        if self.peek().is_symbol("}"):
            close = self.next()
            return ast.EmptySeq(), close.pos + 1
        expr = self.parse_expr()
        close = self.expect_symbol("}")
        return expr, close.pos + 1

    def _parse_direct_content(
        self, text: str, pos: int, name: str
    ) -> tuple[list, int]:
        n = len(text)
        content: list = []
        buf: list[str] = []

        def flush(boundary: bool) -> None:
            if not buf:
                return
            raw = "".join(buf)
            buf.clear()
            # boundary whitespace (whitespace-only char data) is discarded
            if raw.strip() == "":
                return
            content.append(resolve_entities(raw))

        while True:
            if pos >= n:
                raise self._dc_error(f"unterminated element <{name}>", pos)
            ch = text[pos]
            if ch == "<":
                if text.startswith("</", pos):
                    flush(True)
                    pos += 2
                    end_name, pos = self._read_xml_name(text, pos)
                    if end_name != name:
                        raise self._dc_error(
                            f"mismatched end tag </{end_name}> for <{name}>", pos
                        )
                    pos = self._skip_xml_ws(text, pos)
                    if pos >= n or text[pos] != ">":
                        raise self._dc_error("expected '>'", pos)
                    return content, pos + 1
                if text.startswith("<!--", pos):
                    flush(True)
                    end = text.find("-->", pos + 4)
                    if end < 0:
                        raise self._dc_error("unterminated comment", pos)
                    pos = end + 3
                    continue
                if text.startswith("<![CDATA[", pos):
                    end = text.find("]]>", pos + 9)
                    if end < 0:
                        raise self._dc_error("unterminated CDATA", pos)
                    buf.append(text[pos + 9 : end])
                    pos = end + 3
                    continue
                flush(True)
                child, pos = self._parse_direct_element(text, pos + 1)
                content.append(child)
                continue
            if ch == "{":
                if text.startswith("{{", pos):
                    buf.append("{")
                    pos += 2
                    continue
                flush(True)
                expr, pos = self._parse_enclosed(pos)
                content.append(expr)
                continue
            if ch == "}":
                if text.startswith("}}", pos):
                    buf.append("}")
                    pos += 2
                    continue
                raise self._dc_error("unescaped '}' in element content", pos)
            buf.append(ch)
            pos += 1
