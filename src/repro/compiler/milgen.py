"""MIL code generation: plans as MonetDB Interpreter Language programs.

The paper's demonstrator works "in a front-end/back-end fashion: the
Pathfinder compiler parses incoming XQuery expressions and translates
them into a relational algebra expression tree, represented in terms of a
MIL program.  The code is shipped to a MonetDB server" (Section 4).

This module reproduces that artifact: it renders an algebra plan as a
MIL program over BATs (binary association tables) using MonetDB's classic
vocabulary — ``select``, ``join``, ``mark`` (the no-cost row numbering the
paper highlights), ``reverse``/``mirror``, ``kunion``/``kdiff``,
``group``/``sum`` — one BAT variable per (operator, column).  There is no
MonetDB server to ship it to anymore (the numpy evaluator plays that
role), so the program is a faithful textual artifact for the demo hooks,
not an executable: think of it as the modern equivalent of the
demonstrator's "look under the hood" pane.
"""

from __future__ import annotations

from repro.relational import algebra as alg
from repro.relational.kernels import FLIPPED


def to_mil(plan: alg.Op, query: str | None = None) -> str:
    """Render a plan DAG as a MIL program listing."""
    gen = _MilGen()
    return gen.generate(plan, query)


class _MilGen:
    def __init__(self):
        self.lines: list[str] = []
        self.names: dict[int, str] = {}

    def var(self, node: alg.Op, col: str) -> str:
        return f"{self.names[id(node)]}_{col}".replace("%", "_")

    def generate(self, plan: alg.Op, query: str | None) -> str:
        self.lines.append("# MIL program generated by Pathfinder (repro)")
        if query:
            for line in query.strip().splitlines():
                self.lines.append(f"# XQuery: {line.strip()}")
        self.lines.append("")
        for i, node in enumerate(alg.walk(plan)):
            self.names[id(node)] = f"t{i:03d}"
            self._emit(node)
        final = self.names[id(plan)]
        cols = ", ".join(self.var(plan, c) for c in plan.columns)
        self.lines.append("")
        self.lines.append(f"# serialize the result encoding ({final})")
        self.lines.append(f"serialize({cols});")
        return "\n".join(self.lines)

    def _decl(self, node: alg.Op, col: str, expr: str) -> None:
        self.lines.append(f"var {self.var(node, col)} := {expr};")

    def _emit(self, node: alg.Op) -> None:
        self.lines.append(f"# {self.names[id(node)]}: {node.label()}")
        handler = getattr(self, "_m_" + type(node).__name__, None)
        if handler is None:
            self._generic(node)
        else:
            handler(node)
        self.lines.append("")

    def _cols(self, node: alg.Op) -> tuple[str, ...]:
        return node.columns

    # ---------------------------------------------------------- operators
    def _m_Lit(self, node: alg.Lit) -> None:
        for i, col in enumerate(node.schema):
            kind = "oid" if col in ("iter", "pos") else "int"
            self._decl(node, col, f"bat(void, {kind})")
            for row in node.rows:
                self.lines.append(
                    f"{self.var(node, col)}.append({_mil_lit(row[i])});"
                )

    def _m_Project(self, node: alg.Project) -> None:
        child = node.child
        for new, old in node.cols:
            self._decl(node, new, self.var(child, old))

    def _m_Select(self, node: alg.Select) -> None:
        child = node.child
        lhs = _mil_operand(self, child, node.lhs)
        rhs = _mil_operand(self, child, node.rhs)
        self.lines.append(
            f"var {self.names[id(node)]}_oids := "
            f"{lhs}.[{_MIL_CMP[node.op]}]({rhs}).select(true).mirror();"
        )
        for col in self._cols(node):
            self._decl(
                node, col, f"{self.names[id(node)]}_oids.leftfetchjoin({self.var(child, col)})"
            )

    def _m_Union(self, node: alg.Union) -> None:
        for col in self._cols(node):
            parts = [self.var(c, col) for c in node.inputs]
            expr = parts[0]
            for p in parts[1:]:
                expr = f"{expr}.kunion({p})"
            self._decl(node, col, expr)

    def _m_Difference(self, node: alg.Difference) -> None:
        self.lines.append(
            f"var {self.names[id(node)]}_keep := "
            f"{self.var(node.left, node.keys[0])}.kdiff("
            f"{self.var(node.right, node.keys[0])}).mirror();"
        )
        for col in self._cols(node):
            self._decl(
                node,
                col,
                f"{self.names[id(node)]}_keep.leftfetchjoin({self.var(node.left, col)})",
            )

    def _m_Distinct(self, node: alg.Distinct) -> None:
        head = self.var(node.child, node.keys[0])
        self.lines.append(
            f"var {self.names[id(node)]}_uniq := {head}.kunique().mirror();"
        )
        for col in self._cols(node):
            self._decl(
                node,
                col,
                f"{self.names[id(node)]}_uniq.leftfetchjoin({self.var(node.child, col)})",
            )

    def _m_Join(self, node: alg.Join) -> None:
        lk, rk = node.keys[0]
        self.lines.append(
            f"var {self.names[id(node)]}_matches := "
            f"{self.var(node.left, lk)}.reverse().join("
            f"{self.var(node.right, rk)}.reverse().reverse());"
        )
        for col in node.left.columns:
            self._decl(
                node,
                col,
                f"{self.names[id(node)]}_matches.mark(0@0).reverse()"
                f".leftfetchjoin({self.var(node.left, col)})",
            )
        for col in node.right.columns:
            self._decl(
                node,
                col,
                f"{self.names[id(node)]}_matches.reverse().mark(0@0).reverse()"
                f".leftfetchjoin({self.var(node.right, col)})",
            )

    def _m_ThetaJoin(self, node: alg.ThetaJoin) -> None:
        lhs, rhs, op = node.lhs, node.rhs, node.op
        if lhs not in node.left.columns:
            lhs, rhs, op = rhs, lhs, FLIPPED[op]
        keys = "".join(
            f", {self.var(node.left, l)}, {self.var(node.right, r)}" for l, r in node.keys
        )
        self.lines.append(
            f"var {self.names[id(node)]}_matches := thetajoin("
            f"{self.var(node.left, lhs)}, {self.var(node.right, rhs)}, "
            f'"{_MIL_CMP[op]}"{keys});'
        )
        for side, head in ((node.left, ""), (node.right, ".reverse()")):
            for col in side.columns:
                self._decl(
                    node,
                    col,
                    f"{self.names[id(node)]}_matches{head}.mark(0@0).reverse()"
                    f".leftfetchjoin({self.var(side, col)})",
                )

    def _m_SemiJoin(self, node: alg.SemiJoin) -> None:
        lk, rk = node.keys[0]
        self.lines.append(
            f"var {self.names[id(node)]}_keep := "
            f"{self.var(node.left, lk)}.semijoin({self.var(node.right, rk)}).mirror();"
        )
        for col in self._cols(node):
            self._decl(
                node,
                col,
                f"{self.names[id(node)]}_keep.leftfetchjoin({self.var(node.left, col)})",
            )

    def _m_Cross(self, node: alg.Cross) -> None:
        self.lines.append(
            f"var {self.names[id(node)]}_pairs := "
            f"{self.var(node.left, node.left.columns[0])}"
            f".cross({self.var(node.right, node.right.columns[0])});"
        )
        for col in self._cols(node):
            self._decl(node, col, f"{self.names[id(node)]}_pairs.project({col})")

    def _m_RowNum(self, node: alg.RowNum) -> None:
        child = node.child
        order = ", ".join(c for c, _ in node.order)
        sorted_var = f"{self.names[id(node)]}_sorted"
        self.lines.append(
            f"var {sorted_var} := {self.var(child, node.order[0][0])}"
            f".sort();  # order: ({order})"
            + (f" grouped by {node.group}" if node.group else "")
        )
        # the paper: "virtual object identifiers ... make the row-numbering
        # operator a no-cost operator" — mark() assigns dense oids
        self._decl(node, node.target, f"{sorted_var}.mark(1@0).reverse()")
        for col in self._cols(node):
            if col != node.target:
                self._decl(node, col, self.var(child, col))

    def _m_Map(self, node: alg.Map) -> None:
        args = ", ".join(_mil_operand(self, node.child, a) for a in node.args)
        self._decl(node, node.target, f"[{node.fn}]({args})")
        for col in self._cols(node):
            if col != node.target:
                self._decl(node, col, self.var(node.child, col))

    def _m_Aggr(self, node: alg.Aggr) -> None:
        child = node.child
        if node.group:
            self.lines.append(
                f"var {self.names[id(node)]}_groups := "
                f"{self.var(child, node.group)}.group();"
            )
            src = self.var(child, node.arg) if node.arg else f"{self.names[id(node)]}_groups"
            self._decl(node, node.group, f"{self.names[id(node)]}_groups.kunique()")
            self._decl(
                node,
                node.target,
                f"{{{node.kind}}}({src}, {self.names[id(node)]}_groups)",
            )
        else:
            src = (
                self.var(child, node.arg)
                if node.arg
                else self.var(child, self._cols(child)[0])
            )
            self._decl(node, node.target, f"{node.kind}({src})")

    def _m_StepJoin(self, node: alg.StepJoin) -> None:
        # the paper's kernel extension: the staircase join
        self.lines.append(
            f"var {self.names[id(node)]}_step := staircasejoin("
            f"{self.var(node.child, node.item_col)}, doc_pre_size_level, "
            f'"{node.axis.value}", "{node.test}");'
        )
        self._decl(node, node.iter_col, f"{self.names[id(node)]}_step.reverse().mark(0@0)")
        self._decl(node, node.item_col, f"{self.names[id(node)]}_step")

    def _m_Atomize(self, node: alg.Atomize) -> None:
        self._decl(
            node,
            node.target,
            f"{self.var(node.child, node.arg)}.leftfetchjoin(doc_strval)",
        )
        for col in self._cols(node):
            if col != node.target:
                self._decl(node, col, self.var(node.child, col))

    def _m_DocRoot(self, node: alg.DocRoot) -> None:
        self._decl(node, "iter", "bat(void, oid).append(1@0)")
        self._decl(node, "pos", "bat(void, oid).append(1@0)")
        self._decl(node, "item", f'doc_roots.find("{node.uri}")')

    def _generic(self, node: alg.Op) -> None:
        op = type(node).__name__.lower()
        args = ", ".join(self.names[id(c)] for c in node.children)
        for col in self._cols(node):
            self._decl(node, col, f"{op}({args}).{col}")


_MIL_CMP = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def _mil_lit(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value.replace('"', '\\"') + '"'
    return str(value)


def _mil_operand(gen: _MilGen, child: alg.Op, operand) -> str:
    tag, v = operand
    if tag == "const":
        return _mil_lit(v)
    return gen.var(child, v)
