"""MIL code generation: plans as MonetDB Interpreter Language programs.

The paper's demonstrator works "in a front-end/back-end fashion: the
Pathfinder compiler parses incoming XQuery expressions and translates
them into a relational algebra expression tree, represented in terms of a
MIL program.  The code is shipped to a MonetDB server" (Section 4).

This module reproduces that artifact: it renders an algebra plan as a
MIL program over BATs (binary association tables) using MonetDB's classic
vocabulary — ``select``, ``join``, ``mark`` (the no-cost row numbering the
paper highlights), ``reverse``/``mirror``, ``kunion``/``kdiff``,
``group``/``sum`` — one BAT variable per (operator, column).  The listing
follows the plan's :class:`~repro.relational.algebra.Schedule`, the same
straight-line program the evaluator runs: variables are named by
schedule slot (``t007_item``), and a ``# free`` comment after each step
names the slots whose last consumer it was.  There is no
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


def _slot(i: int) -> str:
    return f"t{i:03d}"


class _MilGen:
    def __init__(self):
        self.lines: list[str] = []
        self.name = ""  # the current step's slot
        self.args: list[str] = []  # the slots of its inputs

    def out(self, col: str) -> str:
        return f"{self.name}_{col}".replace("%", "_")

    def arg(self, k: int, col: str) -> str:
        return f"{self.args[k]}_{col}".replace("%", "_")

    def generate(self, plan: alg.Op, query: str | None) -> str:
        self.lines.append("# MIL program generated by Pathfinder (repro)")
        if query:
            for line in query.strip().splitlines():
                self.lines.append(f"# XQuery: {line.strip()}")
        self.lines.append("")
        for step, (node, inputs, releases) in enumerate(plan.schedule.steps(plan)):
            self.name, self.args = _slot(step), [_slot(i) for i in inputs]
            self._emit(node)
            if releases:
                self.lines.append(f"# free {', '.join(map(_slot, releases))}")
            self.lines.append("")
        cols = ", ".join(self.out(c) for c in plan.columns)
        self.lines.append(f"# serialize the result encoding ({self.name})")
        self.lines.append(f"serialize({cols});")
        return "\n".join(self.lines)

    def _decl(self, col: str, expr: str) -> None:
        self.lines.append(f"var {self.out(col)} := {expr};")

    def _emit(self, node: alg.Op) -> None:
        self.lines.append(f"# {self.name}: {node.label()}")
        handler = getattr(self, "_m_" + type(node).__name__, None)
        if handler is None:
            self._generic(node)
        else:
            handler(node)

    # ---------------------------------------------------------- operators
    def _m_Lit(self, node: alg.Lit) -> None:
        for i, col in enumerate(node.schema):
            kind = "oid" if col in ("iter", "pos") else "int"
            self._decl(col, f"bat(void, {kind})")
            for row in node.rows:
                self.lines.append(f"{self.out(col)}.append({_mil_lit(row[i])});")

    def _m_Project(self, node: alg.Project) -> None:
        for new, old in node.cols:
            self._decl(new, self.arg(0, old))

    def _m_Select(self, node: alg.Select) -> None:
        lhs = _mil_operand(self, node.lhs)
        rhs = _mil_operand(self, node.rhs)
        self.lines.append(
            f"var {self.name}_oids := "
            f"{lhs}.[{_MIL_CMP[node.op]}]({rhs}).select(true).mirror();"
        )
        for col in node.columns:
            self._decl(col, f"{self.name}_oids.leftfetchjoin({self.arg(0, col)})")

    def _m_Union(self, node: alg.Union) -> None:
        for col in node.columns:
            parts = [self.arg(k, col) for k in range(len(self.args))]
            expr = parts[0]
            for p in parts[1:]:
                expr = f"{expr}.kunion({p})"
            self._decl(col, expr)

    def _m_Difference(self, node: alg.Difference) -> None:
        self.lines.append(
            f"var {self.name}_keep := "
            f"{self.arg(0, node.keys[0])}.kdiff("
            f"{self.arg(1, node.keys[0])}).mirror();"
        )
        for col in node.columns:
            self._decl(col, f"{self.name}_keep.leftfetchjoin({self.arg(0, col)})")

    def _m_Distinct(self, node: alg.Distinct) -> None:
        head = self.arg(0, node.keys[0])
        self.lines.append(f"var {self.name}_uniq := {head}.kunique().mirror();")
        for col in node.columns:
            self._decl(col, f"{self.name}_uniq.leftfetchjoin({self.arg(0, col)})")

    def _m_Join(self, node: alg.Join) -> None:
        lk, rk = node.keys[0]
        self.lines.append(
            f"var {self.name}_matches := "
            f"{self.arg(0, lk)}.reverse().join("
            f"{self.arg(1, rk)}.reverse().reverse());"
        )
        for col in node.left.columns:
            self._decl(
                col,
                f"{self.name}_matches.mark(0@0).reverse()"
                f".leftfetchjoin({self.arg(0, col)})",
            )
        for col in node.right.columns:
            self._decl(
                col,
                f"{self.name}_matches.reverse().mark(0@0).reverse()"
                f".leftfetchjoin({self.arg(1, col)})",
            )

    def _m_ThetaJoin(self, node: alg.ThetaJoin) -> None:
        lhs, rhs, op = node.lhs, node.rhs, node.op
        if lhs not in node.left.columns:
            lhs, rhs, op = rhs, lhs, FLIPPED[op]
        keys = "".join(f", {self.arg(0, l)}, {self.arg(1, r)}" for l, r in node.keys)
        self.lines.append(
            f"var {self.name}_matches := thetajoin("
            f"{self.arg(0, lhs)}, {self.arg(1, rhs)}, "
            f'"{_MIL_CMP[op]}"{keys});'
        )
        for k, (side, head) in enumerate(((node.left, ""), (node.right, ".reverse()"))):
            for col in side.columns:
                self._decl(
                    col,
                    f"{self.name}_matches{head}.mark(0@0).reverse()"
                    f".leftfetchjoin({self.arg(k, col)})",
                )

    def _m_SemiJoin(self, node: alg.SemiJoin) -> None:
        lk, rk = node.keys[0]
        self.lines.append(
            f"var {self.name}_keep := "
            f"{self.arg(0, lk)}.semijoin({self.arg(1, rk)}).mirror();"
        )
        for col in node.columns:
            self._decl(col, f"{self.name}_keep.leftfetchjoin({self.arg(0, col)})")

    def _m_Cross(self, node: alg.Cross) -> None:
        self.lines.append(
            f"var {self.name}_pairs := "
            f"{self.arg(0, node.left.columns[0])}"
            f".cross({self.arg(1, node.right.columns[0])});"
        )
        for col in node.columns:
            self._decl(col, f"{self.name}_pairs.project({col})")

    def _m_RowNum(self, node: alg.RowNum) -> None:
        order = ", ".join(c for c, _ in node.order)
        sorted_var = f"{self.name}_sorted"
        self.lines.append(
            f"var {sorted_var} := {self.arg(0, node.order[0][0])}"
            f".sort();  # order: ({order})"
            + (f" grouped by {node.group}" if node.group else "")
        )
        # the paper: "virtual object identifiers ... make the row-numbering
        # operator a no-cost operator" — mark() assigns dense oids
        self._decl(node.target, f"{sorted_var}.mark(1@0).reverse()")
        for col in node.columns:
            if col != node.target:
                self._decl(col, self.arg(0, col))

    def _m_Map(self, node: alg.Map) -> None:
        args = ", ".join(_mil_operand(self, a) for a in node.args)
        self._decl(node.target, f"[{node.fn}]({args})")
        for col in node.columns:
            if col != node.target:
                self._decl(col, self.arg(0, col))

    def _m_Aggr(self, node: alg.Aggr) -> None:
        if node.group:
            self.lines.append(
                f"var {self.name}_groups := "
                f"{self.arg(0, node.group)}.group();"
            )
            src = self.arg(0, node.arg) if node.arg else f"{self.name}_groups"
            self._decl(node.group, f"{self.name}_groups.kunique()")
            self._decl(node.target, f"{{{node.kind}}}({src}, {self.name}_groups)")
        else:
            src = self.arg(0, node.arg or node.child.columns[0])
            self._decl(node.target, f"{node.kind}({src})")

    def _m_StepJoin(self, node: alg.StepJoin) -> None:
        # the paper's kernel extension: the staircase join
        self.lines.append(
            f"var {self.name}_step := staircasejoin("
            f"{self.arg(0, node.item_col)}, doc_pre_size_level, "
            f'"{node.axis.value}", "{node.test}");'
        )
        self._decl(node.iter_col, f"{self.name}_step.reverse().mark(0@0)")
        self._decl(node.item_col, f"{self.name}_step")

    def _m_Atomize(self, node: alg.Atomize) -> None:
        self._decl(node.target, f"{self.arg(0, node.arg)}.leftfetchjoin(doc_strval)")
        for col in node.columns:
            if col != node.target:
                self._decl(col, self.arg(0, col))

    def _m_DocRoot(self, node: alg.DocRoot) -> None:
        self._decl("iter", "bat(void, oid).append(1@0)")
        self._decl("pos", "bat(void, oid).append(1@0)")
        self._decl("item", f'doc_roots.find("{node.uri}")')

    def _generic(self, node: alg.Op) -> None:
        op = type(node).__name__.lower()
        args = ", ".join(self.args)
        for col in node.columns:
            self._decl(col, f"{op}({args}).{col}")


_MIL_CMP = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def _mil_lit(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value.replace('"', '\\"') + '"'
    return str(value)


def _mil_operand(gen: _MilGen, operand) -> str:
    tag, v = operand
    if tag == "const":
        return _mil_lit(v)
    return gen.arg(0, v)
