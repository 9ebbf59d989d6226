"""Algebra-to-SQL translation: one CTE per operator.

Every algebra operator becomes a common table expression; DAG-shared
subplans share one CTE (the SQL engine's CTE materialisation plays the
role of the numpy evaluator's memoisation).  Polymorphic item columns
travel as four physical columns::

    <c>_k  INTEGER   -- item kind (repro.relational.items constants)
    <c>_i  INTEGER   -- payload for int/bool/node/attribute items
    <c>_d  REAL      -- payload for doubles (NULL encodes NaN)
    <c>_s  TEXT      -- payload for strings/untypedAtomic

with unused slots NULL, so null-safe (`IS`) equality over the quadruple is
item equality.  Row numbering is ``ROW_NUMBER() OVER`` (the SQL:1999
rendering of MonetDB's ``mark``), ranges are recursive CTEs, and axis
steps are the region self-joins of the XPath Accelerator — deliberately
*without* staircase pruning, because that is exactly what a stock SQL
host cannot do (paper Section 2).
"""

from __future__ import annotations

from repro.errors import NotSupportedError
from repro.encoding.arena import NK_COMMENT, NK_DOC, NK_ELEM, NK_PI, NK_TEXT
from repro.encoding.axes import Axis
from repro.relational import algebra as alg
from repro.relational.items import (
    K_ATTR,
    K_BOOL,
    K_DBL,
    K_DEC,
    K_INT,
    K_NODE,
    K_QNAME,
    K_STR,
    K_UNTYPED,
)
from repro.relational.items import XSDecimal

_NUMERICISH = f"({K_INT}, {K_DBL}, {K_DEC}, {K_BOOL})"
_POOLEDISH = f"({K_STR}, {K_UNTYPED})"
#: fn:distinct-values equality classes (mirrors the numpy atom_cls kernel)
_DV_NUMERIC_SQL = f"({K_INT}, {K_DBL}, {K_DEC})"
_DV_STRING_SQL = f"({K_STR}, {K_UNTYPED}, {K_QNAME})"
#: exact numerics (division by zero is err:FOAR0001, not INF)
_EXACT_SQL = f"({K_INT}, {K_DEC})"
#: string kinds in aggregates (fn:min/max string semantics, FORG0006)
_AGG_STRING_SQL = f"({K_STR}, {K_QNAME})"

#: sentinel item kinds the backend decoder turns into dynamic errors —
#: SQL cannot raise, so type violations travel as impossible kind codes
ERR_KIND_FORG0006 = -1
ERR_KIND_FOAR0001 = -2

_KIND_TEST_SQL = {
    "element": NK_ELEM,
    "text": NK_TEXT,
    "comment": NK_COMMENT,
    "processing-instruction": NK_PI,
    "document-node": NK_DOC,
}


def q(name: str) -> str:
    """Quote an identifier (fresh names contain '%')."""
    return '"' + name.replace('"', '""') + '"'


def _lit_sql(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


class ItemRef:
    """SQL expressions for one item column of one table alias."""

    def __init__(self, alias: str, col: str):
        p = f"{alias}." if alias else ""
        self.k = f"{p}{q(col + '_k')}"
        self.i = f"{p}{q(col + '_i')}"
        self.d = f"{p}{q(col + '_d')}"
        self.s = f"{p}{q(col + '_s')}"

    def quad(self) -> tuple[str, str, str, str]:
        """The four physical expressions as one (k, i, d, s) tuple."""
        return (self.k, self.i, self.d, self.s)


class ConstItem:
    """A literal item as SQL expressions."""

    def __init__(self, value):
        if isinstance(value, bool):
            self.k, self.i, self.d, self.s = str(K_BOOL), str(int(value)), "NULL", "NULL"
        elif isinstance(value, int):
            self.k, self.i, self.d, self.s = str(K_INT), str(value), "NULL", "NULL"
        elif isinstance(value, XSDecimal):
            self.k, self.i, self.d, self.s = str(K_DEC), "NULL", repr(float(value)), "NULL"
        elif isinstance(value, float):
            if value != value:  # NaN travels as NULL
                d = "NULL"
            elif value == float("inf"):
                d = "9e999"
            elif value == float("-inf"):
                d = "-9e999"
            else:
                d = repr(value)
            self.k, self.i, self.d, self.s = str(K_DBL), "NULL", d, "NULL"
        elif isinstance(value, str):
            self.k, self.i, self.d, self.s = str(K_STR), "NULL", "NULL", _lit_sql(value)
        else:
            raise NotSupportedError(f"cannot embed {type(value).__name__} in SQL")

    def quad(self):
        """The four physical expressions as one (k, i, d, s) tuple."""
        return (self.k, self.i, self.d, self.s)


def dbl(x) -> str:
    """The item cast to REAL (NULL = NaN)."""
    return (
        f"(CASE WHEN {x.k} IN ({K_INT}, {K_BOOL}) THEN CAST({x.i} AS REAL) "
        f"WHEN {x.k} IN ({K_DBL}, {K_DEC}) THEN {x.d} "
        f"WHEN {x.k} IN {_POOLEDISH} THEN xq_double({x.s}) "
        f"ELSE NULL END)"
    )


def txt(x) -> str:
    """The item's lexical form as TEXT."""
    return (
        f"(CASE WHEN {x.k} IN {_POOLEDISH} THEN {x.s} "
        f"WHEN {x.k} = {K_INT} THEN CAST({x.i} AS TEXT) "
        f"WHEN {x.k} = {K_BOOL} THEN (CASE WHEN {x.i} = 1 THEN 'true' ELSE 'false' END) "
        f"WHEN {x.k} IN ({K_DBL}, {K_DEC}) THEN xq_fmt_double({x.d}) "
        f"ELSE NULL END)"
    )


_SQL_CMP = {"eq": "=", "ne": "<>", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def compare(op: str, a, b) -> str:
    """General-comparison semantics as a SQL boolean expression."""
    sql_op = _SQL_CMP[op]
    numeric = f"({a.k} IN {_NUMERICISH} OR {b.k} IN {_NUMERICISH})"
    return (
        f"COALESCE(CASE WHEN {numeric} THEN {dbl(a)} {sql_op} {dbl(b)} "
        f"ELSE {txt(a)} {sql_op} {txt(b)} END, 0)"
    )


def ebv(x) -> str:
    """SQL for the effective boolean value of one item quad."""
    return (
        f"(CASE WHEN {x.k} IN ({K_NODE}, {K_ATTR}) THEN 1 "
        f"WHEN {x.k} IN ({K_DBL}, {K_DEC}) THEN COALESCE({x.d} <> 0.0, 0) "
        f"WHEN {x.k} IN ({K_INT}, {K_BOOL}) THEN {x.i} <> 0 "
        f"ELSE LENGTH(COALESCE({x.s}, '')) > 0 END)"
    )


def _bool_quad(expr: str):
    class _Q:
        k, i, d, s = str(K_BOOL), f"({expr})", "NULL", "NULL"

        def quad(self):
            return (self.k, self.i, self.d, self.s)

    return _Q()


def _int_quad(expr: str):
    class _Q:
        k, i, d, s = str(K_INT), f"({expr})", "NULL", "NULL"

        def quad(self):
            return (self.k, self.i, self.d, self.s)

    return _Q()


def _str_quad(expr: str):
    class _Q:
        k, i, d, s = str(K_STR), "NULL", "NULL", f"({expr})"

        def quad(self):
            return (self.k, self.i, self.d, self.s)

    return _Q()


def order_exprs(x, descending: bool) -> list[str]:
    """ORDER BY keys for an item column (class, numeric, text)."""
    cls = (
        f"(CASE WHEN {x.k} IN {_NUMERICISH} THEN 1 "
        f"WHEN {x.k} IN {_POOLEDISH} THEN 2 ELSE 3 END)"
    )
    num = f"(CASE WHEN {x.k} IN ({K_NODE}, {K_ATTR}) THEN CAST({x.i} AS REAL) ELSE COALESCE({dbl(x)}, -9e999) END)"
    suffix = " DESC" if descending else ""
    return [cls + suffix, num + suffix, txt(x) + suffix]


class SQLGenerator:
    """Translates one algebra plan into a single WITH-query."""

    def __init__(self, documents: dict[str, int]):
        self.documents = documents
        self.ctes: list[tuple[str, str]] = []
        self.names: dict[int, str] = {}

    # ------------------------------------------------------------- helpers
    def schema(self, op: alg.Op) -> tuple[str, ...]:
        """Logical column names of an op's output."""
        return op.columns

    def item_cols(self, op: alg.Op) -> frozenset:
        """The subset of an op's columns that are polymorphic items."""
        return op.item_columns

    def phys_cols(self, op: alg.Op) -> list[str]:
        """Physical SQL column names of an op's output."""
        out = []
        items = self.item_cols(op)
        for c in self.schema(op):
            if c in items:
                out += [f"{c}_k", f"{c}_i", f"{c}_d", f"{c}_s"]
            else:
                out.append(c)
        return out

    def select_all(self, op: alg.Op, alias: str) -> str:
        """A SELECT list forwarding every physical column of ``op``."""
        return ", ".join(f"{alias}.{q(c)} AS {q(c)}" for c in self.phys_cols(op))

    def _emit(self, node: alg.Op, body: str) -> str:
        name = f"t{len(self.ctes)}"
        self.ctes.append((name, body))
        self.names[id(node)] = name
        return name

    def _operand(self, node_child: alg.Op, operand, alias: str):
        tag, v = operand
        if tag == "const":
            if isinstance(v, int) and not isinstance(v, bool):
                return ("num", str(v))
            return ("item", ConstItem(v))
        if v in self.item_cols(node_child):
            return ("item", ItemRef(alias, v))
        return ("num", f"{alias}.{q(v)}")

    def _cmp_sql(self, op, lhs, rhs) -> str:
        lt, lv = lhs
        rt, rv = rhs
        if lt == "num" and rt == "num":
            return f"({lv} {_SQL_CMP[op]} {rv})"
        a = lv if lt == "item" else _int_quad(lv)
        b = rv if rt == "item" else _int_quad(rv)
        return compare(op, a, b)

    # ---------------------------------------------------------------- main
    def generate(self, plan: alg.Op) -> str:
        """Translate a whole plan DAG into one WITH-chained SQL query."""
        for node in alg.walk(plan):
            if id(node) in self.names:
                continue
            handler = getattr(self, "_g_" + type(node).__name__, None)
            if handler is None:
                raise NotSupportedError(
                    f"the SQL host cannot evaluate {type(node).__name__} "
                    "(node construction and the band θ-join happen outside SQL)"
                )
            handler(node)
        final = self.names[id(plan)]
        with_clause = ",\n".join(f"{name} AS (\n{body}\n)" for name, body in self.ctes)
        cols = ", ".join(q(c) for c in self.phys_cols(plan))
        return f"WITH RECURSIVE\n{with_clause}\nSELECT {cols} FROM {final}"

    # ------------------------------------------------------------ operators
    def _g_Lit(self, node: alg.Lit):
        items = node.item_cols
        col_exprs = []
        if not node.rows:
            for c in node.schema:
                if c in items:
                    col_exprs += [
                        f"0 AS {q(c + '_k')}", f"0 AS {q(c + '_i')}",
                        f"NULL AS {q(c + '_d')}", f"NULL AS {q(c + '_s')}",
                    ]
                else:
                    col_exprs.append(f"0 AS {q(c)}")
            self._emit(node, f"SELECT {', '.join(col_exprs)} WHERE 0")
            return
        selects = []
        for row in node.rows:
            parts = []
            for c, v in zip(node.schema, row):
                if c in items:
                    quad = ConstItem(v).quad()
                    parts += [
                        f"{quad[0]} AS {q(c + '_k')}", f"{quad[1]} AS {q(c + '_i')}",
                        f"{quad[2]} AS {q(c + '_d')}", f"{quad[3]} AS {q(c + '_s')}",
                    ]
                else:
                    parts.append(f"{int(v)} AS {q(c)}")
            selects.append("SELECT " + ", ".join(parts))
        self._emit(node, "\nUNION ALL\n".join(selects))

    def _g_Project(self, node: alg.Project):
        child = self.names[id(node.child)]
        items = self.item_cols(node.child)
        parts = []
        for new, old in node.cols:
            if old in items:
                for suffix in ("_k", "_i", "_d", "_s"):
                    parts.append(f"c.{q(old + suffix)} AS {q(new + suffix)}")
            else:
                parts.append(f"c.{q(old)} AS {q(new)}")
        self._emit(node, f"SELECT {', '.join(parts)} FROM {child} c")

    def _g_Select(self, node: alg.Select):
        child = self.names[id(node.child)]
        lhs = self._operand(node.child, node.lhs, "c")
        rhs = self._operand(node.child, node.rhs, "c")
        pred = self._cmp_sql(node.op, lhs, rhs)
        self._emit(
            node,
            f"SELECT {self.select_all(node.child, 'c')} FROM {child} c WHERE {pred}",
        )

    def _g_Union(self, node: alg.Union):
        cols = self.phys_cols(node)
        selects = []
        for child in node.inputs:
            name = self.names[id(child)]
            selects.append(
                "SELECT " + ", ".join(f"c.{q(c)} AS {q(c)}" for c in cols)
                + f" FROM {name} c"
            )
        self._emit(node, "\nUNION ALL\n".join(selects))

    def _key_eq(self, left_op, right_op, keys, la="l", ra="r") -> str:
        litems = self.item_cols(left_op)
        ritems = self.item_cols(right_op)
        conds = []
        for lk, rk in keys:
            if lk in litems and rk in ritems:
                l, r = ItemRef(la, lk), ItemRef(ra, rk)
                norm_l = f"(CASE WHEN {l.k} = {K_UNTYPED} THEN {K_STR} ELSE {l.k} END)"
                norm_r = f"(CASE WHEN {r.k} = {K_UNTYPED} THEN {K_STR} ELSE {r.k} END)"
                conds.append(f"{norm_l} = {norm_r}")
                conds.append(f"{l.i} IS {r.i}")
                conds.append(f"{l.d} IS {r.d}")
                conds.append(f"{l.s} IS {r.s}")
            elif lk not in litems and rk not in ritems:
                conds.append(f"{la}.{q(lk)} = {ra}.{q(rk)}")
            else:
                raise NotSupportedError("join key item-ness mismatch")
        return " AND ".join(conds)

    def _g_Join(self, node: alg.Join):
        l, r = self.names[id(node.left)], self.names[id(node.right)]
        cond = self._key_eq(node.left, node.right, node.keys)
        self._emit(
            node,
            f"SELECT {self.select_all(node.left, 'l')}, "
            f"{self.select_all(node.right, 'r')} "
            f"FROM {l} l JOIN {r} r ON {cond}",
        )

    def _g_SemiJoin(self, node: alg.SemiJoin):
        l, r = self.names[id(node.left)], self.names[id(node.right)]
        cond = self._key_eq(node.left, node.right, node.keys)
        self._emit(
            node,
            f"SELECT {self.select_all(node.left, 'l')} FROM {l} l "
            f"WHERE EXISTS (SELECT 1 FROM {r} r WHERE {cond})",
        )

    def _g_Difference(self, node: alg.Difference):
        l, r = self.names[id(node.left)], self.names[id(node.right)]
        keys = tuple((k, k) for k in node.keys)
        cond = self._key_eq(node.left, node.right, keys)
        self._emit(
            node,
            f"SELECT {self.select_all(node.left, 'l')} FROM {l} l "
            f"WHERE NOT EXISTS (SELECT 1 FROM {r} r WHERE {cond})",
        )

    def _g_Distinct(self, node: alg.Distinct):
        child = self.names[id(node.child)]
        items = self.item_cols(node.child)
        partition = []
        for k in node.keys:
            if k in items:
                ref = ItemRef("", k)
                partition += [
                    f"(CASE WHEN {ref.k} = {K_UNTYPED} THEN {K_STR} ELSE {ref.k} END)",
                    ref.i, ref.d, ref.s,
                ]
            else:
                partition.append(q(k))
        order = q(node.order_col) if node.order_col else "1"
        cols = ", ".join(q(c) for c in self.phys_cols(node.child))
        self._emit(
            node,
            f"SELECT {cols} FROM (SELECT {cols}, ROW_NUMBER() OVER "
            f"(PARTITION BY {', '.join(partition)} ORDER BY {order}) AS rn__ "
            f"FROM {child}) WHERE rn__ = 1",
        )

    def _g_Cross(self, node: alg.Cross):
        l, r = self.names[id(node.left)], self.names[id(node.right)]
        self._emit(
            node,
            f"SELECT {self.select_all(node.left, 'l')}, "
            f"{self.select_all(node.right, 'r')} FROM {l} l CROSS JOIN {r} r",
        )

    def _g_RowNum(self, node: alg.RowNum):
        child = self.names[id(node.child)]
        items = self.item_cols(node.child)
        order_keys = []
        for colname, descending in node.order:
            if colname in items:
                order_keys += order_exprs(ItemRef("c", colname), descending)
            else:
                order_keys.append(f"c.{q(colname)}" + (" DESC" if descending else ""))
        over = f"ORDER BY {', '.join(order_keys) or '1'}"
        if node.group:
            over = f"PARTITION BY c.{q(node.group)} " + over
        self._emit(
            node,
            f"SELECT {self.select_all(node.child, 'c')}, "
            f"ROW_NUMBER() OVER ({over}) AS {q(node.target)} FROM {child} c",
        )

    def _g_Map(self, node: alg.Map):
        child = self.names[id(node.child)]
        args = [self._operand(node.child, a, "c") for a in node.args]
        quad = _map_fn_sql(node.fn, args)
        t = node.target
        if t in self.item_cols(node):
            target_sql = (
                f"{quad.k} AS {q(t + '_k')}, {quad.i} AS {q(t + '_i')}, "
                f"{quad.d} AS {q(t + '_d')}, {quad.s} AS {q(t + '_s')}"
            )
        else:
            # numeric-output map functions (kind_code, node_kind)
            target_sql = f"{quad.i} AS {q(t)}"
        self._emit(
            node,
            f"SELECT {self.select_all(node.child, 'c')}, {target_sql} "
            f"FROM {child} c",
        )

    def _g_Aggr(self, node: alg.Aggr):
        child = self.names[id(node.child)]
        items = self.item_cols(node.child)
        group_sel = f"c.{q(node.group)} AS {q(node.group)}, " if node.group else ""
        group_by = f" GROUP BY c.{q(node.group)}" if node.group else ""
        t = node.target
        if node.kind == "count":
            self._emit(
                node,
                f"SELECT {group_sel}COUNT(*) AS {q(t)} FROM {child} c{group_by}",
            )
            return
        if node.kind == "str_join":
            ref = ItemRef("o", node.arg) if node.arg in items else None
            val = txt(ref) if ref else f"CAST(o.{q(node.arg)} AS TEXT)"
            order = f"o.{q(node.order_col)}" if node.order_col else "1"
            inner_cols = ", ".join(f"o.{q(c)} AS {q(c)}" for c in self.phys_cols(node.child))
            body = (
                f"SELECT {group_sel.replace('c.', 'c.')}"
                f"{K_STR} AS {q(t + '_k')}, NULL AS {q(t + '_i')}, "
                f"NULL AS {q(t + '_d')}, "
                f"COALESCE(GROUP_CONCAT(c.v__, {_lit_sql(node.sep)}), '') AS {q(t + '_s')} "
                f"FROM (SELECT {inner_cols}, {val} AS v__ FROM {child} o ORDER BY {order}) c"
                f"{group_by}"
            )
            self._emit(node, body)
            return
        # sum / min / max / avg
        ref = ItemRef("c", node.arg) if node.arg in items else None
        val = dbl(ref) if ref else f"CAST(c.{q(node.arg)} AS REAL)"
        agg = {"sum": "SUM", "min": "MIN", "max": "MAX", "avg": "AVG"}[node.kind]
        all_int = (
            f"(MIN({ref.k}) = {K_INT} AND MAX({ref.k}) = {K_INT})"
            if ref
            else "1"
        )
        numeric_kind = (
            f"(CASE WHEN {all_int} THEN {K_INT} ELSE {K_DBL} END)"
            if node.kind in ("sum", "min", "max")
            else str(K_DBL)
        )
        i_expr = (
            f"(CASE WHEN {all_int} THEN CAST({agg}({val}) AS INTEGER) ELSE NULL END)"
            if node.kind in ("sum", "min", "max")
            else "NULL"
        )
        d_expr = (
            f"(CASE WHEN {all_int} THEN NULL ELSE {agg}({val}) END)"
            if node.kind in ("sum", "min", "max")
            else f"{agg}({val})"
        )
        s_expr = "NULL"
        if ref is not None:
            # per-group string handling, mirroring the numpy evaluator:
            # all-string min/max groups compare by codepoint order
            # (BINARY collation == codepoint order in UTF-8); any other
            # string mix is err:FORG0006 via the sentinel kind
            strish = (
                f"SUM(CASE WHEN {ref.k} IN {_AGG_STRING_SQL} THEN 1 ELSE 0 END)"
            )
            if node.kind in ("min", "max"):
                kind_expr = (
                    f"(CASE WHEN {strish} = 0 THEN {numeric_kind} "
                    f"WHEN {strish} = COUNT(*) THEN {K_STR} "
                    f"ELSE {ERR_KIND_FORG0006} END)"
                )
                s_expr = (
                    f"(CASE WHEN {strish} = COUNT(*) AND {strish} > 0 "
                    f"THEN {agg}({txt(ref)}) ELSE NULL END)"
                )
            else:
                kind_expr = (
                    f"(CASE WHEN {strish} = 0 THEN {numeric_kind} "
                    f"ELSE {ERR_KIND_FORG0006} END)"
                )
        else:
            kind_expr = numeric_kind
        # ungrouped SQL aggregates return one NULL row over empty input;
        # the algebra semantics (and numpy evaluator) return no row
        having = "" if node.group else " HAVING COUNT(*) > 0"
        self._emit(
            node,
            f"SELECT {group_sel}{kind_expr} AS {q(t + '_k')}, {i_expr} AS {q(t + '_i')}, "
            f"{d_expr} AS {q(t + '_d')}, {s_expr} AS {q(t + '_s')} "
            f"FROM {child} c{group_by}{having}",
        )

    def _g_StepJoin(self, node: alg.StepJoin):
        child = self.names[id(node.child)]
        ic, tc = node.iter_col, node.item_col
        ctx_id = f"c.{q(tc + '_i')}"
        axis = node.axis
        test = node.test
        if axis is Axis.ATTRIBUTE:
            cond = f"a.owner = {ctx_id}"
            if test.kind == "attribute" and test.name is not None:
                cond += f" AND a.name = {_lit_sql(test.name)}"
            elif test.kind not in ("attribute", "node"):
                cond += " AND 0"
            self._emit(
                node,
                f"SELECT DISTINCT c.{q(ic)} AS {q(ic)}, {K_ATTR} AS {q(tc + '_k')}, "
                f"a.id AS {q(tc + '_i')}, NULL AS {q(tc + '_d')}, NULL AS {q(tc + '_s')} "
                f"FROM {child} c JOIN attrs a ON {cond} "
                f"ORDER BY c.{q(ic)}, a.id",
            )
            return
        region = {
            Axis.SELF: f"n.id = {ctx_id}",
            Axis.CHILD: f"n.parent = {ctx_id}",
            Axis.DESCENDANT: f"n.id > {ctx_id} AND n.id <= {ctx_id} + ctx.size",
            Axis.DESCENDANT_OR_SELF: f"n.id >= {ctx_id} AND n.id <= {ctx_id} + ctx.size",
            Axis.PARENT: "n.id = ctx.parent",
            Axis.ANCESTOR: f"n.id < {ctx_id} AND n.id + n.size >= {ctx_id}",
            Axis.ANCESTOR_OR_SELF: f"n.id <= {ctx_id} AND n.id + n.size >= {ctx_id}",
            Axis.FOLLOWING: f"n.id > {ctx_id} + ctx.size AND n.frag = ctx.frag",
            Axis.PRECEDING: f"n.id + n.size < {ctx_id} AND n.frag = ctx.frag",
            Axis.FOLLOWING_SIBLING: f"n.parent = ctx.parent AND ctx.parent >= 0 AND n.id > {ctx_id}",
            Axis.PRECEDING_SIBLING: f"n.parent = ctx.parent AND ctx.parent >= 0 AND n.id < {ctx_id}",
        }[axis]
        conds = [region]
        if test.kind != "node":
            if test.kind == "attribute":
                conds.append("0")
            else:
                conds.append(f"n.kind = {_KIND_TEST_SQL[test.kind]}")
                if test.name is not None:
                    conds.append(f"n.name = {_lit_sql(test.name)}")
        self._emit(
            node,
            f"SELECT DISTINCT c.{q(ic)} AS {q(ic)}, {K_NODE} AS {q(tc + '_k')}, "
            f"n.id AS {q(tc + '_i')}, NULL AS {q(tc + '_d')}, NULL AS {q(tc + '_s')} "
            f"FROM {child} c "
            f"JOIN nodes ctx ON ctx.id = {ctx_id} "
            f"JOIN nodes n ON {' AND '.join(conds)}",
        )

    def _g_Atomize(self, node: alg.Atomize):
        child = self.names[id(node.child)]
        ref = ItemRef("c", node.arg)
        t = node.target
        k = (
            f"(CASE WHEN {ref.k} IN ({K_NODE}, {K_ATTR}) THEN {K_UNTYPED} "
            f"ELSE {ref.k} END)"
        )
        i = f"(CASE WHEN {ref.k} IN ({K_NODE}, {K_ATTR}) THEN NULL ELSE {ref.i} END)"
        s = (
            f"(CASE WHEN {ref.k} = {K_NODE} THEN "
            f"(SELECT strval FROM nodes WHERE id = {ref.i}) "
            f"WHEN {ref.k} = {K_ATTR} THEN (SELECT value FROM attrs WHERE id = {ref.i}) "
            f"ELSE {ref.s} END)"
        )
        self._emit(
            node,
            f"SELECT {self.select_all(node.child, 'c')}, "
            f"{k} AS {q(t + '_k')}, {i} AS {q(t + '_i')}, "
            f"{ref.d} AS {q(t + '_d')}, {s} AS {q(t + '_s')} FROM {child} c",
        )

    def _g_GenRange(self, node: alg.GenRange):
        child = self.names[id(node.child)]
        items = self.item_cols(node.child)
        lo = f"{q(node.lo_col + '_i')}" if node.lo_col in items else q(node.lo_col)
        hi = f"{q(node.hi_col + '_i')}" if node.hi_col in items else q(node.hi_col)
        seq = f"t{len(self.ctes)}_seq"
        self.ctes.append(
            (
                seq,
                f"SELECT iter, {lo} AS v, {hi} AS hi FROM {child} WHERE {lo} <= {hi}\n"
                f"UNION ALL SELECT iter, v + 1, hi FROM {seq} WHERE v < hi",
            )
        )
        self._emit(
            node,
            f"SELECT iter, ROW_NUMBER() OVER (PARTITION BY iter ORDER BY v) AS pos, "
            f"{K_INT} AS item_k, v AS item_i, NULL AS item_d, NULL AS item_s "
            f"FROM {seq}",
        )

    def _g_DocRoot(self, node: alg.DocRoot):
        row = self.documents.get(node.uri)
        if row is None:
            raise NotSupportedError(f"document {node.uri!r} is not loaded")
        self._emit(
            node,
            f"SELECT 1 AS iter, 1 AS pos, {K_NODE} AS item_k, {row} AS item_i, "
            f"NULL AS item_d, NULL AS item_s",
        )


# --------------------------------------------------------------------------
# map function translations
# --------------------------------------------------------------------------
def _as_item_arg(arg):
    tag, v = arg
    return _int_quad(v) if tag == "num" else v


def _map_fn_sql(fn: str, args):
    a = _as_item_arg(args[0]) if args else None
    b = _as_item_arg(args[1]) if len(args) > 1 else None
    c = _as_item_arg(args[2]) if len(args) > 2 else None

    if fn in ("add", "sub", "mul", "div", "idiv", "mod"):
        x, y = dbl(a), dbl(b)
        sql = {"add": f"{x} + {y}", "sub": f"{x} - {y}", "mul": f"{x} * {y}",
               "div": f"{x} / {y}", "idiv": f"CAST({x} / {y} AS INTEGER)",
               "mod": f"xq_mod({x}, {y})"}[fn]
        exact = f"({a.k} IN {_EXACT_SQL} AND {b.k} IN {_EXACT_SQL})"
        if fn == "idiv":

            class _IDiv:
                # integer division by zero is err:FOAR0001 (the decoder
                # raises on the sentinel kind)
                k = (
                    f"(CASE WHEN {y} = 0.0 THEN {ERR_KIND_FOAR0001} "
                    f"ELSE {K_INT} END)"
                )
                i = f"(CASE WHEN {y} = 0.0 THEN 0 ELSE {sql} END)"
                d = "NULL"
                s = "NULL"

            return _IDiv()
        both_int = f"({a.k} = {K_INT} AND {b.k} = {K_INT})"
        if fn == "div":

            class _Div:
                # exact-numeric (integer/decimal) division by zero is
                # err:FOAR0001; exact operands keep xs:decimal typing
                k = (
                    f"(CASE WHEN {exact} AND {y} = 0.0 THEN {ERR_KIND_FOAR0001} "
                    f"WHEN {exact} THEN {K_DEC} ELSE {K_DBL} END)"
                )
                i = "NULL"
                d = f"({sql})"
                s = "NULL"

            return _Div()

        zero_guard = (
            f"{exact} AND {y} = 0.0 THEN {ERR_KIND_FOAR0001}"
            if fn == "mod"
            else f"0 THEN {ERR_KIND_FOAR0001}"  # never taken for + - *
        )

        class _Arith:
            k = (
                f"(CASE WHEN {zero_guard} "
                f"WHEN {both_int} THEN {K_INT} "
                f"WHEN {exact} THEN {K_DEC} ELSE {K_DBL} END)"
            )
            i = f"(CASE WHEN {both_int} THEN CAST({sql} AS INTEGER) ELSE NULL END)"
            d = f"(CASE WHEN {both_int} THEN NULL ELSE {sql} END)"
            s = "NULL"

        return _Arith()
    if fn == "neg":
        x = dbl(a)

        class _Neg:
            k = (
                f"(CASE WHEN {a.k} = {K_INT} THEN {K_INT} "
                f"WHEN {a.k} = {K_DEC} THEN {K_DEC} ELSE {K_DBL} END)"
            )
            i = f"(CASE WHEN {a.k} = {K_INT} THEN -{a.i} ELSE NULL END)"
            d = f"(CASE WHEN {a.k} = {K_INT} THEN NULL ELSE -{x} END)"
            s = "NULL"

        return _Neg()
    if fn in _SQL_CMP:
        return _bool_quad(compare(fn, a, b))
    if fn == "and":
        return _bool_quad(f"{a.i} <> 0 AND {b.i} <> 0")
    if fn == "or":
        return _bool_quad(f"{a.i} <> 0 OR {b.i} <> 0")
    if fn == "not":
        return _bool_quad(f"{a.i} = 0")
    if fn == "ebv":
        return _bool_quad(ebv(a))
    if fn == "is_node":
        return _bool_quad(f"{a.k} IN ({K_NODE}, {K_ATTR})")
    if fn == "is_numeric":
        return _bool_quad(f"{a.k} IN ({K_INT}, {K_DBL}, {K_DEC})")
    if fn == "kind_code":
        # numeric output column expected; delivered as int item payload
        return _int_quad(a.k)
    if fn == "atom_cls":
        return _int_quad(
            f"CASE WHEN {a.k} IN {_DV_NUMERIC_SQL} THEN 0 "
            f"WHEN {a.k} IN {_DV_STRING_SQL} THEN 1 "
            f"WHEN {a.k} = {K_BOOL} THEN 2 ELSE 3 END"
        )
    if fn == "atom_key":
        # within-class canonical key; SQLite's dynamic typing lets one
        # column hold REAL (numerics; NULL = NaN, and NULLs group
        # together) or TEXT (strings) per row
        return _int_quad(
            f"CASE WHEN {a.k} IN {_DV_NUMERIC_SQL} THEN {dbl(a)} "
            f"WHEN {a.k} IN {_DV_STRING_SQL} THEN {a.s} ELSE {a.i} END"
        )
    if fn == "cast_dbl":

        class _CastD:
            k = str(K_DBL)
            i = "NULL"
            d = dbl(a)
            s = "NULL"

        return _CastD()
    if fn == "cast_dec":

        class _CastDec:
            k = str(K_DEC)
            i = "NULL"
            d = dbl(a)
            s = "NULL"

        return _CastDec()
    if fn == "cast_int":
        return _int_quad(f"CAST({dbl(a)} AS INTEGER)")
    if fn == "cast_str":
        return _str_quad(txt(a))
    if fn == "node_eq":
        return _bool_quad(f"{a.k} = {b.k} AND {a.i} = {b.i}")
    if fn == "node_before":
        return _bool_quad(f"{a.i} < {b.i}")
    if fn == "node_after":
        return _bool_quad(f"{a.i} > {b.i}")
    if fn == "contains":
        return _bool_quad(f"INSTR({txt(a)}, {txt(b)}) > 0 OR {txt(b)} = ''")
    if fn == "starts_with":
        return _bool_quad(f"SUBSTR({txt(a)}, 1, LENGTH({txt(b)})) = {txt(b)}")
    if fn == "ends_with":
        return _bool_quad(
            f"LENGTH({txt(b)}) = 0 OR SUBSTR({txt(a)}, -LENGTH({txt(b)})) = {txt(b)}"
        )
    if fn == "string_length":
        return _int_quad(f"LENGTH({txt(a)})")
    if fn == "concat":
        return _str_quad(f"{txt(a)} || {txt(b)}")
    if fn == "upper_case":
        return _str_quad(f"UPPER({txt(a)})")
    if fn == "lower_case":
        return _str_quad(f"LOWER({txt(a)})")
    if fn == "normalize_space":
        return _str_quad(f"xq_normalize_space({txt(a)})")
    if fn in ("substring2", "substring3"):
        if c is not None:
            return _str_quad(f"xq_substring3({txt(a)}, {dbl(b)}, {dbl(c)})")
        return _str_quad(f"xq_substring2({txt(a)}, {dbl(b)})")
    if fn == "substring_before":
        return _str_quad(f"xq_substring_before({txt(a)}, {txt(b)})")
    if fn == "substring_after":
        return _str_quad(f"xq_substring_after({txt(a)}, {txt(b)})")
    if fn in ("floor", "ceiling", "round", "abs"):

        class _Round:
            k = f"(CASE WHEN {a.k} = {K_INT} THEN {K_INT} ELSE {K_DBL} END)"
            i = (
                f"(CASE WHEN {a.k} = {K_INT} THEN "
                + (f"ABS({a.i})" if fn == "abs" else a.i)
                + " ELSE NULL END)"
            )
            d = f"(CASE WHEN {a.k} = {K_INT} THEN NULL ELSE xq_{fn}({dbl(a)}) END)"
            s = "NULL"

        return _Round()
    if fn == "node_kind":
        return _int_quad(
            f"(CASE WHEN {a.k} = {K_ATTR} THEN -2 WHEN {a.k} = {K_NODE} THEN "
            f"(SELECT kind FROM nodes WHERE id = {a.i}) ELSE -1 END)"
        )
    if fn == "elem_name_is":
        return _bool_quad(
            f"{a.k} = {K_NODE} AND (SELECT kind FROM nodes WHERE id = {a.i}) = {NK_ELEM} "
            f"AND (SELECT name FROM nodes WHERE id = {a.i}) = {txt(b)}"
        )
    if fn == "node_name":
        return _str_quad(
            f"COALESCE(CASE WHEN {a.k} = {K_NODE} THEN "
            f"(SELECT name FROM nodes WHERE id = {a.i}) "
            f"WHEN {a.k} = {K_ATTR} THEN (SELECT name FROM attrs WHERE id = {a.i}) "
            f"ELSE NULL END, '')"
        )
    if fn == "root_of":
        return _node_root_quad(a)
    raise NotSupportedError(f"the SQL host has no translation for map fn {fn!r}")


def _node_root_quad(a):
    class _Root:
        k = str(K_NODE)
        i = (
            f"(SELECT n2.id FROM nodes n2 WHERE n2.frag = "
            f"(SELECT frag FROM nodes WHERE id = {a.i}) AND n2.parent = -1)"
        )
        d = "NULL"
        s = "NULL"

    return _Root()
