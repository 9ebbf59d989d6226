"""A nested-loop, item-at-a-time XQuery interpreter (the X-Hive stand-in).

This engine evaluates the same desugared AST as the Pathfinder compiler,
over the same node arena — but the way conventional XQuery engines do:
FLWOR clauses iterate tuple-at-a-time in recursive Python loops, axis
steps traverse the tree per context node, general comparisons are nested
loops, joins are nested loops.  It exists to reproduce the paper's
Table 3/Figure 4 comparisons with a credible conventional competitor.

Two X-Hive-flavoured extras:

* ``deadline`` — a wall-clock budget; exceeding it raises
  :class:`QueryTimeout`, which the benchmark harness reports as *DNF*
  exactly like the paper does for X-Hive on Q9-Q12;
* optional attribute value indexes (``add_value_index``) mirroring the
  indices the authors created on ``buyer/@person``/``profile/@income``:
  equality ``where`` clauses of the form ``$v/…/@attr = <expr>`` directly
  after a ``for`` clause probe the index instead of scanning.
"""

from __future__ import annotations

import time

from repro.compiler.builtins import check_builtin
from repro.encoding.arena import (
    NK_COMMENT,
    NK_DOC,
    NK_ELEM,
    NK_PI,
    NK_TEXT,
    NodeArena,
)
from repro.encoding.axes import REVERSE_AXES, Axis
from repro.errors import (
    DeadlineExceeded,
    DynamicError,
    NotSupportedError,
    StaticError,
    TypeError_,
)
from repro.relational.items import (
    XSDecimal,
    format_double,
    int_in_range,
    xpath_round,
    xpath_substring,
)
from repro.xquery import ast

import numpy as np


#: raised when evaluation exceeds the configured deadline (a DNF)
QueryTimeout = DeadlineExceeded


class UntypedAtomic(str):
    """An ``xs:untypedAtomic`` value (a str subclass used as a type tag).

    Atomized node content carries this class so the interpreter can match
    the numpy evaluator's typing: untyped values cast to double in
    aggregates and arithmetic, while genuine ``xs:string`` items compare
    (and aggregate) as strings.
    """

    __slots__ = ()


class BNode:
    """A node item: wraps an arena row."""

    __slots__ = ("row",)

    def __init__(self, row: int):
        self.row = row

    def __eq__(self, other):
        return isinstance(other, BNode) and other.row == self.row

    def __hash__(self):
        return hash(("n", self.row))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"BNode({self.row})"


class BAttr:
    """An attribute item: wraps an attribute-arena id."""

    __slots__ = ("aid",)

    def __init__(self, aid: int):
        self.aid = aid

    def __eq__(self, other):
        return isinstance(other, BAttr) and other.aid == self.aid

    def __hash__(self):
        return hash(("a", self.aid))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"BAttr({self.aid})"


_NUMERIC = (int, float)


class Interpreter:
    """Evaluate desugared XQuery modules item-at-a-time."""

    def __init__(
        self,
        arena: NodeArena,
        documents: dict[str, int],
        default_document: str | None = None,
        use_indexes: bool = False,
    ):
        self.arena = arena
        self.documents = documents
        self.default_document = default_document
        self.use_indexes = use_indexes
        self.deadline: float | None = None
        self._functions: dict[tuple[str, int], ast.FunctionDecl] = {}
        self._value_indexes: dict[str, dict[str, list[int]]] = {}
        self._ticks = 0
        #: the last execution's hold on the arena (see :meth:`execute`)
        self._lease = None

    # -------------------------------------------------------------- control
    def set_deadline(self, seconds: float | None) -> None:
        """Abort evaluation (QueryTimeout) after ``seconds`` of wall time."""
        self.deadline = None if seconds is None else time.perf_counter() + seconds

    def _tick(self) -> None:
        self._ticks += 1
        # the first tick checks too: a budget spent before evaluation
        # started (on the write lock, for an update) stops it at once
        if self.deadline is not None and self._ticks % 256 == 1:
            if time.perf_counter() > self.deadline:
                raise QueryTimeout("query exceeded its time budget (DNF)")

    # ------------------------------------------------------------- indexes
    def add_value_index(self, attr_name: str) -> None:
        """Build a hash index attribute-value → owner element rows (the
        X-Hive tuning of Section 3.2)."""
        arena = self.arena
        pool = arena.pool
        name_id = pool.lookup(attr_name)
        # one snapshot of the columns: an earlier result's lease may close
        # (and pop its constructed rows) at any allocation, and only the
        # loaded documents' attributes belong in the index
        owners, names, values = arena.attr_owner, arena.attr_name, arena.attr_value
        n = min(len(owners), len(names), len(values))
        hits = np.flatnonzero(
            (names[:n] == name_id) & (owners[:n] < arena.persistent_rows)
        )
        index: dict[str, list[int]] = {}
        for aid in hits.tolist():
            value = pool.value(int(values[aid]))
            index.setdefault(value, []).append(int(owners[aid]))
        self._value_indexes[attr_name] = index

    # ------------------------------------------------------------ execution
    def execute(self, module: ast.Module) -> list:
        """Evaluate a desugared module; returns the result item list.

        The interpreter holds a lease on the arena
        (:meth:`~repro.encoding.arena.NodeArena.page_scope`) from here
        until its next ``execute`` or its own end, so the nodes this
        execution constructs stay readable for :meth:`serialize`.
        """
        self._lease = None  # the previous execution's nodes may go
        self._lease = self.arena.page_scope()
        self._functions = {
            (f.name, len(f.params)): f for f in module.functions
        }
        return self.eval(module.body, {})

    def serialize(self, seq: list) -> str:
        """Serialise a result sequence exactly like the Pathfinder engine."""
        from repro.xml.escape import escape_text
        from repro.xml.serializer import serialize_attribute, serialize_node

        parts: list[str] = []
        prev_atomic = False
        for item in seq:
            if isinstance(item, BNode):
                parts.append(serialize_node(self.arena, item.row))
                prev_atomic = False
            elif isinstance(item, BAttr):
                parts.append(serialize_attribute(self.arena, item.aid))
                prev_atomic = False
            else:
                if prev_atomic:
                    parts.append(" ")
                parts.append(escape_text(_lexical(item)))
                prev_atomic = True
        return "".join(parts)

    # ------------------------------------------------------------- dispatch
    def eval(self, e: ast.Expr, env: dict) -> list:
        self._tick()
        method = getattr(self, "_e_" + type(e).__name__, None)
        if method is None:
            raise NotSupportedError(f"interpreter: unhandled {type(e).__name__}")
        return method(e, env)

    # -------------------------------------------------------------- basics
    def _e_Literal(self, e: ast.Literal, env):
        return [e.value]

    def _e_EmptySeq(self, e, env):
        return []

    def _e_Sequence(self, e: ast.Sequence, env):
        out: list = []
        for item in e.items:
            out.extend(self.eval(item, env))
        return out

    def _e_RangeExpr(self, e: ast.RangeExpr, env):
        lo = self._single_number(e.lo, env)
        hi = self._single_number(e.hi, env)
        if lo is None or hi is None:
            return []
        return list(range(int(lo), int(hi) + 1))

    def _e_VarRef(self, e: ast.VarRef, env):
        try:
            return env[e.name]
        except KeyError:
            raise StaticError(f"undefined variable ${e.name}", code="err:XPST0008")

    def _e_ContextItem(self, e, env):
        try:
            return env["fs:ctx"]
        except KeyError:
            raise StaticError("no context item", code="err:XPDY0002")

    # --------------------------------------------------------------- FLWOR
    def _e_FLWOR(self, e: ast.FLWOR, env):
        out: list = []
        keyed: list[tuple[tuple, int, list]] = []
        counter = [0]

        def run_clauses(idx: int, cur_env: dict) -> None:
            self._tick()
            if idx == len(e.clauses):
                if e.where is not None and not self._ebv(self.eval(e.where, cur_env)):
                    return
                value = self.eval(e.ret, cur_env)
                if e.order:
                    key = tuple(
                        _order_key(self._key_atom(spec.expr, cur_env),
                                   spec.descending, spec.empty_greatest)
                        for spec in e.order
                    )
                    keyed.append((key, counter[0], value))
                    counter[0] += 1
                else:
                    out.extend(value)
                return
            clause = e.clauses[idx]
            if isinstance(clause, ast.LetClause):
                new_env = dict(cur_env)
                new_env[clause.var] = self.eval(clause.expr, cur_env)
                run_clauses(idx + 1, new_env)
                return
            binding = self._for_binding(e, idx, clause, cur_env)
            for position, item in binding:
                new_env = dict(cur_env)
                new_env[clause.var] = [item]
                if clause.pos_var is not None:
                    new_env[clause.pos_var] = [position]
                run_clauses(idx + 1, new_env)

        run_clauses(0, env)
        if e.order:
            keyed.sort(key=lambda kv: (kv[0], kv[1]))
            for _, _, value in keyed:
                out.extend(value)
        return out

    def _for_binding(self, flwor, idx, clause, cur_env):
        """The (position, item) stream of a for clause — optionally probed
        through a value index when the where clause is an equality on an
        indexed attribute path rooted at this clause's variable."""
        if self.use_indexes and idx == len(flwor.clauses) - 1 and flwor.where is not None:
            probe = self._index_probe(flwor.where, clause, cur_env)
            if probe is not None:
                return probe
        seq = self.eval(clause.expr, cur_env)
        return list(enumerate(seq, start=1))

    def _index_probe(self, where, clause, cur_env):
        """Recognise ``where $v/c1/…/@a = <outer expr>`` and answer it from
        the value index: candidate ``$v`` items are computed by walking up
        from the indexed attribute owners."""
        cond = where
        if not isinstance(cond, ast.GeneralComp) or cond.op != "eq":
            return None
        for lhs, rhs in ((cond.lhs, cond.rhs), (cond.rhs, cond.lhs)):
            spec = self._indexed_path_spec(lhs, clause.var)
            if spec is None:
                continue
            attr_name, depth = spec
            index = self._value_indexes.get(attr_name)
            if index is None:
                continue
            try:
                outer_vals = [
                    _string_of_atom(v) for v in self._atomize_seq(self.eval(rhs, cur_env))
                ]
            except StaticError:
                return None
            binding = self.eval(clause.expr, cur_env)
            rows = {item.row: pos for pos, item in enumerate(binding, start=1)
                    if isinstance(item, BNode)}
            hits: dict[int, int] = {}
            parent = self.arena.parent
            for value in outer_vals:
                for owner in index.get(value, ()):
                    node = owner
                    for _ in range(depth):
                        node = int(parent[node])
                        if node < 0:
                            break
                    if node in rows:
                        hits[node] = rows[node]
            ordered = sorted(hits.items(), key=lambda kv: kv[1])
            return [(pos, BNode(row)) for row, pos in ordered]
        return None

    def _indexed_path_spec(self, e, var):
        """``$var/s1/…/@a`` → (attr name, number of element steps), if it
        has that exact shape."""
        if not isinstance(e, ast.PathExpr) or e.absolute or not e.steps:
            return None
        if not isinstance(e.start, ast.VarRef) or e.start.name != var:
            return None
        *front, last = e.steps
        if not isinstance(last, ast.Step) or last.axis is not Axis.ATTRIBUTE:
            return None
        if last.test.name is None or last.predicates:
            return None
        depth = 0
        for s in front:
            if not isinstance(s, ast.Step) or s.axis is not Axis.CHILD or s.predicates:
                return None
            depth += 1
        return last.test.name, depth

    # -------------------------------------------------------- conditionals
    def _e_IfExpr(self, e: ast.IfExpr, env):
        if self._ebv(self.eval(e.cond, env)):
            return self.eval(e.then, env)
        return self.eval(e.els, env)

    def _e_Typeswitch(self, e: ast.Typeswitch, env):
        operand = self.eval(e.operand, env)
        for case in e.cases:
            if self._matches_type(operand, case.test):
                new_env = dict(env)
                if case.var is not None:
                    new_env[case.var] = operand
                return self.eval(case.expr, new_env)
        new_env = dict(env)
        if e.default_var is not None:
            new_env[e.default_var] = operand
        return self.eval(e.default, new_env)

    def _matches_type(self, seq: list, test: ast.SeqTypeTest) -> bool:
        if test.kind == "empty-sequence":
            return not seq
        if not seq:
            return False
        if test.kind == "item":
            return True
        first = seq[0]
        arena = self.arena
        if test.kind == "node":
            return isinstance(first, (BNode, BAttr))
        if test.kind == "attribute":
            return isinstance(first, BAttr)
        if test.kind in ("element", "text", "comment", "document-node",
                         "processing-instruction"):
            if not isinstance(first, BNode):
                return False
            want = {"element": NK_ELEM, "text": NK_TEXT, "comment": NK_COMMENT,
                    "document-node": NK_DOC, "processing-instruction": NK_PI}[test.kind]
            if arena.kind[first.row] != want:
                return False
            if test.kind == "element" and test.name is not None:
                return arena.name[first.row] == arena.pool.lookup(test.name)
            return True
        if test.kind == "xs:decimal":
            return isinstance(first, XSDecimal)
        if test.kind in ("xs:double", "xs:float"):
            return isinstance(first, float) and not isinstance(first, XSDecimal)
        atomic = {
            "xs:integer": int, "xs:int": int, "xs:long": int,
            "xs:string": str, "xs:boolean": bool,
        }.get(test.kind)
        if atomic is None:
            raise NotSupportedError(f"unsupported sequence type {test.kind}")
        if atomic is int and isinstance(first, bool):
            return False
        if atomic is bool:
            return isinstance(first, bool)
        return isinstance(first, atomic)

    # ----------------------------------------------------------- operators
    def _key_atom(self, e: ast.Expr, env):
        """An order by key: at most one atomic value."""
        atoms = self._atomize_seq(self.eval(e, env))
        if len(atoms) > 1:
            raise TypeError_("an order by key of more than one item", code="err:XPTY0004")
        return atoms[0] if atoms else None

    def _first_atom(self, seq: list):
        atoms = self._atomize_seq(seq)
        return atoms[0] if atoms else None

    def _single_number(self, e: ast.Expr, env):
        v = self._first_atom(self.eval(e, env))
        return None if v is None else _to_number(v)

    def _required_number(self, e: ast.Expr, env):
        v = self._single_number(e, env)
        if v is None:
            raise TypeError_(
                "an empty sequence where a value is required", code="err:XPTY0004"
            )
        return v

    def _e_Arith(self, e: ast.Arith, env):
        a = self._first_atom(self.eval(e.lhs, env))
        b = self._first_atom(self.eval(e.rhs, env))
        if a is None or b is None:
            return []
        x, y = _to_number(a), _to_number(b)
        both_int = isinstance(a, int) and isinstance(b, int) and not (
            isinstance(a, bool) or isinstance(b, bool)
        )
        exact = _is_exact(a) and _is_exact(b)
        op = e.op
        if op == "add":
            r = x + y
        elif op == "sub":
            r = x - y
        elif op == "mul":
            r = x * y
        elif op == "div":
            if y == 0:
                if exact:
                    raise DynamicError(
                        "integer/decimal division by zero", code="err:FOAR0001"
                    )
                return [float("nan") if x == 0 else float("inf") if x > 0 else float("-inf")]
            return [XSDecimal(x / y) if exact else float(x / y)]
        elif op == "idiv":
            if y == 0:
                raise DynamicError("integer division by zero", code="err:FOAR0001")
            if both_int:  # exact, truncating toward zero
                q = abs(x) // abs(y)
                return [int_in_range(-q if (x < 0) != (y < 0) else q, "err:FOAR0002")]
            return [_float_to_int(x / y, "err:FOAR0002")]
        elif op == "mod":
            if y == 0:
                if exact:
                    raise DynamicError(
                        "integer/decimal division by zero", code="err:FOAR0001"
                    )
                return [float("nan")]
            r = float(np.fmod(x, y))
        else:  # pragma: no cover
            raise NotSupportedError(f"arith op {op}")
        if both_int and op in ("add", "sub", "mul", "mod"):
            return [int_in_range(int(r), "err:FOAR0002")]
        # exact-numeric closure (integer div integer is xs:decimal), so a
        # nested division by zero is still err:FOAR0001 — same as the
        # numpy kernels
        return [XSDecimal(r) if exact else float(r)]

    def _e_Neg(self, e: ast.Neg, env):
        a = self._first_atom(self.eval(e.operand, env))
        if a is None:
            return []
        v = _to_number(a)
        if isinstance(a, int) and not isinstance(a, bool):
            return [int_in_range(-int(v), "err:FOAR0002")]
        if isinstance(a, XSDecimal):
            return [XSDecimal(-float(v))]
        return [-float(v)]

    def _e_ValueComp(self, e: ast.ValueComp, env):
        a = self._first_atom(self.eval(e.lhs, env))
        b = self._first_atom(self.eval(e.rhs, env))
        if a is None or b is None:
            return []
        return [_compare(e.op, a, b)]

    def _e_GeneralComp(self, e: ast.GeneralComp, env):
        left = self._atomize_seq(self.eval(e.lhs, env))
        right = self._atomize_seq(self.eval(e.rhs, env))
        for x in left:  # the nested-loop theta join of conventional engines
            self._tick()
            for y in right:
                if _compare(e.op, x, y):
                    return [True]
        return [False]

    def _e_NodeComp(self, e: ast.NodeComp, env):
        a = self.eval(e.lhs, env)
        b = self.eval(e.rhs, env)
        if not a or not b:
            return []
        x, y = a[0], b[0]
        kx = _node_order_key(x)
        ky = _node_order_key(y)
        if e.op == "is":
            return [x == y]
        if e.op == "before":
            return [kx < ky]
        return [kx > ky]

    def _e_NodeSetOp(self, e, env):
        left = self.eval(e.lhs, env)
        right = set(self.eval(e.rhs, env))
        if e.kind == "except":
            kept = [n for n in left if n not in right]
        else:
            kept = [n for n in left if n in right]
        seen = set()
        out = []
        for n in kept:
            if n not in seen:
                seen.add(n)
                out.append(n)
        return sorted(out, key=_node_order_key)

    def _e_BoolOp(self, e: ast.BoolOp, env):
        a = self._ebv(self.eval(e.lhs, env))
        b = self._ebv(self.eval(e.rhs, env))
        return [a and b if e.op == "and" else a or b]

    def _e_CastExpr(self, e: ast.CastExpr, env):
        a = self._first_atom(self.eval(e.operand, env))
        if a is None:
            return []
        t = e.type_name
        if t == "xs:decimal":
            return [XSDecimal(_to_number(a))]
        if t in ("xs:double", "xs:float"):
            return [float(_to_number(a))]
        if t in ("xs:integer", "xs:int", "xs:long"):
            n = _to_number(a)
            if n != n:  # NaN
                raise DynamicError("cannot cast to xs:integer", code="err:FORG0001")
            if isinstance(n, float):
                return [_float_to_int(n, "err:FOCA0003")]
            return [int_in_range(n, "err:FOCA0003")]
        if t in ("xs:string", "xs:untypedAtomic"):
            return [_string_of_atom(a)]
        if t == "xs:boolean":
            return [self._ebv([a])]
        raise NotSupportedError(f"cast to {t}")

    def _e_InstanceOf(self, e: ast.InstanceOf, env):
        return [self._matches_type(self.eval(e.operand, env), e.test)]

    # ---------------------------------------------------------------- paths
    def _e_PathExpr(self, e: ast.PathExpr, env):
        if e.start is not None:
            ctx = self.eval(e.start, env)
        elif e.absolute:
            if self.default_document is None:
                raise StaticError("no default document for absolute path")
            ctx = [BNode(self.documents[self.default_document])]
        else:
            ctx = self._e_ContextItem(None, env)
        for step in e.steps:
            if isinstance(step, ast.Step):
                ctx = self._axis_step(ctx, step, env)
            else:
                # non-axis step: evaluate per context item with ., position()
                # and last() bound, concatenating in context order
                out: list = []
                last = len(ctx)
                for position, item in enumerate(ctx, start=1):
                    step_env = dict(env)
                    step_env["fs:ctx"] = [item]
                    step_env["fs:position"] = [position]
                    step_env["fs:last"] = [last]
                    value = self.eval(step.expr, step_env)
                    out.extend(self._filter(value, step.predicates, step_env))
                ctx = out
        return ctx

    def _e_Filter(self, e: ast.Filter, env):
        return self._filter(self.eval(e.base, env), e.predicates, env)

    def _axis_step(self, ctx: list, step: ast.Step, env) -> list:
        """The step from every context node, its predicates applied to
        each context node's hits on their own, merged in document order
        without duplicates."""
        wrap = (lambda h: BAttr(h[1])) if step.axis is Axis.ATTRIBUTE else BNode
        reverse = step.axis in REVERSE_AXES
        results: set = set()
        for item in ctx:
            self._tick()
            if not isinstance(item, BNode):
                raise DynamicError(
                    "path step applied to a non-node item", code="err:XPTY0019"
                )
            hits = sorted(
                {h for h in self._one_node_axis(item.row, step.axis)
                 if self._node_test(h, step.test)},
                reverse=reverse,
            )
            if step.predicates:
                # a reverse axis counts positions from the context node out
                by_item = {wrap(h): h for h in hits}
                kept = self._filter(list(by_item), step.predicates, env)
                hits = [by_item[k] for k in kept]
            results.update(hits)
        return [wrap(h) for h in sorted(results)]

    def _one_node_axis(self, row: int, axis: Axis):
        """Yield raw hits for one context node (attribute hits are
        ``(owner, aid)`` pairs so they sort in document order)."""
        arena = self.arena
        if axis is Axis.ATTRIBUTE:
            order, lo, hi = arena.attr_ranges(np.asarray([row], dtype=np.int64))
            for j in order[int(lo[0]) : int(hi[0])]:
                yield (row, int(j))
            return
        if axis is Axis.SELF:
            yield row
            return
        if axis is Axis.CHILD:
            order, lo, hi = arena.children_ranges(np.asarray([row], dtype=np.int64))
            for j in sorted(int(r) for r in order[int(lo[0]) : int(hi[0])]):
                yield j
            return
        if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            start = row if axis is Axis.DESCENDANT_OR_SELF else row + 1
            for j in range(start, row + int(arena.size[row]) + 1):
                self._tick()
                yield j
            return
        if axis is Axis.PARENT:
            p = int(arena.parent[row])
            if p >= 0:
                yield p
            return
        if axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
            cur = row if axis is Axis.ANCESTOR_OR_SELF else int(arena.parent[row])
            while cur >= 0:
                yield cur
                cur = int(arena.parent[cur])
            return
        if axis is Axis.FOLLOWING:
            end = int(arena.frag_end(np.asarray([row], dtype=np.int64))[0])
            for j in range(row + int(arena.size[row]) + 1, end + 1):
                self._tick()
                yield j
            return
        if axis is Axis.PRECEDING:
            base = int(arena.root_of(np.asarray([row], dtype=np.int64))[0])
            for j in range(base, row):
                self._tick()
                if j + int(arena.size[j]) < row:
                    yield j
            return
        if axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING):
            p = int(arena.parent[row])
            if p < 0:
                return
            order, lo, hi = arena.children_ranges(np.asarray([p], dtype=np.int64))
            sibs = sorted(int(r) for r in order[int(lo[0]) : int(hi[0])])
            for j in sibs:
                if axis is Axis.FOLLOWING_SIBLING and j > row:
                    yield j
                if axis is Axis.PRECEDING_SIBLING and j < row:
                    yield j
            return
        raise NotSupportedError(f"axis {axis}")

    def _node_test(self, hit, test) -> bool:
        arena = self.arena
        if isinstance(hit, tuple):  # attribute
            if test.kind == "node":
                return True
            if test.kind != "attribute":
                return False
            if test.name is None:
                return True
            return arena.attr_name[hit[1]] == arena.pool.lookup(test.name)
        if test.kind == "node":
            return True
        if test.kind == "attribute":
            return False
        want = {"element": NK_ELEM, "text": NK_TEXT, "comment": NK_COMMENT,
                "document-node": NK_DOC, "processing-instruction": NK_PI}[test.kind]
        if arena.kind[hit] != want:
            return False
        if test.name is not None and test.kind == "element":
            return arena.name[hit] == arena.pool.lookup(test.name)
        return True

    def _filter(self, seq: list, predicates: list, env) -> list:
        cur = seq
        for pred in predicates:
            kept = []
            last = len(cur)
            for position, item in enumerate(cur, start=1):
                self._tick()
                new_env = dict(env)
                new_env["fs:ctx"] = [item]
                new_env["fs:position"] = [position]
                new_env["fs:last"] = [last]
                value = self.eval(pred, new_env)
                if value and isinstance(value[0], _NUMERIC) and not isinstance(value[0], bool):
                    if len(value) > 1:
                        raise DynamicError(
                            "a predicate of several items starting with a number "
                            "has no effective boolean value",
                            code="err:FORG0006",
                        )
                    if float(value[0]) == float(position):
                        kept.append(item)
                elif self._ebv(value):
                    kept.append(item)
            cur = kept
        return cur

    # ------------------------------------------------------------ construct
    def _e_CompElement(self, e: ast.CompElement, env):
        name = _string_of_atom(self._first_atom(self.eval(e.name, env)) or "")
        content = self.eval(e.content, env)
        arena = self.arena
        spec: list[tuple[str, int]] = []
        attrs: list[tuple[int, int]] = []
        atom_run: list[str] = []

        def flush():
            if atom_run:
                spec.append(("text", arena.pool.intern(" ".join(atom_run))))
                atom_run.clear()

        for item in content:
            if isinstance(item, BNode):
                flush()
                spec.append(("copy", item.row))
            elif isinstance(item, BAttr):
                flush()
                spec.append(("attr", item.aid))
            else:
                atom_run.append(_lexical(item))
        flush()
        row = arena.new_element(arena.pool.intern(name), attrs, spec)
        return [BNode(row)]

    def _e_CompAttribute(self, e: ast.CompAttribute, env):
        name = _string_of_atom(self._first_atom(self.eval(e.name, env)) or "")
        value = self._joined_string(self.eval(e.value, env))
        aid = self.arena.new_attribute(
            self.arena.pool.intern(name), self.arena.pool.intern(value)
        )
        return [BAttr(aid)]

    def _e_CompText(self, e: ast.CompText, env):
        value = self._joined_string(self.eval(e.content, env))
        row = self.arena.new_text_node(self.arena.pool.intern(value))
        return [BNode(row)]

    def _joined_string(self, seq: list) -> str:
        return " ".join(_string_of_atom(a) for a in self._atomize_seq(seq))

    # ------------------------------------------------------------ functions
    def _e_FunctionCall(self, e: ast.FunctionCall, env):
        udf = self._functions.get((e.name, len(e.args)))
        if udf is not None:
            call_env = {
                p: self.eval(a, env) for p, a in zip(udf.params, e.args)
            }
            return self.eval(udf.body, call_env)
        return self._builtin(e, env)

    def _builtin(self, e: ast.FunctionCall, env):
        name, args = e.name, e.args
        check_builtin(name, len(args))
        arena = self.arena

        if name == "doc":
            uri = args[0]
            if not isinstance(uri, ast.Literal):
                raise NotSupportedError("fn:doc requires a literal")
            row = self.documents.get(uri.value)
            if row is None:
                raise DynamicError(f"document {uri.value!r} not loaded", code="err:FODC0002")
            return [BNode(row)]
        if name == "root":
            seq = self.eval(args[0], env)
            if not seq:
                return []
            node = seq[0]
            if not isinstance(node, BNode):
                raise DynamicError("fn:root requires a node")
            return [BNode(int(arena.root_of(np.asarray([node.row], dtype=np.int64))[0]))]
        if name == "data":
            return self._atomize_seq(self.eval(args[0], env))
        if name == "string":
            seq = self.eval(args[0], env) if args else self._e_ContextItem(None, env)
            v = self._first_atom(seq)
            return [_string_of_atom(v) if v is not None else ""]
        if name == "number":
            seq = self.eval(args[0], env) if args else self._e_ContextItem(None, env)
            v = self._first_atom(seq)
            return [float(_to_number(v)) if v is not None else float("nan")]
        if name == "count":
            return [len(self.eval(args[0], env))]
        if name in ("sum", "avg", "min", "max"):
            items = self._atomize_seq(self.eval(args[0], env))
            if len(args) == 2:  # fn:sum($arg, $zero)
                zero = self._atomize_seq(self.eval(args[1], env))[:1]
                if not items:
                    return zero
            if not items:
                return [0] if name == "sum" else []
            strings = sum(
                1
                for a in items
                if isinstance(a, str) and not isinstance(a, UntypedAtomic)
            )
            if strings:
                # F&O 15.4: min/max over xs:string sequences compare by
                # codepoint order; any other string mix is err:FORG0006
                if name in ("min", "max") and strings == len(items):
                    return [min(items) if name == "min" else max(items)]
                raise DynamicError(
                    f"fn:{name} over non-numeric items", code="err:FORG0006"
                )
            atoms = [_to_number(a) for a in items]
            if name == "sum":
                s = sum(atoms)
            elif name == "avg":
                s = sum(atoms) / len(atoms)
            elif name == "min":
                s = min(atoms)
            else:
                s = max(atoms)
            if all(isinstance(a, int) for a in atoms) and name in ("sum", "min", "max"):
                return [int_in_range(int(s), "err:FOAR0002")]
            return [float(s)]
        if name == "empty":
            return [not self.eval(args[0], env)]
        if name == "exists":
            return [bool(self.eval(args[0], env))]
        if name == "not":
            return [not self._ebv(self.eval(args[0], env))]
        if name == "boolean":
            return [self._ebv(self.eval(args[0], env))]
        if name == "true":
            return [True]
        if name == "false":
            return [False]
        if name == "concat":
            out = []
            for a in args:
                v = self._first_atom(self.eval(a, env))
                out.append(_string_of_atom(v) if v is not None else "")
            return ["".join(out)]
        if name == "contains":
            s1 = self._string_arg(args[0], env)
            s2 = self._string_arg(args[1], env)
            return [s2 in s1]
        if name == "starts-with":
            s1 = self._string_arg(args[0], env)
            s2 = self._string_arg(args[1], env)
            return [s1.startswith(s2)]
        if name == "string-length":
            seq = self.eval(args[0], env) if args else self._e_ContextItem(None, env)
            v = self._first_atom(seq)
            return [len(_string_of_atom(v)) if v is not None else 0]
        if name == "ends-with":
            s1 = self._string_arg(args[0], env)
            s2 = self._string_arg(args[1], env)
            return [s1.endswith(s2)]
        if name == "substring-before":
            s1 = self._string_arg(args[0], env)
            s2 = self._string_arg(args[1], env)
            return [s1.partition(s2)[0] if s2 and s2 in s1 else ""]
        if name == "substring-after":
            s1 = self._string_arg(args[0], env)
            s2 = self._string_arg(args[1], env)
            return [s1.partition(s2)[2] if s2 and s2 in s1 else ""]
        if name == "substring":
            s = self._string_arg(args[0], env)
            start = self._single_number(args[1], env)
            if start is None:
                return [""]
            if len(args) == 3:
                length = self._single_number(args[2], env)
                if length is None:
                    return [""]
                return [xpath_substring(s, float(start), float(length))]
            return [xpath_substring(s, float(start))]
        if name == "upper-case":
            return [self._string_arg(args[0], env).upper()]
        if name == "lower-case":
            return [self._string_arg(args[0], env).lower()]
        if name == "normalize-space":
            return [" ".join(self._string_arg(args[0], env).split())]
        if name in ("floor", "ceiling", "round", "abs"):
            v = self._first_atom(self.eval(args[0], env))
            if v is None:
                return []
            n = _to_number(v)
            if isinstance(v, int) and not isinstance(v, bool):
                return [int_in_range(abs(n), "err:FOAR0002") if name == "abs" else n]
            import math

            wrap = XSDecimal if isinstance(v, XSDecimal) else float
            n = float(n)
            if math.isnan(n) or math.isinf(n):
                # floor/ceil/round of non-finite doubles are identities
                return [wrap(abs(n) if name == "abs" else n)]
            if name == "floor":
                return [wrap(math.floor(n))]
            if name == "ceiling":
                return [wrap(math.ceil(n))]
            if name == "round":
                return [wrap(math.floor(n + 0.5))]
            return [wrap(abs(n))]
        if name == "string-join":
            sep = " "
            if len(args) == 2 and isinstance(args[1], ast.Literal):
                sep = str(args[1].value)
            atoms = self._atomize_seq(self.eval(args[0], env))
            return [sep.join(_string_of_atom(a) for a in atoms)]
        if name == "fs:item-join":
            return [self._joined_string(self.eval(args[0], env))]
        if name == "distinct-values":
            seen = set()
            out = []
            for a in self._atomize_seq(self.eval(args[0], env)):
                key = _distinct_value_key(a)
                if key not in seen:
                    seen.add(key)
                    out.append(a)
            return out
        if name == "fs:ddo":
            seq = self.eval(args[0], env)
            seen = set()
            nodes = []
            for item in seq:
                if item not in seen:
                    seen.add(item)
                    nodes.append(item)
            return sorted(nodes, key=_node_order_key)
        if name == "reverse":
            return list(reversed(self.eval(args[0], env)))
        if name == "subsequence":
            seq = self.eval(args[0], env)
            b = _round_position(self._required_number(args[1], env))
            if len(args) == 3:
                e = b + _round_position(self._required_number(args[2], env))
            else:
                e = len(seq) + 1
            return [x for p, x in enumerate(seq, start=1) if b <= p < e]
        if name == "index-of":
            seq = self._atomize_seq(self.eval(args[0], env))
            needle = self._first_atom(self.eval(args[1], env))
            if needle is None:
                return []
            return [
                p for p, x in enumerate(seq, start=1) if _compare("eq", x, needle)
            ]
        if name == "insert-before":
            seq = self.eval(args[0], env)
            at = self._required_number(args[1], env)
            ins = self.eval(args[2], env)
            at = _round_position(at)
            if at != at:  # NaN: $position is an xs:integer
                raise DynamicError("cannot cast to xs:integer", code="err:FORG0001")
            cut = min(max(at - 1, 0), len(seq))
            return seq[:cut] + ins + seq[cut:]
        if name == "remove":
            seq = self.eval(args[0], env)
            p = _round_position(self._required_number(args[1], env))
            return [x for i, x in enumerate(seq, start=1) if i != p]
        if name == "deep-equal":
            s1 = self.eval(args[0], env)
            s2 = self.eval(args[1], env)
            if len(s1) != len(s2):
                return [False]
            return [all(self._deep_equal_item(x, y) for x, y in zip(s1, s2))]
        if name in ("zero-or-one", "exactly-one", "one-or-more"):
            return self.eval(args[0], env)
        if name == "position":
            if "fs:position" not in env:
                raise StaticError("fn:position() outside a predicate")
            return env["fs:position"]
        if name == "last":
            if "fs:last" not in env:
                raise StaticError("fn:last() outside a predicate")
            return env["fs:last"]
        if name == "name":
            seq = self.eval(args[0], env) if args else self._e_ContextItem(None, env)
            if not seq:
                return [""]
            item = seq[0]
            if isinstance(item, BNode):
                nid = int(arena.name[item.row])
                return [arena.pool.value(nid) if nid >= 0 else ""]
            if isinstance(item, BAttr):
                return [arena.pool.value(int(arena.attr_name[item.aid]))]
            return [""]
        raise StaticError(f"unknown function {name}/{len(args)}", code="err:XPST0017")

    def _string_arg(self, e: ast.Expr, env) -> str:
        v = self._first_atom(self.eval(e, env))
        return _string_of_atom(v) if v is not None else ""

    def _deep_equal_item(self, x, y) -> bool:
        from repro.relational.evaluate import _deep_equal_nodes

        node_x = isinstance(x, (BNode, BAttr))
        node_y = isinstance(y, (BNode, BAttr))
        if node_x != node_y:
            return False
        if isinstance(x, BNode) and isinstance(y, BNode):
            return _deep_equal_nodes(self.arena, x.row, y.row)
        if isinstance(x, BAttr) and isinstance(y, BAttr):
            return bool(
                self.arena.attr_name[x.aid] == self.arena.attr_name[y.aid]
                and self.arena.attr_value[x.aid] == self.arena.attr_value[y.aid]
            )
        return _compare("eq", x, y)

    # ---------------------------------------------------------------- model
    def _atomize_seq(self, seq: list) -> list:
        out = []
        for item in seq:
            if isinstance(item, BNode):
                out.append(
                    UntypedAtomic(
                        self.arena.pool.value(self.arena.string_value_id(item.row))
                    )
                )
            elif isinstance(item, BAttr):
                out.append(
                    UntypedAtomic(
                        self.arena.pool.value(int(self.arena.attr_value[item.aid]))
                    )
                )
            else:
                out.append(item)
        return out

    def _ebv(self, seq: list) -> bool:
        if not seq:
            return False
        first = seq[0]
        if isinstance(first, (BNode, BAttr)):
            return True
        if isinstance(first, bool):
            return first
        if isinstance(first, _NUMERIC):
            return first != 0 and first == first
        if isinstance(first, str):
            return len(first) > 0
        return True


# --------------------------------------------------------------------------
# atomic helpers (mirroring repro.relational.items semantics)
# --------------------------------------------------------------------------
def _distinct_value_key(a):
    """fn:distinct-values equality key: numerics compare by value across
    integer/decimal/double (``1`` equals ``1.0``, NaN equals NaN),
    strings and untyped compare as strings, booleans separately."""
    if isinstance(a, bool):
        return ("b", a)
    if isinstance(a, str):  # includes UntypedAtomic
        return ("s", str(a))
    if isinstance(a, _NUMERIC):
        v = float(a)
        return ("n", "NaN") if v != v else ("n", v)
    return ("o", a)


def _is_exact(v) -> bool:
    """True for exact numerics (xs:integer / xs:decimal literals)."""
    return (isinstance(v, int) and not isinstance(v, bool)) or isinstance(
        v, XSDecimal
    )


def _float_to_int(v: float, code: str) -> int:
    """``v`` truncated to xs:integer; NaN, ±INF and values outside int64
    raise ``code`` (the numpy kernels' ``doubles_to_ints``)."""
    if v != v or v in (float("inf"), float("-inf")):
        raise DynamicError(f"{v} is outside the xs:integer range", code=code)
    return int_in_range(int(v), code)


def _round_position(v: float | int) -> float | int:
    """``fn:round`` of a positional argument (subsequence, remove,
    insert-before); NaN and ±INF stay as they are — F&O compares
    positions with them, and nothing equals NaN."""
    if isinstance(v, int):  # already rounded, and exact
        return v
    v = float(v)
    return v if v != v or v in (float("inf"), float("-inf")) else xpath_round(v)


def _to_number(v) -> float | int:
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, _NUMERIC):
        return v
    try:
        text = str(v).strip()
        if text and ("." in text or "e" in text or "E" in text or text in ("INF", "-INF", "NaN")):
            return float(text)
        return int(text)
    except ValueError:
        return float("nan")


def _lexical(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_double(v)
    return str(v)


def _string_of_atom(v) -> str:
    return _lexical(v)


def _compare(op: str, a, b) -> bool:
    numeric = isinstance(a, _NUMERIC) or isinstance(b, _NUMERIC) or isinstance(a, bool) or isinstance(b, bool)
    if numeric:
        x, y = _to_number(a), _to_number(b)
    else:
        x, y = _string_of_atom(a), _string_of_atom(b)
    if op == "eq":
        return x == y
    if op == "ne":
        return x != y
    if op == "lt":
        return x < y
    if op == "le":
        return x <= y
    if op == "gt":
        return x > y
    return x >= y


def _order_key(atom, descending: bool, empty_greatest: bool):
    """Sort key matching the compiler's order_columns semantics: an empty
    key sorts as ±infinity inside the numeric class, NaN as -infinity."""
    if atom is None:
        sentinel = float("inf") if empty_greatest else float("-inf")
        key = (1, sentinel, "")
        if descending:
            cls, num, s = key
            return (-cls, -num, _InvertedStr(s))
        return key
    if isinstance(atom, bool) or isinstance(atom, _NUMERIC):
        v = float(_to_number(atom))
        if v != v:
            v = float("-inf")
        key = (1, v, "")
    elif isinstance(atom, str):
        key = (2, 0.0, atom)
    else:
        key = (3, 0.0, str(atom))
    if descending:
        cls, num, s = key
        return (-cls, -num, _InvertedStr(s))
    return key


class _InvertedStr:
    """Wrapper giving strings inverted comparison order (descending)."""

    __slots__ = ("s",)

    def __init__(self, s: str):
        self.s = s

    def __lt__(self, other):
        return self.s > other.s

    def __eq__(self, other):
        return isinstance(other, _InvertedStr) and self.s == other.s


def _node_order_key(item):
    if isinstance(item, BNode):
        return (item.row, -1)
    if isinstance(item, BAttr):
        return (9 << 60, item.aid)
    raise DynamicError("node comparison on a non-node item")
