"""The relational algebra of the paper's Table 1, as an operator DAG.

Operators are immutable nodes with identity-based hashing (plans are DAGs;
shared subplans are evaluated once by the memoising evaluator).  The
algebra is deliberately "assembly-style", mirroring the restrictions the
paper exploits:

* value joins are equi-joins (``Join``); the one θ-join, ``ThetaJoin``,
  is the where-clause join a general comparison compiles to — it
  filters its product while building it, so it never materialises the
  pairs a ``Select`` over ``Cross`` would discard;
* π (``Project``) renames/duplicates columns and never eliminates
  duplicate rows;
* ∪ (``Union``) is disjoint union — plain concatenation;
* ϱ (``RowNum``) is the MonetDB ``mark``-style row numbering with optional
  grouping and ordering;
* the staircase join (``StepJoin``), node constructors (``ElemConstr``,
  ``TextConstr``, ``AttrConstr``) and atomization (``Atomize``) are the
  "short-hands for efficient implementations" of Table 1.

Every node also carries three static analyses — its output ``columns``,
which of them are polymorphic ``item_columns``, and the column sets its
rows are ``unique_sets`` on — each computed on first use and then stored
on the node.  Nodes are immutable, so a cached analysis never goes stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.encoding.axes import Axis, NodeTest
from repro.errors import AlgebraError

#: A scalar operand of Select/Map: a column reference or a constant.
Operand = tuple  # ("col", name) | ("const", python value)


def col(name: str) -> Operand:
    """Operand referencing column ``name``."""
    return ("col", name)


def const(value) -> Operand:
    """Operand holding a literal value."""
    return ("const", value)


class _analysis:
    """A per-node analysis, computed on first access and stored on the
    node — ``functools.cached_property`` without the class-wide lock it
    takes before Python 3.12 (analyses recurse into children, and
    concurrent compiles must not serialise on one lock), and set as an
    attribute rather than through ``__dict__``, which would give every
    node a dictionary object of its own (more for the garbage collector
    to scan, slower attribute reads for the evaluator)."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, node, owner=None):
        if node is None:
            return self
        value = self.fn(node)
        object.__setattr__(node, self.name, value)  # nodes are frozen
        return value


@dataclass(frozen=True, eq=False)
class Op:
    """Base class of all algebra operators."""

    @property
    def children(self) -> tuple["Op", ...]:
        """The operator's input plans."""
        return ()

    @_analysis
    def columns(self) -> tuple[str, ...]:
        """The output schema: column names, in order."""
        return _columns(self)

    @_analysis
    def item_columns(self) -> frozenset:
        """Which output columns are polymorphic item columns (best effort)."""
        return _item_columns(self)

    @_analysis
    def unique_sets(self) -> frozenset:
        """Column sets on which the output rows are provably unique.

        The empty set means the relation has at most one row (then every
        key set is trivially unique).  Best-effort and capped: a missing
        fact is always safe, it only lets the optimizer prove less.
        """
        facts = _unique(self)
        if len(facts) <= _MAX_UNIQUE_SETS:
            return facts
        # deterministic truncation: prefer the most general (smallest) facts
        ordered = sorted(facts, key=lambda s: (len(s), sorted(s)))
        return frozenset(ordered[:_MAX_UNIQUE_SETS])

    def label(self) -> str:
        """Short human-readable label (dot / ASCII plan rendering)."""
        return type(self).__name__

    def struct_key(self, child_ids: tuple[int, ...]) -> tuple:
        """Structural identity key given dedup ids of the children (CSE)."""
        return (type(self).__name__,) + self._params() + (child_ids,)

    def with_children(self, children: tuple["Op", ...]) -> "Op":
        """This operator over new inputs (itself when they are the same)."""
        if children == self.children:
            return self
        return type(self)(*children, *self._params())

    def _params(self) -> tuple:
        # every field that is not an input, in declaration order (inputs
        # come first): what ``struct_key`` and ``with_children`` rebuild
        # from — leaves, never rebuilt, may encode theirs differently
        return ()


@dataclass(frozen=True, eq=False)
class Lit(Op):
    """A literal table.  ``item_cols`` marks polymorphic columns; their
    values in ``rows`` are Python scalars, encoded at evaluation time."""

    schema: tuple[str, ...]
    rows: tuple[tuple, ...]
    item_cols: frozenset = field(default_factory=frozenset)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        if not self.rows:
            return f"∅({','.join(self.schema)})"
        return f"lit({','.join(self.schema)};{len(self.rows)}r)"

    def _params(self) -> tuple:
        # NB: row values are tagged with their Python type — ``True == 1``
        # and ``hash(True) == hash(1)``, so untyped rows would let CSE merge
        # a boolean literal table with an integer one.
        typed_rows = tuple(
            tuple((type(v).__name__, v) for v in row) for row in self.rows
        )
        return (self.schema, typed_rows, tuple(sorted(self.item_cols)))


@dataclass(frozen=True, eq=False)
class Project(Op):
    """π — keep/rename/duplicate columns.  ``cols`` is ``(new, old)``."""

    child: Op
    cols: tuple[tuple[str, str], ...]

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        parts = [n if n == o else f"{n}:{o}" for n, o in self.cols]
        return f"π {','.join(parts)}"

    def _params(self):
        return (self.cols,)


@dataclass(frozen=True, eq=False)
class Select(Op):
    """σ — keep rows satisfying a simple comparison predicate."""

    child: Op
    op: str  # eq ne lt le gt ge
    lhs: Operand
    rhs: Operand

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"σ {_fmt(self.lhs)} {self.op} {_fmt(self.rhs)}"

    def _params(self):
        return (self.op, self.lhs, self.rhs)


@dataclass(frozen=True, eq=False)
class Union(Op):
    """∪ — disjoint union (concatenation) of same-schema inputs."""

    inputs: tuple[Op, ...]

    @property
    def children(self):
        """The operator's input plans."""
        return self.inputs

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "∪"

    def with_children(self, children: tuple[Op, ...]) -> Op:
        """This union over new inputs (itself when they are the same)."""
        return self if children == self.inputs else Union(children)


@dataclass(frozen=True, eq=False)
class Difference(Op):
    """\\ — rows of ``left`` whose key is absent from ``right``."""

    left: Op
    right: Op
    keys: tuple[str, ...]

    @property
    def children(self):
        """The operator's input plans."""
        return (self.left, self.right)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"\\ {','.join(self.keys)}"

    def _params(self):
        return (self.keys,)


@dataclass(frozen=True, eq=False)
class Distinct(Op):
    """δ — duplicate elimination on ``keys``.

    Keeps the first occurrence; "first" means smallest ``order_col`` value
    when one is given (sequence order), physical row order otherwise.
    """

    child: Op
    keys: tuple[str, ...]
    order_col: str | None = None

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"δ {','.join(self.keys)}"

    def _params(self):
        return (self.keys, self.order_col)


@dataclass(frozen=True, eq=False)
class Join(Op):
    """⋈ — inner equi-join on ``keys`` = ((lcol, rcol), ...).

    Output schema is the union of both sides' columns, which must be
    disjoint (the compiler renames first, exactly like the paper's plans).
    """

    left: Op
    right: Op
    keys: tuple[tuple[str, str], ...]

    @property
    def children(self):
        """The operator's input plans."""
        return (self.left, self.right)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "⋈ " + ",".join(f"{l}={r}" for l, r in self.keys)

    def _params(self):
        return (self.keys,)


@dataclass(frozen=True, eq=False)
class SemiJoin(Op):
    """⋉ — rows of ``left`` with at least one key match in ``right``."""

    left: Op
    right: Op
    keys: tuple[tuple[str, str], ...]

    @property
    def children(self):
        """The operator's input plans."""
        return (self.left, self.right)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "⋉ " + ",".join(f"{l}={r}" for l, r in self.keys)

    def _params(self):
        return (self.keys,)


@dataclass(frozen=True, eq=False)
class Cross(Op):
    """× — Cartesian product (schemas must be disjoint)."""

    left: Op
    right: Op

    @property
    def children(self):
        """The operator's input plans."""
        return (self.left, self.right)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "×"


@dataclass(frozen=True, eq=False)
class ThetaJoin(Op):
    """⋈θ — band join: the rows of ``left ⋈ right`` on ``keys`` (of
    ``left × right`` when ``keys`` is empty) whose item columns satisfy
    the general comparison ``lhs op rhs``.

    ``lhs`` and ``rhs`` name one column of each side, in either order.
    Rows come in the filtered product's order — left-major, right rows
    ascending — as σ over ⋈/× would deliver them, but the pairs that fail
    the comparison are never built.
    """

    left: Op
    right: Op
    keys: tuple[tuple[str, str], ...]
    op: str  # eq ne lt le gt ge
    lhs: str
    rhs: str

    @property
    def children(self):
        """The operator's input plans."""
        return (self.left, self.right)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        keys = "".join(f",{l}={r}" for l, r in self.keys)
        return f"⋈θ {self.lhs} {self.op} {self.rhs}{keys}"

    def _params(self):
        return (self.keys, self.op, self.lhs, self.rhs)


@dataclass(frozen=True, eq=False)
class RowNum(Op):
    """ϱ — dense 1-based row numbering.

    Numbers rows by ``order`` (sequence of ``(column, descending)``)
    within each ``group`` (or globally when ``group`` is None).  This is
    MonetDB's ``mark`` / SQL:1999 ``DENSE_RANK`` in the paper's notation
    ``%target:(order)/group``.
    """

    child: Op
    target: str
    order: tuple[tuple[str, bool], ...]
    group: str | None = None

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        order = ",".join(c + ("↓" if d else "") for c, d in self.order)
        group = f"/{self.group}" if self.group else ""
        return f"ϱ {self.target}:({order}){group}"

    def _params(self):
        return (self.target, self.order, self.group)


@dataclass(frozen=True, eq=False)
class Map(Op):
    """⊛ — elementwise function over columns/constants (arith, cmp, ...)."""

    child: Op
    fn: str
    target: str
    args: tuple[Operand, ...]

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"⊛ {self.target}:{self.fn}({','.join(_fmt(a) for a in self.args)})"

    def _params(self):
        return (self.fn, self.target, self.args)


@dataclass(frozen=True, eq=False)
class Aggr(Op):
    """Aggregation (count/sum/min/max/avg/str_join) per ``group``.

    Output schema: ``(group, target)`` — or just ``(target,)`` with a
    single row when ``group`` is None.  Groups absent from the input are
    absent from the output (the compiler fills defaults explicitly, e.g.
    ``fn:count`` of an empty sequence).
    """

    child: Op
    kind: str
    target: str
    arg: str | None
    group: str | None
    sep: str = " "
    order_col: str | None = None  # order-sensitive aggregates (str_join)

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        group = f"/{self.group}" if self.group else ""
        return f"{self.kind} {self.target}:{self.arg or '*'}{group}"

    def _params(self):
        return (self.kind, self.target, self.arg, self.group, self.sep, self.order_col)


@dataclass(frozen=True, eq=False)
class StepJoin(Op):
    """Staircase join: evaluate an XPath axis step for every context node.

    Input: a table with columns ``(iter_col, item_col)`` of node items.
    Output: ``(iter_col, item_col)`` — the axis result, duplicate-free and
    document-ordered per ``iter`` (the axis-step post-condition XQuery
    requires).
    """

    child: Op
    axis: Axis
    test: NodeTest
    iter_col: str = "iter"
    item_col: str = "item"

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"⤲ {self.axis.value}::{self.test}"

    def _params(self):
        return (self.axis, self.test, self.iter_col, self.item_col)


@dataclass(frozen=True, eq=False)
class StructuralTwigJoin(Op):
    """Multi-way structural join: a chain of axis steps matched as one twig.

    ``steps`` is the ordered chain ``((axis, test), ...)`` that a run of
    pairwise :class:`StepJoin` operators would have evaluated one at a
    time; the ``wcoj`` optimizer mode collapses such runs into this single
    operator.  The evaluator matches the whole chain in one pass over the
    sorted pre/size ranges (worst-case-optimal in the spirit of leapfrog
    triejoin: no intermediate result is ever materialised beyond the
    frontier of context nodes).  Output has the same post-condition as the
    final ``StepJoin`` it replaces: ``(iter_col, item_col)``, duplicate-
    free and document-ordered per ``iter``.
    """

    child: Op
    steps: tuple[tuple[Axis, NodeTest], ...]
    iter_col: str = "iter"
    item_col: str = "item"

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        path = "/".join(f"{a.value}::{t}" for a, t in self.steps)
        return f"⋈⤲ {path}"

    def _params(self):
        return (self.steps, self.iter_col, self.item_col)


@dataclass(frozen=True, eq=False)
class Atomize(Op):
    """fn:data — typed-value extraction: nodes become ``xs:untypedAtomic``
    string values, atomic items pass through."""

    child: Op
    target: str
    arg: str

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"data {self.target}:{self.arg}"

    def _params(self):
        return (self.target, self.arg)


@dataclass(frozen=True, eq=False)
class ElemConstr(Op):
    """ε — element construction, one new element per ``iter``.

    ``names`` has columns ``(iter, item)`` (one QName string per iter);
    ``content`` has ``(iter, pos, item)`` whose items are copied into the
    new element: node items are deep-copied subtrees, attribute items
    become attributes, adjacent atomic items merge into text nodes.
    Output: ``(iter, item)`` with the freshly constructed node ids.
    """

    names: Op
    content: Op

    @property
    def children(self):
        """The operator's input plans."""
        return (self.names, self.content)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "ε elem"


@dataclass(frozen=True, eq=False)
class TextConstr(Op):
    """τ — text-node construction, one new text node per ``iter``.

    ``content`` has ``(iter, item)`` with one string per iter.
    """

    content: Op

    @property
    def children(self):
        """The operator's input plans."""
        return (self.content,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "τ text"


@dataclass(frozen=True, eq=False)
class AttrConstr(Op):
    """Attribute construction: ``names``/``values`` are ``(iter, item)``
    string tables; output ``(iter, item)`` of fresh attribute items."""

    names: Op
    values: Op

    @property
    def children(self):
        """The operator's input plans."""
        return (self.names, self.values)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "ε attr"


@dataclass(frozen=True, eq=False)
class GenRange(Op):
    """``lo to hi`` range expansion: input has per-iter integer columns
    ``lo_col``/``hi_col``; output is ``(iter, pos, item)`` with one row per
    integer of each iter's inclusive range."""

    child: Op
    lo_col: str
    hi_col: str

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"range {self.lo_col}..{self.hi_col}"

    def _params(self):
        return (self.lo_col, self.hi_col)


@dataclass(frozen=True, eq=False)
class DocRoot(Op):
    """fn:doc — one row ``(iter=1, pos=1, item=document node)``."""

    uri: str

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"doc({self.uri!r})"

    def _params(self):
        return (self.uri,)


@dataclass(frozen=True, eq=False)
class ParamTable(Op):
    """An external-variable parameter table (``declare variable $x
    external``).

    A leaf whose contents are *not* known at compile time: at evaluation
    the binding supplied through ``EvalContext.params[name]`` expands to
    one row ``(pos, item)`` per item of the bound sequence (dense ``pos``
    1..n).  This is what makes a compiled plan reusable across
    executions — the plan cache stores the DAG once, and each execution
    resolves the parameter table against its own bindings.  When
    ``type_name`` is set (``declare variable $x as xs:integer external``)
    the binding is type-checked at bind time.
    """

    name: str
    type_name: str | None = None

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        suffix = f" as {self.type_name}" if self.type_name else ""
        return f"param ${self.name}{suffix}"

    def _params(self):
        return (self.name, self.type_name)


def _fmt(operand: Operand) -> str:
    tag, v = operand
    return str(v) if tag == "col" else repr(v)


# --------------------------------------------------------------------------
# static analyses (cached on the node by ``Op.columns`` & co.)
# --------------------------------------------------------------------------
def _columns(op: Op) -> tuple[str, ...]:
    if isinstance(op, Lit):
        return op.schema
    if isinstance(op, Project):
        return tuple(new for new, _ in op.cols)
    if isinstance(op, (Select, Distinct)):
        return op.child.columns
    if isinstance(op, Union):
        return op.inputs[0].columns
    if isinstance(op, (Difference, SemiJoin)):
        return op.left.columns
    if isinstance(op, (Join, ThetaJoin, Cross)):
        return op.left.columns + op.right.columns
    if isinstance(op, (RowNum, Map, Atomize)):
        base = op.child.columns
        return base if op.target in base else base + (op.target,)
    if isinstance(op, Aggr):
        return (op.group, op.target) if op.group else (op.target,)
    if isinstance(op, (StepJoin, StructuralTwigJoin)):
        return (op.iter_col, op.item_col)
    if isinstance(op, (ElemConstr, TextConstr, AttrConstr)):
        return ("iter", "item")
    if isinstance(op, (DocRoot, GenRange)):
        return ("iter", "pos", "item")
    if isinstance(op, ParamTable):
        return ("pos", "item")
    raise AlgebraError(f"cannot infer schema of {type(op).__name__}")


def _item_columns(op: Op) -> frozenset:
    if isinstance(op, Lit):
        return op.item_cols
    if isinstance(op, Project):
        child = op.child.item_columns
        return frozenset(new for new, old in op.cols if old in child)
    if isinstance(op, (Select, Distinct, RowNum)):
        return op.child.item_columns
    if isinstance(op, Union):
        return op.inputs[0].item_columns
    if isinstance(op, (Difference, SemiJoin)):
        return op.left.item_columns
    if isinstance(op, (Join, ThetaJoin, Cross)):
        return op.left.item_columns | op.right.item_columns
    if isinstance(op, Map):
        base = op.child.item_columns
        if op.fn in ("kind_code", "atom_cls", "atom_key"):
            return base - {op.target}
        return base | {op.target}
    if isinstance(op, Atomize):
        return op.child.item_columns | {op.target}
    if isinstance(op, Aggr):
        if op.kind == "count":
            return frozenset()
        return frozenset({op.target})
    if isinstance(op, (StepJoin, StructuralTwigJoin)):
        return frozenset({op.item_col})
    if isinstance(op, (ElemConstr, TextConstr, AttrConstr)):
        return frozenset({"item"})
    if isinstance(op, (DocRoot, GenRange, ParamTable)):
        return frozenset({"item"})
    return frozenset()


_MAX_UNIQUE_SETS = 8


def _unique(op: Op) -> frozenset:
    if isinstance(op, Lit):
        return frozenset({frozenset()}) if len(op.rows) <= 1 else frozenset()
    if isinstance(op, DocRoot):
        return frozenset({frozenset()})
    if isinstance(op, ParamTable):
        return frozenset({frozenset({"pos"})})
    if isinstance(op, (StepJoin, StructuralTwigJoin)):
        return frozenset({frozenset({op.iter_col, op.item_col})})
    if isinstance(op, GenRange):
        # each iteration's range has distinct values and dense pos — but
        # only if no iteration occurs twice in the input
        if any(u <= frozenset({"iter"}) for u in op.child.unique_sets):
            return frozenset(
                {frozenset({"iter", "pos"}), frozenset({"iter", "item"})}
            )
        return frozenset()
    if isinstance(op, Distinct):
        return op.child.unique_sets | frozenset({frozenset(op.keys)})
    if isinstance(op, (Select, SemiJoin, Difference)):
        return op.children[0].unique_sets
    if isinstance(op, (Map, Atomize)):
        # the target may overwrite a column: facts mentioning it go stale
        return frozenset(s for s in op.child.unique_sets if op.target not in s)
    if isinstance(op, RowNum):
        base = frozenset(s for s in op.child.unique_sets if op.target not in s)
        mine = frozenset({op.target}) if op.group is None else frozenset(
            {op.group, op.target}
        )
        return base | frozenset({mine})
    if isinstance(op, Project):
        out = set()
        by_old: dict[str, str] = {}
        for new, old in op.cols:
            by_old.setdefault(old, new)
        for s in op.child.unique_sets:
            if all(c in by_old for c in s):
                out.add(frozenset(by_old[c] for c in s))
        return frozenset(out)
    if isinstance(op, Aggr):
        if op.group is None:
            return frozenset({frozenset()})
        return frozenset({frozenset({op.group})})
    if isinstance(op, (Join, ThetaJoin, Cross)):
        lsets = op.left.unique_sets
        rsets = op.right.unique_sets
        out = {ls | rs for ls in lsets for rs in rsets}
        if not isinstance(op, Cross):
            # right unique on the join keys ⇒ each left row matches ≤ 1
            # (⋈θ keeps a subset of the key join's rows)
            rkeys = frozenset(r for _, r in op.keys)
            if any(rs <= rkeys for rs in rsets):
                out |= set(lsets)
            lkeys = frozenset(l for l, _ in op.keys)
            if any(ls <= lkeys for ls in lsets):
                out |= set(rsets)
        return frozenset(out)
    return frozenset()


# --------------------------------------------------------------------------
# DAG utilities
# --------------------------------------------------------------------------
def walk(root: Op) -> Iterator[Op]:
    """Yield every distinct operator of the DAG, children before parents."""
    seen: set[Op] = set()  # operators hash by identity
    stack: list[tuple[Op, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded:
            seen.add(node)
            yield node
        else:
            stack.append((node, True))
            for child in node.children:
                if child not in seen:
                    stack.append((child, False))


def op_count(root: Op) -> int:
    """Number of distinct operators in the plan DAG (paper: Q8 ≈ 120)."""
    return sum(1 for _ in walk(root))
