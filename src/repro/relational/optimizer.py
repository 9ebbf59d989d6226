"""The rewrite-pass plan optimizer.

Loop-lifted plans are large and mechanical — the paper reports ~120
operators for XMark Q8 before optimization and cites peephole-style
rewriting [Grust, "Purely Relational FLWORs", XIME-P 2005] as the remedy.
This module organises that rewriting as nine **named rewrite passes**
over the algebra DAG, driven by :func:`optimize`; per-pass statistics
(runs, rewrites, operator counts, estimated root cardinality, seconds)
surface through :class:`OptimizerStats` into ``Session.explain`` and the
CLI.

Six passes are **local rules** — node-local rewrites that only look at a
node and the static analyses cached on its inputs:

* **cse** — hash-consing: structurally identical subplans are shared
  (loop-lifting emits the same ``loop`` relation many times);
* **fold** — compile-time evaluation: σ/π over literal tables, unions of
  literals, and empty-input propagation;
* **fuse_select** — ``σ (t = true) ∘ ⊛ t:cmp(a,b)`` becomes a direct
  ``σ a cmp b``, exposing the comparison to the other passes;
* **join_recognition** — ``σ (a = b)`` over a cross product (or over an
  equi-join, as an extra key) becomes an equi-join when both columns are
  plain numeric columns;
* **distinct_elim** — δ over provably duplicate-free input is dropped
  (e.g. directly above a staircase join, whose output is already
  sorted-distinct per iteration);
* **merge_projects** — π ∘ π collapses, identity π disappears.

The other three are **global passes**, each needing a whole-DAG analysis:

* **pushdown** — selections (σ) and semijoin restrictions (⋉) move below
  π, ⋈, ⋈θ, ×, ⊛, ∪, ϱ, δ, aggregates and staircase joins whenever they only
  constrain one input, so downstream operators see fewer rows (needs
  every node's consumer count);
* **prune** — required-column (*icols*) analysis: only columns an
  ancestor consumes are kept; dead ``Map``/``RowNum``/``Atomize``
  targets are dropped entirely (needs every node's consumers' needs);
* **join_order** — join inputs are swapped (under a schema-restoring π)
  so the side the sort-merge kernel sorts is the one estimated smaller,
  using :class:`CardinalityEstimator` seeded from literal/document leaves
  (needs to know which joins sit below order-sensitive consumers).

**The driver** does each piece of work once.  The local rules run as one
children-first traversal, the normalizer (:class:`_Normalizer`): every
node is hash-consed and offered the rules registered for its type, to a
local fixpoint.  Nodes are immutable, so a node it has settled never
needs another look; only nodes a global pass created since are visited.
Then rounds of ``pushdown``, ``prune``, ``join_order`` run, each followed
by the normalizer when it changed the plan, until a round in which no
global pass changes anything.  Every pass returns the very same object
for an unchanged subtree, so "changed" is an identity test, and a pass
is skipped on a plan it already left unchanged.  The global passes share
one children-first walk per distinct plan, which also yields the
operator counts of the statistics; output schemas, item columns and
uniqueness facts are cached on the nodes themselves
(:attr:`~repro.relational.algebra.Op.columns` & co.).

All rewrites except ``join_order`` are row-order-exact; ``join_order``
preserves the multiset of rows and refuses to reorder joins beneath any
consumer whose result could depend on physical row order (δ/str_join
without an order column, ϱ with ambiguous ties — see
:func:`_order_sensitive`).  The plan-equivalence test corpus guards all
of it end to end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.encoding.axes import Axis
from repro.errors import AlgebraError
from repro.relational import algebra as alg


# --------------------------------------------------------------------------
# cardinality estimation
# --------------------------------------------------------------------------
#: crude textbook selectivities for σ predicates (column vs constant /
#: column vs column); only *relative* magnitudes matter, for join ordering
_SEL_EQ_CONST = 0.1
_SEL_CMP_CONST = 0.4
_SEL_COL_COL = 0.25

#: per-axis output growth factors used by :class:`CardinalityEstimator`
_UNIT_AXES = frozenset({Axis.SELF, Axis.PARENT, Axis.ATTRIBUTE})
_DEEP_AXES = frozenset(
    {Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.FOLLOWING, Axis.PRECEDING}
)


@dataclass
class CardinalityEstimator:
    """Simple bottom-up row-count estimates for plan DAGs.

    Estimates are seeded at the leaves — ``Lit`` row counts, ``DocRoot``
    (one row), ``GenRange`` expansion — and scaled upward with document
    statistics taken from the :class:`~repro.encoding.arena.NodeArena`
    (total shredded nodes per document, mean branching factor).  They are
    deliberately crude: the only consumer that *decides* anything with
    them is the ``join_order`` pass, which needs no more than "which join
    input is likely larger"; ``OptimizerStats`` additionally reports them
    for observability.
    """

    #: per-document shredded node counts (uri → rows of the node table)
    doc_rows: dict[str, float] = field(default_factory=dict)
    #: mean children per element — the child-axis growth factor
    child_fanout: float = 4.0
    #: growth factor of descendant-flavoured axes
    descendant_fanout: float = 16.0

    @classmethod
    def from_database(cls, arena, documents: dict[str, int]) -> "CardinalityEstimator":
        """Seed an estimator from a node arena and its document catalog."""
        # statistics must not fault cold fragments in: subtree_nodes and
        # logical_column answer from the paging records/memmaps directly
        doc_rows = {
            uri: float(arena.subtree_nodes(root)) for uri, root in documents.items()
        }
        total = sum(doc_rows.values())
        child_fanout, descendant_fanout = 4.0, 16.0
        if total > 1 and arena.num_nodes:
            level = arena.logical_column("level")
            depth = float(level.max()) if len(level) else 1.0
            depth = max(depth, 1.0)
            # nodes ≈ fanout^depth  ⇒  fanout ≈ nodes^(1/depth)
            child_fanout = min(max(total ** (1.0 / depth), 2.0), 64.0)
            descendant_fanout = min(max(child_fanout**2, 16.0), total)
        return cls(doc_rows, child_fanout, descendant_fanout)

    def estimate(self, op: alg.Op, memo: dict | None = None) -> float:
        """Estimated number of output rows of ``op`` (never below 0).

        ``memo`` is keyed by the operator objects themselves (operators
        hash by identity), so one memo can safely be reused across
        several plans sharing subtrees.
        """
        if memo is None:
            memo = {}
        cached = memo.get(op)
        if cached is not None:
            return cached
        result = self._estimate(op, memo)
        memo[op] = result
        return result

    def _estimate(self, op: alg.Op, memo) -> float:
        est = lambda c: self.estimate(c, memo)  # noqa: E731
        if isinstance(op, alg.Lit):
            return float(len(op.rows))
        if isinstance(op, alg.DocRoot):
            return 1.0
        if isinstance(op, alg.ParamTable):
            return 4.0  # bindings are unknown at compile time
        if isinstance(op, (alg.Project, alg.Map, alg.Atomize, alg.RowNum)):
            return est(op.child)
        if isinstance(op, alg.Select):
            consts = sum(1 for tag, _ in (op.lhs, op.rhs) if tag == "const")
            if consts:
                sel = _SEL_EQ_CONST if op.op == "eq" else _SEL_CMP_CONST
            else:
                sel = _SEL_COL_COL
            return est(op.child) * sel
        if isinstance(op, alg.Union):
            return sum(est(i) for i in op.inputs)
        if isinstance(op, alg.Difference):
            return est(op.left) * 0.6
        if isinstance(op, alg.SemiJoin):
            return est(op.left) * 0.6
        if isinstance(op, alg.Distinct):
            return est(op.child) * 0.6
        if isinstance(op, alg.Join):
            # assume a foreign-key-flavoured equi-join
            return max(est(op.left), est(op.right))
        if isinstance(op, alg.Cross):
            return est(op.left) * est(op.right)
        if isinstance(op, alg.ThetaJoin):
            # the σ over ⋈/× it stands for
            pairs = max(est(op.left), est(op.right)) if op.keys else est(op.left) * est(op.right)
            return pairs * _SEL_COL_COL
        if isinstance(op, alg.Aggr):
            if op.group is None:
                return 1.0
            return max(est(op.child) * 0.2, 1.0)
        if isinstance(op, alg.StepJoin):
            if op.axis in _UNIT_AXES:
                fanout = 1.0
            elif op.axis in _DEEP_AXES:
                fanout = self.descendant_fanout
                if self.doc_rows and self._reaches_doc(op.child, memo):
                    # a descendant-flavoured step fanning out of a document
                    # root scans whole documents, not a fixed factor
                    fanout = max(fanout, max(self.doc_rows.values()))
            else:
                fanout = self.child_fanout
            return est(op.child) * fanout
        if isinstance(op, alg.GenRange):
            return est(op.child) * 8.0
        if isinstance(op, (alg.ElemConstr, alg.AttrConstr)):
            return est(op.children[0])
        if isinstance(op, alg.TextConstr):
            return est(op.content)
        return 1.0

    def _reaches_doc(self, op: alg.Op, memo) -> bool:
        """Does ``op``'s subtree contain a ``DocRoot`` leaf?  (Memoised in
        the same dict as the row estimates, under tagged keys.)"""
        key = ("doc", op)
        cached = memo.get(key)
        if cached is not None:
            return cached
        memo[key] = False  # cycle-safe default; plans are DAGs anyway
        result = isinstance(op, alg.DocRoot) or any(
            self._reaches_doc(c, memo) for c in op.children
        )
        memo[key] = result
        return result


# --------------------------------------------------------------------------
# optimizer statistics
# --------------------------------------------------------------------------
@dataclass
class PassStats:
    """Aggregated statistics of one named rewrite pass across a run."""

    #: registry name of the pass (see :data:`PASS_NAMES`)
    name: str
    #: how many times the pass ran: a global pass's applications, or the
    #: normalizer traversals a local rule took part in
    runs: int = 0
    #: total rewrites the pass fired
    rewrites: int = 0
    #: operator count before the pass first ran
    ops_before: int = 0
    #: operator count after the pass most recently ran
    ops_after: int = 0
    #: estimated root cardinality after the pass most recently ran
    est_rows: float | None = None
    #: total wall-clock seconds spent inside the pass across all runs
    seconds: float = 0.0


@dataclass
class OptimizerStats:
    """Plan-level and per-pass optimizer counters (benchmark E6, explain)."""

    #: operator count of the plan handed to :func:`optimize`
    ops_before: int = 0
    #: operator count of the returned plan
    ops_after: int = 0
    #: rounds of the global passes executed
    passes: int = 0
    #: per-pass statistics, in pipeline order
    pass_stats: list[PassStats] = field(default_factory=list)
    #: estimated root cardinality of the optimized plan
    estimated_rows: float | None = None

    @property
    def reduction_pct(self) -> float:
        """Plan-size reduction achieved, as a percentage of ``ops_before``."""
        if self.ops_before == 0:
            return 0.0
        return 100.0 * (self.ops_before - self.ops_after) / self.ops_before

    def pass_table(self) -> str:
        """The per-pass statistics as an aligned text table."""
        header = (
            f"{'pass':<18}{'runs':>5}{'fired':>7}{'ops in':>8}"
            f"{'ops out':>9}{'est rows':>10}{'ms':>8}"
        )
        lines = [header]
        for p in self.pass_stats:
            est = f"{p.est_rows:,.0f}" if p.est_rows is not None else "-"
            lines.append(
                f"{p.name:<18}{p.runs:>5}{p.rewrites:>7}{p.ops_before:>8}"
                f"{p.ops_after:>9}{est:>10}{p.seconds * 1000.0:>8.2f}"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------------
# optimizer driver
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class RewritePass:
    """A named, stats-reporting rewrite: a local rule or a global pass."""

    #: registry name (what ``disabled=`` and the CLI refer to)
    name: str
    #: one-line description (docs, ``--explain`` output)
    description: str
    #: a global pass: ``(topo, estimate) → (new_root, rewrites)``, where
    #: ``topo`` lists the plan's operators children-first (root last)
    fn: Callable | None = None
    #: a local rule (``fn`` is None): operator type → ``node →
    #: replacement | None``, for the normalizer to dispatch on — empty for
    #: ``cse``, which is the normalizer's own hash-consing
    rules: dict = field(default_factory=dict)

    @property
    def local(self) -> bool:
        """Is this a local rule, applied by the normalizer?"""
        return self.fn is None


_MAX_ROUNDS = 10


def check_disabled_passes(names) -> frozenset[str]:
    """``names`` as a frozenset, once every one is a member of
    :data:`PASS_NAMES`; otherwise :class:`~repro.errors.AlgebraError`
    naming the unknown ones.  One check shared by :func:`optimize`, the
    session options and the CLI's ``--disable-pass``."""
    names = frozenset(names)
    unknown = names - set(PASS_NAMES)
    if unknown:
        raise AlgebraError(
            f"unknown optimizer pass(es): {', '.join(sorted(unknown))} "
            f"(available: {', '.join(PASS_NAMES)})"
        )
    return names


def optimize(
    root: alg.Op,
    stats: OptimizerStats | None = None,
    *,
    disabled: frozenset[str] | set[str] | tuple = frozenset(),
    estimator: CardinalityEstimator | None = None,
    trace: list | None = None,
) -> alg.Op:
    """Normalize the plan, then run rounds of the global passes until
    none changes it (bounded).

    ``disabled`` names passes to skip (members of :data:`PASS_NAMES`,
    see :func:`check_disabled_passes`); ``estimator`` seeds cardinality
    estimation (a default, statistics-free estimator is used when
    omitted); ``trace``, when a list, receives one
    ``(label, plan)`` snapshot after every step that changed the plan —
    a global pass's name, or the local rules that fired in a normalizer
    traversal joined by ``+`` (``"cse+fold"``) — the hook behind
    ``examples/plan_explorer.py``'s per-pass diffs.
    """
    disabled = check_disabled_passes(disabled)
    local = [p for p in PASSES if p.local and p.name not in disabled]
    passes = [p for p in PASSES if not p.local and p.name not in disabled]
    collect = stats is not None
    est = estimator if estimator is not None else CardinalityEstimator()
    # one object-keyed estimate memo for the whole run: join_order and the
    # statistics share it, and nodes surviving a pass keep their estimates
    est_memo: dict = {}

    def estimate(op: alg.Op) -> float:
        return est.estimate(op, est_memo)

    normalizer = _Normalizer(local, timed=collect)
    per = {p.name: PassStats(p.name) for p in PASSES if p.name not in disabled}
    # A pass's ops_after and est_rows describe the next plan counted: the
    # walk a global pass needs anyway counts the plan, so the steps since
    # the last count wait for it.  ``after`` keeps the plan each pass's
    # numbers describe; their estimates are taken once, at the end.
    ops = None  # operator count of the current plan, None while unknown
    waiting: list[PassStats] = []
    after: dict[str, alg.Op] = {}
    topo: list[alg.Op] = []  # the children-first walk of the current plan

    def counted(n: int) -> None:
        nonlocal ops
        ops = n
        for ps in waiting:
            ps.ops_after = n
            after[ps.name] = root
        waiting.clear()

    if collect:
        counted(alg.op_count(root))
        stats.ops_before = ops

    def note(runs: list[tuple[PassStats, int, float]], changed: bool) -> None:
        nonlocal ops
        for ps, fired, seconds in runs:
            if ps.runs == 0:
                ps.ops_before = ops
            ps.runs += 1
            ps.rewrites += fired
            ps.seconds += seconds
        waiting.extend(ps for ps, _, _ in runs)
        if changed:
            ops = None
        elif ops is not None:
            counted(ops)

    def normalize() -> None:
        nonlocal root
        fired0 = dict(normalizer.fired)
        seconds0 = dict(normalizer.seconds)
        new_root = normalizer(root)
        changed = new_root is not root
        root = new_root
        if collect:
            note(
                [
                    (per[p.name], normalizer.fired[p.name] - fired0[p.name],
                     normalizer.seconds[p.name] - seconds0[p.name])
                    for p in local
                ],
                changed,
            )
        if trace is not None and changed:
            label = "+".join(
                p.name for p in local if normalizer.fired[p.name] > fired0[p.name]
            )
            trace.append((label, root))

    def apply(p: RewritePass) -> bool:
        nonlocal root, topo
        if not topo or topo[-1] is not root:
            # one walk per distinct plan, shared by the passes that see it
            topo = list(alg.walk(root))
            counted(len(topo))
        t0 = time.perf_counter()
        new_root, fired = p.fn(topo, estimate)
        elapsed = time.perf_counter() - t0
        changed = new_root is not root
        root = new_root
        if collect:
            note([(per[p.name], fired, elapsed)], changed)
        if trace is not None and changed:
            trace.append((p.name, root))
        return changed

    normalize()
    # global pass name → the plan it last ran on and left unchanged:
    # passes are pure, so running it on that plan again is wasted work
    settled: dict[str, alg.Op] = {}
    rounds = 0
    while rounds < _MAX_ROUNDS:
        rounds += 1
        changed = False
        for p in passes:
            if settled.get(p.name) is root:
                continue
            if apply(p):
                normalize()
                changed = True
            else:
                settled[p.name] = root
        if not changed:
            break
    if collect:
        if ops is None:
            counted(alg.op_count(root))
        stats.passes = rounds
        stats.ops_after = ops
        stats.pass_stats = list(per.values())
        for name, plan in after.items():
            per[name].est_rows = estimate(plan)
        stats.estimated_rows = estimate(root)
    return root


class _Normalizer:
    """The local rules as one children-first traversal, to a local
    fixpoint at every node.

    A node's inputs are normalized first; then ``cse`` looks the node up
    among the structurally identical nodes already settled, and the rules
    registered for its type are offered it in registry order.  A rule's
    replacement may contain new nodes, so it is normalized in turn.  The
    tables persist across calls within one :func:`optimize` run: nodes
    are immutable, so a settled node is never re-examined, and a later
    call only does work for the nodes a global pass created since.
    """

    def __init__(self, rules: list[RewritePass], timed: bool):
        self.cse = any(r.name == "cse" for r in rules)
        self.dispatch: dict[type, list] = {}
        for r in rules:
            for t, rule in r.rules.items():
                self.dispatch.setdefault(t, []).append((r.name, rule))
        self.fired = {r.name: 0 for r in rules}
        self.seconds = {r.name: 0.0 for r in rules}
        self.timed = timed
        #: every node seen → its normal form (normal forms map to themselves)
        self.done: dict[alg.Op, alg.Op] = {}
        #: structural key over normal children → normal form (hash-consing)
        self.canon: dict[tuple, alg.Op] = {}

    def __call__(self, root: alg.Op) -> alg.Op:
        return self._visit(root)

    def _visit(self, node: alg.Op) -> alg.Op:
        out = self.done.get(node)
        if out is None:
            kids = node.children
            if kids:
                normal = []
                for c in kids:
                    normal.append(self._visit(c))
                out = self._settle(node.with_children(tuple(normal)))
            else:
                out = self._settle(node)
            self.done[node] = out
        return out

    def _settle(self, node: alg.Op) -> alg.Op:
        """The normal form of ``node``, whose inputs are normal already."""
        timed = self.timed
        t0 = time.perf_counter() if timed else 0.0
        key = None
        if self.cse:
            key = node.struct_key(tuple(map(id, node.children)))
            existing = self.canon.get(key)
            if timed:
                t1 = time.perf_counter()
                self.seconds["cse"] += t1 - t0
                t0 = t1
            if existing is not None:
                if existing is not node:
                    self.fired["cse"] += 1
                return existing
        out = node
        for name, rule in self.dispatch.get(type(node), ()):
            replacement = rule(node)
            if timed:
                t1 = time.perf_counter()
                self.seconds[name] += t1 - t0
                t0 = t1
            if replacement is not None and replacement is not node:
                self.fired[name] += 1
                out = self._visit(replacement)
                break
        else:
            self.done[node] = node
        if key is not None:
            self.canon[key] = out
        return out


# --------------------------------------------------------------------------
# local rule: literal folding and empty propagation
# --------------------------------------------------------------------------
def _is_empty_lit(op: alg.Op) -> bool:
    return isinstance(op, alg.Lit) and not op.rows


def _empty_like(op: alg.Op) -> alg.Lit:
    return alg.Lit(op.columns, (), op.item_columns)


def _fold_select(node: alg.Select) -> alg.Op | None:
    child = node.child
    if _is_empty_lit(child):
        return child
    if isinstance(child, alg.Lit) and _foldable_pred(node, child):
        return _fold_select_lit(node, child)
    return None


def _fold_project(node: alg.Project) -> alg.Op | None:
    child = node.child
    if not isinstance(child, alg.Lit):
        return None
    idx = {name: i for i, name in enumerate(child.schema)}
    if not all(old in idx for _, old in node.cols):
        return None
    rows = tuple(tuple(row[idx[old]] for _, old in node.cols) for row in child.rows)
    new_items = frozenset(new for new, old in node.cols if old in child.item_cols)
    return alg.Lit(tuple(n for n, _ in node.cols), rows, new_items)


def _fold_union(node: alg.Union) -> alg.Op | None:
    inputs = [i for i in node.inputs if not _is_empty_lit(i)]
    if not inputs:
        return node.inputs[0]
    if len(inputs) == 1:
        return inputs[0]
    if len(inputs) != len(node.inputs):
        return alg.Union(tuple(inputs))
    if all(isinstance(i, alg.Lit) for i in inputs):
        first = inputs[0]
        if all(i.schema == first.schema and i.item_cols == first.item_cols for i in inputs):
            rows = tuple(r for i in inputs for r in i.rows)
            return alg.Lit(first.schema, rows, first.item_cols)
    return None


def _fold_empty_input(node: alg.Op) -> alg.Op | None:
    """ϱ, δ and staircase joins over an empty literal are empty."""
    return _empty_like(node) if _is_empty_lit(node.child) else None


def _fold_empty_side(node: alg.Op) -> alg.Op | None:
    """⋈, ⋈θ, × and ⋉ with an empty input are empty."""
    if _is_empty_lit(node.left) or _is_empty_lit(node.right):
        return _empty_like(node)
    return None


def _fold_map(node: alg.Map) -> alg.Op | None:
    child = node.child
    if not isinstance(child, alg.Lit):
        return None
    if not child.rows:
        return _empty_like(node)
    return _fold_map_lit(node, child)


def _fold_atomize(node: alg.Atomize) -> alg.Op | None:
    child = node.child
    if not isinstance(child, alg.Lit):
        return None
    if not child.rows:
        return _empty_like(node)
    if node.arg not in child.item_cols:
        return None
    # literal rows hold Python scalars, never nodes: fn:data is the
    # identity, so the target column is a copy of the argument
    idx = child.schema.index(node.arg)
    return _lit_with_column(child, node.target, [row[idx] for row in child.rows])


def _fold_difference(node: alg.Difference) -> alg.Op | None:
    if _is_empty_lit(node.left) or _is_empty_lit(node.right):
        return node.left
    return None


#: the ``fold`` rule per operator type — node constructors have side
#: effects and are never folded away
_FOLD_RULES = {
    alg.Select: _fold_select,
    alg.Project: _fold_project,
    alg.Union: _fold_union,
    alg.Map: _fold_map,
    alg.Atomize: _fold_atomize,
    alg.RowNum: _fold_empty_input,
    alg.Distinct: _fold_empty_input,
    alg.StepJoin: _fold_empty_input,
    alg.Join: _fold_empty_side,
    alg.Cross: _fold_empty_side,
    alg.ThetaJoin: _fold_empty_side,
    alg.SemiJoin: _fold_empty_side,
    alg.Difference: _fold_difference,
}


#: ⊛ functions foldable over literal int/bool operands: exactly those whose
#: evaluator kernel reduces to Python's own int/bool semantics there
_FOLD_MAP_FNS: dict[str, Callable] = {
    "ebv": lambda a: bool(a),
    "not": lambda a: not bool(a),
    # literal ints are xs:integer items, literal bools xs:boolean items
    "is_numeric": lambda a: not isinstance(a, bool),
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
    "eq": lambda a, b: bool(a == b),
    "ne": lambda a, b: bool(a != b),
    "lt": lambda a, b: bool(a < b),
    "le": lambda a, b: bool(a <= b),
    "gt": lambda a, b: bool(a > b),
    "ge": lambda a, b: bool(a >= b),
}


def _lit_with_column(child: alg.Lit, target: str, values: list) -> alg.Lit:
    """``child`` extended (or overwritten) with item column ``target``."""
    if target in child.schema:
        idx = child.schema.index(target)
        rows = tuple(
            row[:idx] + (v,) + row[idx + 1 :] for row, v in zip(child.rows, values)
        )
        return alg.Lit(child.schema, rows, child.item_cols | {target})
    rows = tuple(row + (v,) for row, v in zip(child.rows, values))
    return alg.Lit(
        child.schema + (target,), rows, child.item_cols | {target}
    )


def _fold_map_lit(node: alg.Map, child: alg.Lit) -> alg.Lit | None:
    fn = _FOLD_MAP_FNS.get(node.fn)
    if fn is None:
        return None
    idx = {name: i for i, name in enumerate(child.schema)}

    def values(operand):
        tag, v = operand
        if tag == "const":
            if not isinstance(v, (int, bool)):
                return None
            return [v] * len(child.rows)
        col = [row[idx[v]] for row in child.rows]
        if not all(isinstance(x, (int, bool)) for x in col):
            return None
        return col

    args = [values(a) for a in node.args]
    if any(a is None for a in args):
        return None
    return _lit_with_column(child, node.target, [fn(*xs) for xs in zip(*args)] if args else [])


def _foldable_pred(node: alg.Select, child: alg.Lit) -> bool:
    """Can this σ-over-literal evaluate at compile time?

    Item-column operands are allowed only when every involved value is an
    int or bool: there the general comparison is the numeric comparison
    Python's operators implement.  Strings, doubles and nodes need the
    runtime item machinery (string pool, NaN rules) — left to the
    evaluator.
    """
    for tag, v in (node.lhs, node.rhs):
        if tag == "col" and v in child.item_cols:
            idx = child.schema.index(v)
            if not all(isinstance(row[idx], (int, bool)) for row in child.rows):
                return False
        if tag == "const" and not isinstance(v, (int, bool)):
            return False
    return True


def _fold_select_lit(node: alg.Select, child: alg.Lit) -> alg.Lit:
    idx = {name: i for i, name in enumerate(child.schema)}
    import operator

    ops = {
        "eq": operator.eq,
        "ne": operator.ne,
        "lt": operator.lt,
        "le": operator.le,
        "gt": operator.gt,
        "ge": operator.ge,
    }
    fn = ops[node.op]

    def val(row, operand):
        tag, v = operand
        return row[idx[v]] if tag == "col" else v

    rows = tuple(
        row for row in child.rows if fn(val(row, node.lhs), val(row, node.rhs))
    )
    if rows == child.rows:
        return child
    return alg.Lit(child.schema, rows, child.item_cols)


# --------------------------------------------------------------------------
# local rule: select/map comparison fusion
# --------------------------------------------------------------------------
_CMP_FNS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})
_CMP_NEGATED = {"eq": "ne", "ne": "eq"}


def _fuse_one(node: alg.Select) -> alg.Op | None:
    """Rewrite ``σ (t = true) ∘ ⊛ t:cmp(a, b)`` into ``⊛ t ∘ σ a cmp b``.

    Loop-lifting funnels every comparison through a ⊛ that materialises a
    boolean column which a σ then tests against a constant.  Applying the
    comparison *as* the selection predicate (and recomputing the — now
    constant — boolean column on the survivors, so the schema is
    unchanged) lets prune drop the dead ⊛ and exposes the comparison to
    pushdown and join recognition.  Both paths evaluate comparisons with
    the same general-comparison kernel, so the rewrite is exact.
    """
    if node.op not in ("eq", "ne"):
        return None
    m = node.child
    if not isinstance(m, alg.Map) or m.fn not in _CMP_FNS or len(m.args) != 2:
        return None
    if ("col", m.target) in m.args:
        return None
    for probe, other in ((node.lhs, node.rhs), (node.rhs, node.lhs)):
        if probe != ("col", m.target):
            continue
        if other[0] != "const" or not isinstance(other[1], bool):
            continue
        want = other[1] if node.op == "eq" else not other[1]
        sel_op = m.fn if want else _CMP_NEGATED.get(m.fn)
        if sel_op is None:
            return None  # ordering comparisons have no NaN-exact negation
        selected = alg.Select(m.child, sel_op, m.args[0], m.args[1])
        return alg.Map(selected, m.fn, m.target, m.args)
    return None


# --------------------------------------------------------------------------
# local rule: join recognition (σ= over × / ⋈ becomes an equi-join key)
# --------------------------------------------------------------------------
def _join_rec_one(node: alg.Select) -> alg.Op | None:
    """Turn ``σ (a = b)`` over × into ⋈, or add a key to an existing ⋈.

    Sound only for plain numeric columns: equality of item columns
    follows general-comparison rules (untypedAtomic coerces, ``10`` =
    ``10.0``) which the surrogate-equality join kernel does not
    implement, so item operands are left alone.  Exact including row
    order: the sort-merge join emits matches left-major with ties in
    right order, which is precisely the filtered cross product.
    """
    if node.op != "eq":
        return None
    child = node.child
    if not isinstance(child, (alg.Cross, alg.Join)):
        return None
    if node.lhs[0] != "col" or node.rhs[0] != "col":
        return None
    a, b = node.lhs[1], node.rhs[1]
    items = child.item_columns
    if a in items or b in items:
        return None
    lschema = child.left.columns
    rschema = child.right.columns
    if a in lschema and b in rschema:
        key = (a, b)
    elif b in lschema and a in rschema:
        key = (b, a)
    else:
        return None
    keys = (child.keys if isinstance(child, alg.Join) else ()) + (key,)
    return alg.Join(child.left, child.right, keys)


# --------------------------------------------------------------------------
# local rule: redundant distinct elimination
# --------------------------------------------------------------------------
def _distinct_elim_one(node: alg.Distinct) -> alg.Op | None:
    """Drop δ whose input is provably duplicate-free on its keys.

    The staircase join's post-condition — output duplicate-free and
    document-ordered per iteration — is the flagship case; the
    uniqueness facts of :attr:`~repro.relational.algebra.Op.unique_sets`
    generalise it through π renames, filters, row numbering and key
    joins.
    """
    keys = frozenset(node.keys)
    if any(u <= keys for u in node.child.unique_sets):
        return node.child
    return None


# --------------------------------------------------------------------------
# local rule: projection merging / identity removal
# --------------------------------------------------------------------------
def _merge_one(node: alg.Project) -> alg.Op:
    """Collapse a π ∘ π chain and remove an identity projection."""
    child = node.child
    if isinstance(child, alg.Project):
        inner = dict(child.cols)
        node = alg.Project(child.child, tuple((n, inner[o]) for n, o in node.cols))
        child = node.child
    if tuple(n for n, _ in node.cols) == child.columns and all(
        n == o for n, o in node.cols
    ):
        return child
    return node


# --------------------------------------------------------------------------
# global pass: selection / semijoin pushdown
# --------------------------------------------------------------------------
def _parent_counts(topo: list[alg.Op]) -> dict[alg.Op, int]:
    counts: dict[alg.Op, int] = {}
    for node in topo:
        for child in node.children:
            counts[child] = counts.get(child, 0) + 1
    return counts


def _pushdown(topo: list[alg.Op], estimate) -> tuple[alg.Op, int]:
    """Move σ and ⋉ filters below operators they don't depend on.

    A filter constrains a set of columns; whenever its immediate child
    produces those columns unchanged from one of *its* inputs (a π
    rename, one side of a ⋈/⋈θ/×, a ⊛ that writes a different column, every
    branch of a ∪, whole iterations of a ϱ/staircase join/aggregate …)
    the filter sinks below it, so the bypassed operator — and everything
    between the filter and wherever it lands — processes fewer rows.

    To keep the rewrite a strict win on DAG-shaped plans, filters do not
    sink into shared subplans (the unfiltered subplan would still be
    evaluated for its other parents) except through π/σ, which cost
    nothing to duplicate.
    """
    counts = _parent_counts(topo)
    rebuilt: dict[alg.Op, alg.Op] = {}
    fired = 0
    for node in topo:
        new = node.with_children(tuple(rebuilt[c] for c in node.children))
        sunk = None
        if isinstance(new, alg.Select):
            sunk = _sink(("select", new.op, new.lhs, new.rhs), new.child, counts)
        elif isinstance(new, alg.SemiJoin):
            sunk = _sink(("semi", new.right, new.keys), new.left, counts)
        elif isinstance(new, (alg.Map, alg.Atomize)):
            sunk = _sink_map(new, counts)
        if sunk is not None:
            new = sunk
            fired += 1
        if new not in counts:
            # the rewritten node inherits the original's parent count, so
            # later filters see sunk subtrees shared by several parents
            counts[new] = counts.get(node, 1)
        rebuilt[node] = new
    return rebuilt[topo[-1]], fired


def _filter_cols(filt) -> frozenset:
    if filt[0] == "select":
        _, _, lhs, rhs = filt
        return frozenset(v for tag, v in (lhs, rhs) if tag == "col")
    _, _, keys = filt
    return frozenset(l for l, _ in keys)


def _filter_rename(filt, mapping: dict[str, str]):
    """Rewrite a filter's column references through a π rename."""
    if filt[0] == "select":
        _, op, lhs, rhs = filt

        def ren(operand):
            tag, v = operand
            return (tag, mapping[v]) if tag == "col" else operand

        return ("select", op, ren(lhs), ren(rhs))
    _, right, keys = filt
    return ("semi", right, tuple((mapping[l], r) for l, r in keys))


def _attach(filt, node: alg.Op) -> alg.Op:
    """Place a filter directly above ``node``."""
    if filt[0] == "select":
        _, op, lhs, rhs = filt
        return alg.Select(node, op, lhs, rhs)
    _, right, keys = filt
    return alg.SemiJoin(node, right, keys)


def _sink_or_attach(filt, node, counts, shared: bool) -> alg.Op:
    sunk = _sink(filt, node, counts, shared)
    return sunk if sunk is not None else _attach(filt, node)


def _sink(filt, x: alg.Op, counts, shared: bool = False) -> alg.Op | None:
    """Push ``filt`` below ``x``; returns the new subtree or None.

    ``shared`` is True once the descent has passed through any node with
    more than one consumer: from there on, every rebuilt node is a copy
    whose original still runs for the other consumers, so only π/σ —
    which cost nothing to duplicate — may be traversed, and the filter
    attaches above the first expensive operator instead of forking it.
    """
    cols = _filter_cols(filt)
    if not cols:
        return None
    shared = shared or counts.get(x, 1) > 1
    if shared and not isinstance(x, (alg.Project, alg.Select)):
        return None  # don't duplicate shared, non-trivial subplans
    if isinstance(x, alg.Project):
        mapping = dict(x.cols)
        if not all(c in mapping for c in cols):
            return None
        inner = _filter_rename(filt, mapping)
        return alg.Project(_sink_or_attach(inner, x.child, counts, shared), x.cols)
    if isinstance(x, alg.Select) or (isinstance(x, alg.SemiJoin) and filt[0] == "semi"):
        # only worthwhile when the filter makes it below the inner σ (or
        # the inner ⋉) too: a bare σ/σ or ⋉/⋉ swap would oscillate
        body = _sink(filt, x.children[0], counts, shared)
        if body is None:
            return None
        return x.with_children((body, *x.children[1:]))
    if isinstance(x, alg.Union):
        return alg.Union(
            tuple(_sink_or_attach(filt, b, counts, shared) for b in x.inputs)
        )
    if isinstance(x, (alg.Join, alg.ThetaJoin, alg.Cross)):
        if cols <= frozenset(x.left.columns):
            left = _sink_or_attach(filt, x.left, counts, shared)
            return x.with_children((left, x.right))
        if cols <= frozenset(x.right.columns):
            right = _sink_or_attach(filt, x.right, counts, shared)
            return x.with_children((x.left, right))
        return None
    if isinstance(x, (alg.SemiJoin, alg.Difference)):
        left = _sink_or_attach(filt, x.left, counts, shared)
        return x.with_children((left, x.right))
    if isinstance(x, (alg.Map, alg.Atomize)):
        if x.target in cols:
            return None
    elif isinstance(x, alg.RowNum):
        # whole iterations (= ϱ groups) may be filtered without renumbering
        if x.group is None or not cols <= {x.group} or x.target in cols:
            return None
    elif isinstance(x, alg.Aggr):
        if x.group is None or not cols <= {x.group}:
            return None
    elif isinstance(x, alg.Distinct):
        if not cols <= set(x.keys):
            return None
    elif isinstance(x, alg.StepJoin):
        if not cols <= {x.iter_col}:
            return None
    elif isinstance(x, alg.GenRange):
        if not cols <= {"iter"}:
            return None
    else:
        return None
    return x.with_children((_sink_or_attach(filt, x.child, counts, shared),))


def _sink_map(m, counts) -> alg.Op | None:
    """Push a ⊛/atomize below ∪ (per branch) or × (onto the side that
    holds its operands), where it runs over fewer rows and may reach a
    literal table that ``fold`` can evaluate at compile time."""
    x = m.child
    if counts.get(x, 1) > 1:
        return None
    if m.target in x.columns:
        return None  # overwrite semantics: leave in place
    args = (
        frozenset({m.arg})
        if isinstance(m, alg.Atomize)
        else _operand_cols(*m.args)
    )
    if isinstance(x, alg.Union):
        branches = []
        for b in x.inputs:
            mb = m.with_children((b,))
            sunk = _sink_map(mb, counts)
            branches.append(sunk if sunk is not None else mb)
        return alg.Union(tuple(branches))
    if isinstance(x, alg.Cross):
        if args <= frozenset(x.left.columns):
            ml = m.with_children((x.left,))
            sunk = _sink_map(ml, counts)
            return alg.Cross(sunk if sunk is not None else ml, x.right)
        if args <= frozenset(x.right.columns):
            mr = m.with_children((x.right,))
            sunk = _sink_map(mr, counts)
            return alg.Cross(x.left, sunk if sunk is not None else mr)
    return None


# --------------------------------------------------------------------------
# global pass: projection pruning (icols)
# --------------------------------------------------------------------------
def _prune(topo: list[alg.Op], estimate) -> tuple[alg.Op, int]:
    """Required-column (icols) pruning in two passes.

    Pass 1 walks parents-before-children accumulating, per node, the union
    of the columns its parents need.  Pass 2 rebuilds each node exactly
    once against its accumulated requirement — shared subplans stay shared
    (pruning per parent would duplicate them), and a node nothing about
    which changed is kept as the very same object.
    """
    root = topo[-1]
    required = frozenset(root.columns)
    req: dict[alg.Op, frozenset] = {root: required}
    for node in reversed(topo):
        # (a parent only ever asks a child for columns the child has)
        for child, child_req in _child_requirements(node, req[node]):
            req[child] = req.get(child, frozenset()) | child_req
    fired = [0]
    rebuilt: dict[alg.Op, alg.Op] = {}
    for node in topo:
        rebuilt[node] = _prune_rewrite(node, req[node], rebuilt, fired)
    # the root must deliver exactly its original schema
    return _restrict(rebuilt[root], required, fired), fired[0]


def _child_requirements(op, required):
    """Which columns each child must deliver for ``op`` to produce
    ``required`` (mirrors the construction rules of ``_prune_rewrite``)."""
    if isinstance(op, alg.Lit):
        return []
    if isinstance(op, alg.Project):
        cols = [(new, old) for new, old in op.cols if new in required] or list(op.cols[:1])
        return [(op.child, frozenset(old for _, old in cols))]
    if isinstance(op, alg.Select):
        return [(op.child, required | _operand_cols(op.lhs, op.rhs))]
    if isinstance(op, alg.Union):
        return [(i, required) for i in op.inputs]
    if isinstance(op, alg.Difference):
        keys = frozenset(op.keys)
        return [(op.left, required | keys), (op.right, keys)]
    if isinstance(op, alg.Distinct):
        extra = frozenset([op.order_col]) if op.order_col else frozenset()
        return [(op.child, required | frozenset(op.keys) | extra)]
    if isinstance(op, (alg.Join, alg.SemiJoin)):
        lkeys = frozenset(l for l, _ in op.keys)
        rkeys = frozenset(r for _, r in op.keys)
        out = [(op.left, (required & frozenset(op.left.columns)) | lkeys)]
        if isinstance(op, alg.SemiJoin):
            out.append((op.right, rkeys))
        else:
            out.append((op.right, (required & frozenset(op.right.columns)) | rkeys))
        return out
    if isinstance(op, alg.ThetaJoin):
        lkeys = frozenset(l for l, _ in op.keys)
        rkeys = frozenset(r for _, r in op.keys)
        operands = frozenset({op.lhs, op.rhs})
        return [
            (side, (required | operands | keys) & frozenset(side.columns))
            for side, keys in ((op.left, lkeys), (op.right, rkeys))
        ]
    if isinstance(op, alg.Cross):
        # a side nothing is needed from still keeps one column — the
        # first in schema order, so plans never depend on set order
        return [
            (side, (required & frozenset(side.columns)) or frozenset(side.columns[:1]))
            for side in (op.left, op.right)
        ]
    if isinstance(op, alg.RowNum):
        if op.target not in required:
            return [(op.child, required)]
        child_req = (required - {op.target}) | frozenset(c for c, _ in op.order)
        if op.group:
            child_req |= {op.group}
        return [(op.child, child_req)]
    if isinstance(op, alg.Map):
        if op.target not in required:
            return [(op.child, required)]
        return [(op.child, (required - {op.target}) | _operand_cols(*op.args))]
    if isinstance(op, alg.Atomize):
        if op.target not in required:
            return [(op.child, required)]
        return [(op.child, (required - {op.target}) | {op.arg})]
    if isinstance(op, alg.Aggr):
        child_req = frozenset(filter(None, (op.arg, op.group, op.order_col)))
        if not child_req:
            child_req = frozenset(op.child.columns[:1])
        return [(op.child, child_req)]
    if isinstance(op, alg.StepJoin):
        return [(op.child, frozenset({op.iter_col, op.item_col}))]
    if isinstance(op, alg.GenRange):
        return [(op.child, frozenset({"iter", op.lo_col, op.hi_col}))]
    # constructors / DocRoot: children keep their full schemas
    return [(c, frozenset(c.columns)) for c in op.children]


def _restrict(op: alg.Op, required: frozenset, fired: list[int]) -> alg.Op:
    """Wrap ``op`` in a projection keeping only ``required`` columns."""
    schema = op.columns
    keep = tuple(c for c in schema if c in required)
    if keep == schema:
        return op
    fired[0] += 1
    return alg.Project(op, tuple((c, c) for c in keep))


def _operand_cols(*operands) -> frozenset:
    return frozenset(v for tag, v in operands if tag == "col")


def _prune_rewrite(op, required, rebuilt, fired):
    """``op`` over its already-pruned children, cut down to ``required``."""
    if isinstance(op, alg.Lit):
        keep = tuple(c for c in op.schema if c in required) or op.schema[:1]
        if keep == op.schema:
            return op
        fired[0] += 1
        idx = {name: i for i, name in enumerate(op.schema)}
        rows = tuple(tuple(row[idx[c]] for c in keep) for row in op.rows)
        return alg.Lit(keep, rows, op.item_cols & frozenset(keep))
    if isinstance(op, (alg.RowNum, alg.Map, alg.Atomize)) and op.target not in required:
        fired[0] += 1
        return rebuilt[op.child]
    if isinstance(op, alg.Project):
        cols = tuple((new, old) for new, old in op.cols if new in required)
        cols = cols or op.cols[:1]
        if cols != op.cols:
            fired[0] += 1
            return alg.Project(rebuilt[op.child], cols)
    children = [rebuilt[c] for c in op.children]
    # NB: operators may deliver *more* columns than required — extra
    # columns are cut at the next enclosing projection.  Only the inputs
    # that need exact schemas get explicit restrictions: ∪ branches, the
    # right sides of \ and ⋉, and staircase-join contexts.
    if isinstance(op, alg.Union):
        children = [_restrict(c, required, fired) for c in children]
    elif isinstance(op, alg.Difference):
        children[1] = _restrict(children[1], frozenset(op.keys), fired)
    elif isinstance(op, alg.SemiJoin):
        rkeys = frozenset(r for _, r in op.keys)
        children[1] = _restrict(children[1], rkeys, fired)
    elif isinstance(op, alg.StepJoin):
        context = frozenset({op.iter_col, op.item_col})
        children[0] = _restrict(children[0], context, fired)
    return op.with_children(tuple(children))


# --------------------------------------------------------------------------
# global pass: join input ordering (cost-based)
# --------------------------------------------------------------------------
#: only swap when one side is estimated this much larger — estimates are
#: crude, and each swap costs a schema-restoring projection
_SWAP_RATIO = 4.0


def _order_sensitive(topo: list[alg.Op]) -> set[alg.Op]:
    """The nodes whose *physical* row order can influence results.

    Most consumers are insensitive to physical order (filters preserve
    it, ϱ orders by named columns), but three are not: δ without an
    ``order_col`` whose keys don't cover the child schema (which
    duplicate survives depends on row order), order-sensitive aggregates
    (``str_join``) without an ``order_col``, and ϱ whose order keys +
    group don't provably determine a unique rank (ties break by physical
    order).  Everything beneath such a consumer must keep its row order.
    """
    stack: list[alg.Op] = []
    for node in topo:
        if isinstance(node, alg.Distinct) and node.order_col is None:
            if set(node.keys) < set(node.child.columns):
                stack.append(node.child)
        elif isinstance(node, alg.Aggr):
            if node.kind == "str_join" and node.order_col is None:
                stack.append(node.child)
        elif isinstance(node, alg.RowNum):
            determined = frozenset(c for c, _ in node.order)
            if node.group:
                determined |= {node.group}
            if not any(u <= determined for u in node.child.unique_sets):
                stack.append(node.child)
    marked: set[alg.Op] = set()
    while stack:
        n = stack.pop()
        if n not in marked:
            marked.add(n)
            stack.extend(n.children)
    return marked


def _join_order(topo: list[alg.Op], estimate) -> tuple[alg.Op, int]:
    """Put the estimated-smaller join input on the right-hand side.

    The sort-merge join kernel sorts its *right* input and probes it with
    the left, so sorting the smaller side is cheaper.  A swapped join is
    wrapped in a projection restoring the original column order.  Row
    order within the join changes, so joins beneath a physical-order-
    sensitive consumer (see :func:`_order_sensitive`) are left alone.
    """
    sensitive = _order_sensitive(topo)
    rebuilt: dict[alg.Op, alg.Op] = {}
    fired = 0
    for node in topo:
        new = node.with_children(tuple(rebuilt[c] for c in node.children))
        if (
            isinstance(new, alg.Join)
            and node not in sensitive
            and estimate(new.right) > _SWAP_RATIO * max(estimate(new.left), 1.0)
        ):
            swapped = alg.Join(new.right, new.left, tuple((r, l) for l, r in new.keys))
            new = alg.Project(swapped, tuple((c, c) for c in new.columns))
            fired += 1
        rebuilt[node] = new
    return rebuilt[topo[-1]], fired


# --------------------------------------------------------------------------
# the registry
# --------------------------------------------------------------------------
#: the default pipeline, in registry order (the normalizer offers a node
#: the local rules in this order; the rounds run the global passes in it)
PASSES: tuple[RewritePass, ...] = (
    RewritePass("cse", "share structurally identical subplans"),
    RewritePass(
        "fold", "evaluate σ/π/∪ over literals, propagate empty inputs",
        rules=_FOLD_RULES,
    ),
    RewritePass(
        "fuse_select", "fuse σ(t=true) with the ⊛ comparison feeding it",
        rules={alg.Select: _fuse_one},
    ),
    RewritePass(
        "pushdown", "push σ/⋉ below π, ⋈, ×, ⊛, ∪, ϱ, δ, aggregates, steps", _pushdown,
    ),
    RewritePass(
        "join_recognition", "turn σ= over × into an equi-join",
        rules={alg.Select: _join_rec_one},
    ),
    RewritePass(
        "distinct_elim", "drop δ over provably duplicate-free input",
        rules={alg.Distinct: _distinct_elim_one},
    ),
    RewritePass("prune", "keep only columns an ancestor consumes (icols)", _prune),
    RewritePass(
        "merge_projects", "collapse π∘π, remove identity π",
        rules={alg.Project: _merge_one},
    ),
    RewritePass("join_order", "sort the estimated-smaller join input", _join_order),
)

#: names of all registered passes, in pipeline order
PASS_NAMES: tuple[str, ...] = tuple(p.name for p in PASSES)
