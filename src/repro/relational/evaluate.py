"""The bulk evaluator for algebra plan DAGs.

Evaluation is column-at-a-time (MonetDB style): each operator consumes
whole input tables and produces a whole output table.  Plans are DAGs —
loop-lifting shares subplans heavily — so a plan runs as its
:class:`~repro.relational.algebra.Schedule`, computed once per plan root:
a straight-line program in which a shared subplan is one step, and each
step's result is dropped once its last consumer has run.

The evaluator needs an :class:`EvalContext` carrying the node arena (for
staircase joins, atomization and node construction) and the string pool.
An optional ``trace`` dict collects every operator's result table, which
powers the demonstrator's "reveal the result computed for any
subexpression" hook (paper Section 4).

Loop-lifted plans keep ``iter|pos`` in order and the staircase join
returns sorted, duplicate-free pairs, so most inputs already have the
order a sort would give them.  Every operator that sorts, uniques or
gathers asks first (:func:`~repro.relational.kernels.is_sorted`, one
O(n) pass) and skips the work when the input already complies: ϱ, the
aggregates, δ, ⋈, ⋉, \\ and the steps; × with a one-row side gathers only
that side.  A fast path returns exactly the rows, in exactly the order,
of the slow path it replaces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.encoding.arena import C_ATTR, C_COPY, C_TEXT, NodeArena
from repro.errors import AlgebraError, DeadlineExceeded, DynamicError, TypeError_
from repro.relational import algebra as alg
from repro.relational import items as it
from repro.relational.items import (
    ItemColumn,
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
from repro.relational.kernels import (
    FLIPPED,
    combine_keys,
    in_set,
    is_sorted,
    join_indices,
    multi_arange,
    row_number_per_group,
    theta_join_indices,
)
from repro.relational.staircase import naive_step, staircase_step
from repro.relational.table import Column, Table


@dataclass
class EvalContext:
    """Everything an algebra plan needs at runtime.

    ``params`` carries the external-variable bindings of this execution
    (prepared-query parameters): name → Python scalar or sequence.  The
    compiled plan references them through ``ParamTable`` leaves, so the
    same plan DAG can be evaluated many times with different bindings.

    Lifetime rule: node constructors append *transient* fragments to
    ``arena``.  ``PreparedQuery.execute`` wraps the evaluation in a lease
    (:meth:`~repro.encoding.arena.NodeArena.page_scope`) that the
    ``QueryResult`` then owns, so those rows live as long as the result.
    A bare ``evaluate()`` takes no lease: the rows it constructs (and the
    table that references them) stay valid until the arena's next pop —
    i.e. until some lease on the same arena closes as the last live one,
    or a catalog mutation reclaims — so serialize the table before
    running anything else on that arena, or open a scope around both.

    ``deadline``, an absolute :func:`time.monotonic` expiry, is checked
    before each operator; an operator that has started runs to its end.
    """

    arena: NodeArena
    documents: dict[str, int] = field(default_factory=dict)
    trace: dict[int, Table] | None = None
    use_staircase: bool = True
    params: dict[str, object] = field(default_factory=dict)
    deadline: float | None = None

    @property
    def pool(self):
        """The arena's string pool (item encoding/decoding)."""
        return self.arena.pool


def evaluate(root: alg.Op, ctx: EvalContext) -> Table:
    """Run the plan's schedule, dropping each result after its last use."""
    slots: list[Table | None] = []
    for node, inputs, releases in root.schedule.steps(root):
        if ctx.deadline is not None and time.monotonic() > ctx.deadline:
            raise DeadlineExceeded("query exceeded its deadline (DNF)")
        result = _dispatch(node, [slots[i] for i in inputs], ctx)
        slots.append(result)
        if ctx.trace is not None:
            ctx.trace[id(node)] = result
        for i in releases:
            slots[i] = None
    return slots[-1]


# --------------------------------------------------------------------------
# operator implementations
# --------------------------------------------------------------------------
def _dispatch(node: alg.Op, inputs: list[Table], ctx: EvalContext) -> Table:
    handler = _HANDLERS.get(type(node))
    if handler is None:
        raise AlgebraError(f"no evaluator for {type(node).__name__}")
    return handler(node, inputs, ctx)


def _eval_lit(node: alg.Lit, inputs, ctx) -> Table:
    cols: dict[str, Column] = {}
    for i, name in enumerate(node.schema):
        values = [row[i] for row in node.rows]
        if name in node.item_cols:
            cols[name] = ItemColumn.from_values(values, ctx.pool)
        else:
            cols[name] = np.asarray(values, dtype=np.int64) if values else np.empty(0, dtype=np.int64)
    return Table(cols)


def _eval_project(node: alg.Project, inputs, ctx) -> Table:
    return inputs[0].project(node.cols)


def _operand_column(table: Table, operand, n: int, ctx) -> Column:
    tag, v = operand
    if tag == "col":
        return table.col(v)
    # constant: broadcast — plain ints become numeric columns, everything
    # else becomes a constant item column
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return np.full(n, int(v), dtype=np.int64)
    kind, payload = it.encode_item(v, ctx.pool)
    return ItemColumn(np.full(n, kind, dtype=np.uint8), np.full(n, payload, dtype=np.int64))


def _compare_columns(op: str, lhs: Column, rhs: Column, ctx) -> np.ndarray:
    if isinstance(lhs, ItemColumn) or isinstance(rhs, ItemColumn):
        if not isinstance(lhs, ItemColumn):
            lhs = ItemColumn.from_ints(lhs)
        if not isinstance(rhs, ItemColumn):
            rhs = ItemColumn.from_ints(rhs)
        return it.compare(op, lhs, rhs, ctx.pool)
    return it._cmp_arrays(op, lhs, rhs)


def _eval_select(node: alg.Select, inputs, ctx) -> Table:
    table = inputs[0]
    n = table.num_rows
    if node.op == "eq" and node.lhs[0] == "col" and isinstance(node.rhs[1], bool):
        col = table.col(node.lhs[1])
        if isinstance(col, ItemColumn) and col.is_homogeneous(K_BOOL):
            # `b = true()` over booleans: a mask on the payload
            return table.take(col.data == int(node.rhs[1]))
    lhs = _operand_column(table, node.lhs, n, ctx)
    rhs = _operand_column(table, node.rhs, n, ctx)
    mask = _compare_columns(node.op, lhs, rhs, ctx)
    return table.take(mask)


def _eval_union(node: alg.Union, inputs, ctx) -> Table:
    return Table.concat(inputs)


def _key_arrays(table: Table, keys: tuple[str, ...]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for k in keys:
        col = table.col(k)
        if isinstance(col, ItemColumn):
            kinds, payload = it.join_keys(col)
            out.append(kinds.astype(np.int64))
            out.append(payload)
        else:
            out.append(col)
    return out


def _combined_two_sided(
    left: Table, right: Table, lkeys: tuple[str, ...], rkeys: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    la = _key_arrays(left, lkeys)
    ra = _key_arrays(right, rkeys)
    if len(la) != len(ra):
        raise AlgebraError("join key item-ness mismatch between sides")
    nl = left.num_rows
    combined = combine_keys([np.concatenate([a, b]) for a, b in zip(la, ra)])
    return combined[:nl], combined[nl:]


def _eval_difference(node: alg.Difference, inputs, ctx) -> Table:
    left, right = inputs
    keys = node.keys or left.schema
    lk, rk = _combined_two_sided(left, right, tuple(keys), tuple(keys))
    mask = ~in_set(lk, rk)
    return left.take(mask)


def _eval_distinct(node: alg.Distinct, inputs, ctx) -> Table:
    table = inputs[0]
    keys = node.keys or table.schema
    arrays = _key_arrays(table, tuple(keys))
    if is_sorted(arrays, strict=True):
        return table  # strictly ordered keys are already distinct
    combined = combine_keys(arrays)
    if node.order_col is not None and table.num_rows:
        # keep the duplicate with the smallest order value (sequence order)
        order = np.argsort(table.num(node.order_col), kind="stable")
        _, first_in_order = np.unique(combined[order], return_index=True)
        first_idx = order[first_in_order]
    else:
        _, first_idx = np.unique(combined, return_index=True)
    first_idx.sort()
    return table.take(first_idx)


def _merged_table(
    left: Table, right: Table, li: np.ndarray | None, ri: np.ndarray | None
) -> Table:
    """The rows ``li`` of ``left`` beside the rows ``ri`` of ``right``
    (``None``: every row of that side, as it is)."""
    overlap = set(left.schema) & set(right.schema)
    if overlap:
        raise AlgebraError(f"join/cross output schema collision: {sorted(overlap)}")
    cols: dict[str, Column] = {}
    lt = left if li is None else left.take(li)
    rt = right if ri is None else right.take(ri)
    cols.update(lt.columns)
    cols.update(rt.columns)
    return Table(cols)


def _eval_join(node: alg.Join, inputs, ctx) -> Table:
    left, right = inputs
    if left.num_rows == 0 or right.num_rows == 0:
        # empty-intermediate early termination: equi-join with an empty
        # side is empty — skip key combination and the hash join
        empty = np.empty(0, dtype=np.int64)
        return _merged_table(left, right, empty, empty)
    lkeys = tuple(l for l, _ in node.keys)
    rkeys = tuple(r for _, r in node.keys)
    lk, rk = _combined_two_sided(left, right, lkeys, rkeys)
    li, ri = join_indices(lk, rk)
    return _merged_table(left, right, li, ri)


def _eval_theta_join(node: alg.ThetaJoin, inputs, ctx) -> Table:
    left, right = inputs
    lk = rk = None
    if node.keys and left.num_rows and right.num_rows:
        lk, rk = _combined_two_sided(
            left, right, tuple(l for l, _ in node.keys), tuple(r for _, r in node.keys)
        )
    lhs, rhs, op = node.lhs, node.rhs, node.op
    if lhs not in left.columns:
        lhs, rhs, op = rhs, lhs, FLIPPED[op]
    li, ri = theta_join_indices(
        op, _as_item(left.col(lhs)), _as_item(right.col(rhs)), ctx.pool, lk, rk
    )
    return _merged_table(left, right, li, ri)


def _eval_semijoin(node: alg.SemiJoin, inputs, ctx) -> Table:
    left, right = inputs
    lkeys = tuple(l for l, _ in node.keys)
    rkeys = tuple(r for _, r in node.keys)
    lk, rk = _combined_two_sided(left, right, lkeys, rkeys)
    return left.take(in_set(lk, rk))


def _eval_cross(node: alg.Cross, inputs, ctx) -> Table:
    left, right = inputs
    nl, nr = left.num_rows, right.num_rows
    if nr == 1:  # one-row side: gather only that side
        return _merged_table(left, right, None, np.zeros(nl, dtype=np.int64))
    if nl == 1:
        return _merged_table(left, right, np.zeros(nr, dtype=np.int64), None)
    li = np.repeat(np.arange(nl, dtype=np.int64), nr)
    ri = np.tile(np.arange(nr, dtype=np.int64), nl)
    return _merged_table(left, right, li, ri)


def _order_keys_for(table: Table, order, ctx) -> list[np.ndarray]:
    keys: list[np.ndarray] = []
    for name, descending in order:
        col = table.col(name)
        if isinstance(col, ItemColumn) and col.is_homogeneous(K_NODE):
            # document order: the node payload orders exactly as the
            # (class, value) pair of items.order_columns does
            keys.append(-col.data if descending else col.data)
        elif isinstance(col, ItemColumn):
            cls, val = it.order_columns(col, ctx.pool)
            if descending:
                cls, val = -cls, -val
            keys.append(cls)
            keys.append(val)
        else:
            keys.append(-col if descending else col)
    return keys


def _eval_rownum(node: alg.RowNum, inputs, ctx) -> Table:
    table = inputs[0]
    n = table.num_rows
    keys = _order_keys_for(table, node.order, ctx)
    group = None if node.group is None else table.num(node.group)
    sort_keys = keys if group is None else [group] + keys
    if is_sorted(sort_keys):  # rows already in numbering order
        if group is None:
            return table.with_column(node.target, np.arange(1, n + 1, dtype=np.int64))
        return table.with_column(node.target, row_number_per_group(group))
    order_idx = np.lexsort(sort_keys[::-1])  # np.lexsort: last key is primary
    if group is None:
        ranks_sorted = np.arange(1, n + 1, dtype=np.int64)
    else:
        ranks_sorted = row_number_per_group(group[order_idx])
    out = np.empty(n, dtype=np.int64)
    out[order_idx] = ranks_sorted
    return table.with_column(node.target, out)


def _eval_map(node: alg.Map, inputs, ctx) -> Table:
    table = inputs[0]
    n = table.num_rows
    fn = _MAP_FNS.get(node.fn)
    if fn is None:
        raise AlgebraError(f"unknown map function {node.fn!r}")
    args = [_operand_column(table, a, n, ctx) for a in node.args]
    return table.with_column(node.target, fn(ctx, *args))


def _eval_aggr(node: alg.Aggr, inputs, ctx) -> Table:
    table = inputs[0]
    n = table.num_rows
    if node.group is None:
        groups = np.zeros(n, dtype=np.int64)
    else:
        groups = table.num(node.group)
    sort_keys = [groups]
    if node.order_col is not None:
        sort_keys.append(table.num(node.order_col))
    if is_sorted(sort_keys):
        order_idx = None  # groups (and their order) already in place
        g_sorted = groups
    else:
        order_idx = np.lexsort(sort_keys[::-1])
        g_sorted = groups[order_idx]
    starts = np.nonzero(
        np.concatenate(([True], g_sorted[1:] != g_sorted[:-1]))
    )[0] if n else np.empty(0, dtype=np.int64)
    group_vals = g_sorted[starts] if n else np.empty(0, dtype=np.int64)
    counts = np.diff(np.concatenate((starts, [n]))) if n else np.empty(0, dtype=np.int64)

    if node.kind == "count":
        agg_col: Column = counts.astype(np.int64)
    elif node.kind in ("sum", "avg", "min", "max"):
        col = table.col(node.arg)
        if not isinstance(col, ItemColumn):
            col = ItemColumn.from_ints(col)
        if order_idx is not None:
            col = col.take(order_idx)
        stringish = np.isin(col.kinds, np.array([K_STR, K_QNAME], dtype=np.uint8))
        if len(col) and stringish.any():
            agg_col = _string_aggregate(node, col, stringish, starts, ctx)
        else:
            agg_col = _numeric_aggregate(node.kind, col, starts, counts, ctx)
    elif node.kind == "str_join":
        col = table.item(node.arg)
        if order_idx is not None:
            col = col.take(order_idx)
        pool = ctx.pool
        sids = it.to_string_ids(col, pool)
        joined = sids[starts]  # a one-item group is its own string
        for i in np.flatnonzero(counts > 1).tolist():
            s = starts[i]
            joined[i] = pool.intern(node.sep.join(pool.values(sids[s : s + counts[i]])))
        agg_col = ItemColumn.from_pooled(K_STR, joined)
    else:
        raise AlgebraError(f"unknown aggregate {node.kind!r}")

    if node.group is None:
        if n == 0:
            # count over empty input still yields one row (value 0);
            # other aggregates yield no row (the compiler fills defaults)
            if node.kind == "count":
                return Table({node.target: np.asarray([0], dtype=np.int64)})
            empty: Column
            if isinstance(agg_col, np.ndarray):
                empty = np.empty(0, dtype=np.int64)
            else:
                empty = ItemColumn.empty()
            return Table({node.target: empty})
        return Table({node.target: agg_col})
    return Table({node.group: group_vals, node.target: agg_col})


#: the ufunc each numeric aggregate reduces its groups with
_REDUCE = {"sum": np.add, "avg": np.add, "min": np.minimum, "max": np.maximum}


def _numeric_aggregate(kind, col, starts, counts, ctx) -> ItemColumn:
    """``fn:sum/avg/min/max`` per group of a string-free item column
    (``starts``: first row of each group).  A group whose items are all
    integers reduces in int64 and stays an integer, whatever the other
    groups hold: each group is its own sequence."""
    reduce = _REDUCE[kind].reduceat
    if len(col) == 0:
        return ItemColumn.empty()
    if kind != "avg" and col.is_homogeneous(K_INT):
        return ItemColumn.from_ints(reduce(col.data, starts))
    reduced = reduce(it.to_double(col, ctx.pool), starts)
    if kind == "avg":
        return ItemColumn.from_doubles(reduced / counts)
    out = ItemColumn.from_doubles(reduced)
    int_rows = col.kinds == K_INT
    ints = np.logical_and.reduceat(int_rows, starts)
    if ints.any():
        exact = reduce(np.where(int_rows, col.data, 0), starts)
        out.kinds[ints] = K_INT
        out.data[ints] = exact[ints]
    return out


def _string_aggregate(node, col, stringish, starts, ctx) -> ItemColumn:
    """Aggregation when string items are present, judged **per group**:
    ``fn:min``/``fn:max`` over an all-string group compare by codepoint
    order (F&O 15.4); a group mixing strings and numbers — and every
    ``fn:sum``/``fn:avg`` group containing a string — is ``err:FORG0006``.
    Groups without strings keep the numeric semantics."""
    n = len(col)
    if node.kind not in ("min", "max"):
        raise DynamicError(
            f"fn:{node.kind} over non-numeric items", code="err:FORG0006"
        )
    pool = ctx.pool
    pick = min if node.kind == "min" else max
    kinds_out = np.empty(len(starts), dtype=np.uint8)
    data_out = np.empty(len(starts), dtype=np.int64)
    for i, s in enumerate(starts):
        e = starts[i + 1] if i + 1 < len(starts) else n
        group = col.take(slice(s, e))
        group_str = stringish[s:e]
        if group_str.all():
            sid = pool.intern(pick(pool.value(int(x)) for x in group.data))
            kinds_out[i], data_out[i] = K_STR, sid
        elif group_str.any():
            raise DynamicError(
                f"fn:{node.kind} over mixed string/numeric items",
                code="err:FORG0006",
            )
        elif group.is_homogeneous(K_INT):
            value = int(pick(group.data))
            kinds_out[i], data_out[i] = K_INT, value
        else:
            value = float(pick(it.to_double(group, pool)))
            kinds_out[i], data_out[i] = K_DBL, int(it._bits(np.float64(value))[()])
    return ItemColumn(kinds_out, data_out)


def _eval_step(node: alg.StepJoin, inputs, ctx) -> Table:
    table = inputs[0]
    iters = table.num(node.iter_col)
    nodes = _ctx_nodes(table.col(node.item_col))
    kind = K_ATTR if node.axis.value == "attribute" else K_NODE
    if len(nodes) == 0:
        # empty-intermediate early termination: no context nodes means
        # no result — skip the axis kernel (a selection or join upstream
        # often leaves a step nothing to do)
        return Table(
            {node.iter_col: iters, node.item_col: ItemColumn.of_kind(kind, nodes)}
        )
    step = staircase_step if ctx.use_staircase else naive_step
    out_iter, rows = step(ctx.arena, iters, nodes, node.axis, node.test)
    return Table(
        {node.iter_col: out_iter, node.item_col: ItemColumn.of_kind(kind, rows)}
    )


def _ctx_nodes(item: Column) -> np.ndarray:
    """Context-node rows of a step input column (type-checked)."""
    if isinstance(item, ItemColumn):
        if len(item) and not np.all(item.kinds == K_NODE):
            if np.any(item.kinds == K_ATTR):
                raise DynamicError(
                    "axis steps from attribute nodes are not supported"
                )
            raise DynamicError(
                "path step applied to a non-node item", code="err:XPTY0019"
            )
        return item.data
    return item


def _eval_atomize(node: alg.Atomize, inputs, ctx) -> Table:
    table = inputs[0]
    col = table.item(node.arg)
    kinds = col.kinds.copy()
    data = col.data.copy()
    arena = ctx.arena
    m = col.kinds == K_NODE
    if m.any():
        data[m] = arena.string_value_ids(col.data[m])
        kinds[m] = K_UNTYPED
    m = col.kinds == K_ATTR
    if m.any():
        data[m] = arena.attr_value[col.data[m]]
        kinds[m] = K_UNTYPED
    return table.with_column(node.target, ItemColumn(kinds, data))


def _eval_elem(node: alg.ElemConstr, inputs, ctx) -> Table:
    names, content = inputs
    pool = ctx.pool
    n_iter = names.num("iter")
    c_iter = content.num("iter")
    if "pos" in content.columns:
        order = np.lexsort((content.num("pos"), c_iter))
    else:
        order = np.argsort(c_iter, kind="stable")
    by_iter = c_iter[order]
    lo = by_iter.searchsorted(n_iter, side="left")
    hi = by_iter.searchsorted(n_iter, side="right")
    # content entries of element i are rows lo[i]:hi[i] of the sorted
    # content, in content order
    picks = order[multi_arange(lo, hi)]
    owner = np.repeat(np.arange(len(n_iter), dtype=np.int64), hi - lo)
    kinds = content.item("item").kinds[picks]
    payloads = content.item("item").data[picks]
    tags = np.full(len(picks), C_TEXT, dtype=np.int64)
    tags[kinds == K_NODE] = C_COPY
    tags[kinds == K_ATTR] = C_ATTR
    atomic = tags == C_TEXT
    if atomic.any():
        # a run of adjacent atomic items of one element becomes one text
        # entry: their lexical forms joined by single spaces
        joins = np.zeros(len(tags), dtype=bool)
        joins[1:] = atomic[1:] & atomic[:-1] & (owner[1:] == owner[:-1])
        heads = np.flatnonzero(~joins)
        ends = np.append(heads[1:], len(tags))
        runs = atomic[heads] & (ends - heads > 1)
        single = heads[atomic[heads] & ~runs]
        payloads[single] = it.to_string_ids(ItemColumn(kinds[single], payloads[single]), pool)
        for start, stop in zip(heads[runs].tolist(), ends[runs].tolist()):
            payloads[start] = pool.intern(
                " ".join(
                    it.lexical(kind, payload, pool)
                    for kind, payload in zip(
                        kinds[start:stop].tolist(), payloads[start:stop].tolist()
                    )
                )
            )
        owner, tags, payloads = owner[heads], tags[heads], payloads[heads]
    roots = ctx.arena.new_elements(
        it.to_string_ids(names.item("item"), pool), owner, tags, payloads
    )
    return Table({"iter": n_iter, "item": ItemColumn.from_nodes(roots)})


def _eval_text(node: alg.TextConstr, inputs, ctx) -> Table:
    content = inputs[0]
    sids = it.to_string_ids(content.item("item"), ctx.pool)
    rows = ctx.arena.new_text_nodes(sids)
    return Table({"iter": content.num("iter"), "item": ItemColumn.from_nodes(rows)})


def _eval_attr(node: alg.AttrConstr, inputs, ctx) -> Table:
    names, values = inputs
    pool = ctx.pool
    n_iter = names.num("iter")
    v_iter = values.num("iter")
    order = np.argsort(v_iter, kind="stable")
    by_iter = v_iter[order]
    # each name's iteration takes the last value of that iteration, ""
    # when it has none
    at = by_iter.searchsorted(n_iter, side="right") - 1
    found = at >= 0
    found[found] = by_iter[at[found]] == n_iter[found]
    sids = np.full(len(n_iter), pool.intern(""), dtype=np.int64)
    sids[found] = it.to_string_ids(values.item("item"), pool)[order][at[found]]
    ids = ctx.arena.new_attributes(it.to_string_ids(names.item("item"), pool), sids)
    return Table({"iter": n_iter, "item": ItemColumn.of_kind(K_ATTR, ids)})


def _eval_genrange(node: alg.GenRange, inputs, ctx) -> Table:
    table = inputs[0]
    iters = table.num("iter")
    lo_col = table.col(node.lo_col)
    hi_col = table.col(node.hi_col)
    lo = lo_col.data if isinstance(lo_col, ItemColumn) else lo_col
    hi = hi_col.data if isinstance(hi_col, ItemColumn) else hi_col
    counts = np.maximum(hi + 1 - lo, 0)
    values = multi_arange(lo, hi + 1)
    out_iter = np.repeat(iters, counts)
    pos = row_number_per_group(out_iter) if len(out_iter) else np.empty(0, dtype=np.int64)
    return Table(
        {"iter": out_iter, "pos": pos, "item": ItemColumn.from_ints(values)}
    )


def _eval_param(node: alg.ParamTable, inputs, ctx) -> Table:
    if node.name not in ctx.params:
        raise DynamicError(
            f"no binding for external variable ${node.name}",
            code="err:XPDY0002",
        )
    value = ctx.params[node.name]
    if isinstance(value, (list, tuple)):
        values = list(value)
    else:
        values = [value]
    col = ItemColumn.from_values(values, ctx.pool)
    if node.type_name is not None:
        # unknown type names are rejected at compile time (compile_module)
        allowed = it.PARAM_TYPE_KINDS[node.type_name]
        bad = ~np.isin(col.kinds, np.asarray(allowed, dtype=np.uint8))
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            raise TypeError_(
                f"binding for ${node.name} does not match declared type "
                f"{node.type_name}: item {i + 1} is {values[i]!r}",
                code="err:XPTY0004",
            )
    pos = np.arange(1, len(values) + 1, dtype=np.int64)
    return Table({"pos": pos, "item": col})


def _eval_docroot(node: alg.DocRoot, inputs, ctx) -> Table:
    row = ctx.documents.get(node.uri)
    if row is None:
        raise DynamicError(f"document {node.uri!r} is not loaded", code="err:FODC0002")
    # the per-query paging choke point: fault the document's fragment in
    # before any step kernel touches its rows
    ctx.arena.ensure_rows((row,))
    return Table(
        {
            "iter": np.asarray([1], dtype=np.int64),
            "pos": np.asarray([1], dtype=np.int64),
            "item": ItemColumn.from_nodes([row]),
        }
    )


_HANDLERS: dict[type, Callable] = {
    alg.Lit: _eval_lit,
    alg.Project: _eval_project,
    alg.Select: _eval_select,
    alg.Union: _eval_union,
    alg.Difference: _eval_difference,
    alg.Distinct: _eval_distinct,
    alg.Join: _eval_join,
    alg.ThetaJoin: _eval_theta_join,
    alg.SemiJoin: _eval_semijoin,
    alg.Cross: _eval_cross,
    alg.RowNum: _eval_rownum,
    alg.Map: _eval_map,
    alg.Aggr: _eval_aggr,
    alg.StepJoin: _eval_step,
    alg.Atomize: _eval_atomize,
    alg.ElemConstr: _eval_elem,
    alg.TextConstr: _eval_text,
    alg.AttrConstr: _eval_attr,
    alg.DocRoot: _eval_docroot,
    alg.GenRange: _eval_genrange,
    alg.ParamTable: _eval_param,
}


# --------------------------------------------------------------------------
# map functions (the ⊛ operator repertoire)
# --------------------------------------------------------------------------
def _as_item(col: Column) -> ItemColumn:
    return col if isinstance(col, ItemColumn) else ItemColumn.from_ints(col)


def _fn_arith(op):
    def fn(ctx, a, b):
        return it.arithmetic(op, _as_item(a), _as_item(b), ctx.pool)

    return fn


def _fn_cmp(op):
    def fn(ctx, a, b):
        return ItemColumn.from_bools(
            _compare_columns(op, a, b, ctx)
        )

    return fn


def _fn_neg(ctx, a):
    return it.negate(_as_item(a), ctx.pool)


def _fn_and(ctx, a, b):
    return ItemColumn.from_bools((_as_item(a).data != 0) & (_as_item(b).data != 0))


def _fn_or(ctx, a, b):
    return ItemColumn.from_bools((_as_item(a).data != 0) | (_as_item(b).data != 0))


def _fn_not(ctx, a):
    return ItemColumn.from_bools(_as_item(a).data == 0)


def _fn_ebv(ctx, a):
    return ItemColumn.from_bools(it.ebv(_as_item(a), ctx.pool))


def _fn_is_node(ctx, a):
    kinds = _as_item(a).kinds
    return ItemColumn.from_bools((kinds == K_NODE) | (kinds == K_ATTR))


def _fn_kind_code(ctx, a):
    return _as_item(a).kinds.astype(np.int64)


def _fn_is_numeric(ctx, a):
    kinds = _as_item(a).kinds
    return ItemColumn.from_bools(
        (kinds == K_INT) | (kinds == K_DBL) | (kinds == K_DEC)
    )


def _fn_node_kind(ctx, a):
    """Arena node kind of node items (-1 for atomics, -2 for attributes)."""
    a = _as_item(a)
    out = np.full(len(a), -1, dtype=np.int64)
    m = a.kinds == K_NODE
    if m.any():
        out[m] = ctx.arena.kind[a.data[m]]
    out[a.kinds == K_ATTR] = -2
    return out


def _fn_root_of(ctx, a):
    a = _as_item(a)
    if len(a) and not np.all(a.kinds == K_NODE):
        raise DynamicError("fn:root requires nodes", code="err:XPTY0004")
    return ItemColumn.from_nodes(ctx.arena.root_of(a.data))


def _fn_cast_dbl(ctx, a):
    return ItemColumn.from_doubles(it.to_double(_as_item(a), ctx.pool))


def _fn_cast_dec(ctx, a):
    return ItemColumn.from_decimals(it.to_double(_as_item(a), ctx.pool))


#: kinds whose items compare numerically in fn:distinct-values
_DV_NUMERIC = np.array([K_INT, K_DBL, K_DEC], dtype=np.uint8)
#: kinds whose items compare as strings in fn:distinct-values
_DV_STRINGS = np.array([K_STR, K_UNTYPED, K_QNAME], dtype=np.uint8)


def _fn_atom_cls(ctx, a):
    """fn:distinct-values equality class: numerics compare with numerics
    (``1 eq 1.0``), strings/untyped with each other, booleans apart."""
    a = _as_item(a)
    out = np.full(len(a), 3, dtype=np.int64)
    out[np.isin(a.kinds, _DV_NUMERIC)] = 0
    out[np.isin(a.kinds, _DV_STRINGS)] = 1
    out[a.kinds == K_BOOL] = 2
    return out


def _fn_atom_key(ctx, a):
    """fn:distinct-values equality key within the class: numerics compare
    by value (canonical double bits, one NaN), strings by surrogate."""
    a = _as_item(a)
    out = a.data.astype(np.int64).copy()
    numeric = np.isin(a.kinds, _DV_NUMERIC)
    if numeric.any():
        v = it.to_double(a.take(numeric), ctx.pool)
        # canonical NaN bits: distinct-values treats NaN as equal to NaN
        v = np.where(np.isnan(v), np.float64("nan"), v)
        out[numeric] = it._bits(v)
    return out


def _fn_cast_int(ctx, a):
    a = _as_item(a)
    ints = a.kinds == K_INT
    if ints.all():  # exact: no trip through doubles
        return ItemColumn.from_ints(a.data)
    vals = np.where(ints, 0.0, it.to_double(a, ctx.pool))
    if np.any(np.isnan(vals)):
        raise DynamicError("cannot cast to xs:integer", code="err:FORG0001")
    out = it.doubles_to_ints(vals, "err:FOCA0003")
    out[ints] = a.data[ints]
    return ItemColumn.from_ints(out)


def _fn_cast_str(ctx, a):
    return ItemColumn.from_pooled(K_STR, it.to_string_ids(_as_item(a), ctx.pool))


def _fn_node_eq(ctx, a, b):
    a, b = _as_item(a), _as_item(b)
    return ItemColumn.from_bools((a.data == b.data) & (a.kinds == b.kinds))


def _fn_node_before(ctx, a, b):
    return ItemColumn.from_bools(_as_item(a).data < _as_item(b).data)


def _fn_node_after(ctx, a, b):
    return ItemColumn.from_bools(_as_item(a).data > _as_item(b).data)


def _str_pairs(ctx, a, b):
    pool = ctx.pool
    sa = it.to_string_ids(_as_item(a), pool)
    sb = it.to_string_ids(_as_item(b), pool)
    return (
        [pool.value(int(x)) for x in sa],
        [pool.value(int(x)) for x in sb],
    )


def _fn_contains(ctx, a, b):
    xs, ys = _str_pairs(ctx, a, b)
    return ItemColumn.from_bools([y in x for x, y in zip(xs, ys)])


def _fn_starts_with(ctx, a, b):
    xs, ys = _str_pairs(ctx, a, b)
    return ItemColumn.from_bools([x.startswith(y) for x, y in zip(xs, ys)])


def _fn_string_length(ctx, a):
    pool = ctx.pool
    sa = it.to_string_ids(_as_item(a), pool)
    return ItemColumn.from_ints([len(pool.value(int(x))) for x in sa])


def _fn_concat(ctx, a, b):
    xs, ys = _str_pairs(ctx, a, b)
    pool = ctx.pool
    return ItemColumn.from_pooled(
        K_STR, [pool.intern(x + y) for x, y in zip(xs, ys)]
    )


def _fn_ends_with(ctx, a, b):
    xs, ys = _str_pairs(ctx, a, b)
    return ItemColumn.from_bools([x.endswith(y) for x, y in zip(xs, ys)])


def _fn_substring_before(ctx, a, b):
    xs, ys = _str_pairs(ctx, a, b)
    pool = ctx.pool
    return ItemColumn.from_pooled(
        K_STR,
        [pool.intern(x.partition(y)[0] if y and y in x else "") for x, y in zip(xs, ys)],
    )


def _fn_substring_after(ctx, a, b):
    xs, ys = _str_pairs(ctx, a, b)
    pool = ctx.pool
    return ItemColumn.from_pooled(
        K_STR,
        [pool.intern(x.partition(y)[2] if y and y in x else "") for x, y in zip(xs, ys)],
    )


def _decode_strings(ctx, a):
    pool = ctx.pool
    sa = it.to_string_ids(_as_item(a), pool)
    return [pool.value(int(x)) for x in sa]


def _str_map_fn(transform):
    def fn(ctx, a):
        pool = ctx.pool
        return ItemColumn.from_pooled(
            K_STR, [pool.intern(transform(s)) for s in _decode_strings(ctx, a)]
        )

    return fn


def _fn_substring(ctx, a, start, length=None):
    """XPath substring: 1-based start, rounding per the F&O spec (NaN or
    infinite positions select no characters instead of crashing)."""
    xs = _decode_strings(ctx, a)
    starts = it.to_double(_as_item(start), ctx.pool)
    lengths = None if length is None else it.to_double(_as_item(length), ctx.pool)
    pool = ctx.pool
    out = []
    for i, s in enumerate(xs):
        n = None if lengths is None else float(lengths[i])
        out.append(pool.intern(it.xpath_substring(s, float(starts[i]), n)))
    return ItemColumn.from_pooled(K_STR, out)


def _round_fn(kind):
    def fn(ctx, a):
        item = _as_item(a)
        if item.is_homogeneous(it.K_INT):
            data = np.abs(item.data) if kind == "abs" else item.data
            return ItemColumn.from_ints(data)
        v = it.to_double(item, ctx.pool)
        if kind == "floor":
            r = np.floor(v)
        elif kind == "ceiling":
            r = np.ceil(v)
        elif kind == "round":
            r = np.floor(v + 0.5)  # XPath rounds .5 up
        else:  # abs
            r = np.abs(v)
        if item.is_homogeneous(K_DEC):
            return ItemColumn.from_decimals(r)
        return ItemColumn.from_doubles(r)

    return fn


def _fn_elem_name_is(ctx, a, b):
    """Is item a an element named like (string column/const) b?"""
    a = _as_item(a)
    pool = ctx.pool
    sb = it.to_string_ids(_as_item(b), pool)
    arena = ctx.arena
    out = np.zeros(len(a), dtype=bool)
    m = a.kinds == K_NODE
    if m.any():
        rows = a.data[m]
        from repro.encoding.arena import NK_ELEM

        out_m = (arena.kind[rows] == NK_ELEM) & (arena.name[rows] == sb[m])
        out[m] = out_m
    return ItemColumn.from_bools(out)


def _deep_equal_nodes(arena, x: int, y: int) -> bool:
    """Structural equality of two subtrees (fn:deep-equal node case)."""
    if arena.kind[x] != arena.kind[y]:
        return False
    from repro.encoding.arena import NK_COMMENT, NK_ELEM, NK_PI, NK_TEXT

    kind = int(arena.kind[x])
    if kind in (NK_TEXT, NK_COMMENT):
        return arena.value[x] == arena.value[y]
    if kind == NK_PI:
        return arena.name[x] == arena.name[y] and arena.value[x] == arena.value[y]
    if kind == NK_ELEM and arena.name[x] != arena.name[y]:
        return False
    # attributes: same name/value multiset
    ox, lx, hx = arena.attr_ranges(np.asarray([x], dtype=np.int64))
    oy, ly, hy = arena.attr_ranges(np.asarray([y], dtype=np.int64))
    ax = sorted(
        (int(arena.attr_name[j]), int(arena.attr_value[j]))
        for j in ox[int(lx[0]) : int(hx[0])]
    )
    ay = sorted(
        (int(arena.attr_name[j]), int(arena.attr_value[j]))
        for j in oy[int(ly[0]) : int(hy[0])]
    )
    if ax != ay:
        return False
    # children pairwise (comments/PIs included for simplicity)
    ox, lx, hx = arena.children_ranges(np.asarray([x], dtype=np.int64))
    oy, ly, hy = arena.children_ranges(np.asarray([y], dtype=np.int64))
    cx = sorted(int(r) for r in ox[int(lx[0]) : int(hx[0])])
    cy = sorted(int(r) for r in oy[int(ly[0]) : int(hy[0])])
    if len(cx) != len(cy):
        return False
    return all(_deep_equal_nodes(arena, i, j) for i, j in zip(cx, cy))


def _fn_deep_equal(ctx, a, b):
    a, b = _as_item(a), _as_item(b)
    arena, pool = ctx.arena, ctx.pool
    out = np.zeros(len(a), dtype=bool)
    for i in range(len(a)):
        ka, kb = int(a.kinds[i]), int(b.kinds[i])
        va, vb = int(a.data[i]), int(b.data[i])
        node_a = ka in (K_NODE, K_ATTR)
        node_b = kb in (K_NODE, K_ATTR)
        if node_a != node_b:
            out[i] = False
        elif ka == K_NODE and kb == K_NODE:
            out[i] = _deep_equal_nodes(arena, va, vb)
        elif ka == K_ATTR and kb == K_ATTR:
            out[i] = (
                arena.attr_name[va] == arena.attr_name[vb]
                and arena.attr_value[va] == arena.attr_value[vb]
            )
        else:
            out[i] = bool(
                it.compare("eq", a.take([i]), b.take([i]), pool)[0]
            )
    return ItemColumn.from_bools(out)


def _fn_node_name(ctx, a):
    a = _as_item(a)
    arena, pool = ctx.arena, ctx.pool
    out = np.empty(len(a), dtype=np.int64)
    empty = pool.intern("")
    for i in range(len(a)):
        kind, payload = int(a.kinds[i]), int(a.data[i])
        if kind == K_NODE:
            nid = int(arena.name[payload])
            out[i] = nid if nid >= 0 else empty
        elif kind == K_ATTR:
            out[i] = int(arena.attr_name[payload])
        else:
            out[i] = empty
    return ItemColumn.from_pooled(K_STR, out)


_MAP_FNS: dict[str, Callable] = {
    "add": _fn_arith("add"),
    "sub": _fn_arith("sub"),
    "mul": _fn_arith("mul"),
    "div": _fn_arith("div"),
    "idiv": _fn_arith("idiv"),
    "mod": _fn_arith("mod"),
    "neg": _fn_neg,
    "eq": _fn_cmp("eq"),
    "ne": _fn_cmp("ne"),
    "lt": _fn_cmp("lt"),
    "le": _fn_cmp("le"),
    "gt": _fn_cmp("gt"),
    "ge": _fn_cmp("ge"),
    "and": _fn_and,
    "or": _fn_or,
    "not": _fn_not,
    "ebv": _fn_ebv,
    "is_node": _fn_is_node,
    "kind_code": _fn_kind_code,
    "is_numeric": _fn_is_numeric,
    "node_kind": _fn_node_kind,
    "root_of": _fn_root_of,
    "cast_dbl": _fn_cast_dbl,
    "cast_dec": _fn_cast_dec,
    "cast_int": _fn_cast_int,
    "cast_str": _fn_cast_str,
    "atom_cls": _fn_atom_cls,
    "atom_key": _fn_atom_key,
    "node_eq": _fn_node_eq,
    "node_before": _fn_node_before,
    "node_after": _fn_node_after,
    "contains": _fn_contains,
    "starts_with": _fn_starts_with,
    "ends_with": _fn_ends_with,
    "substring_before": _fn_substring_before,
    "substring_after": _fn_substring_after,
    "substring2": _fn_substring,
    "substring3": _fn_substring,
    "string_length": _fn_string_length,
    "concat": _fn_concat,
    "upper_case": _str_map_fn(str.upper),
    "lower_case": _str_map_fn(str.lower),
    "normalize_space": _str_map_fn(lambda s: " ".join(s.split())),
    "floor": _round_fn("floor"),
    "ceiling": _round_fn("ceiling"),
    "round": _round_fn("round"),
    "abs": _round_fn("abs"),
    "elem_name_is": _fn_elem_name_is,
    "node_name": _fn_node_name,
    "deep_equal": _fn_deep_equal,
}
