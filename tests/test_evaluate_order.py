"""The evaluator's in-order fast paths against slow-path references.

Sorting, uniquing and gathering operators first check whether their input
already has the order they would produce (``kernels.is_sorted``) and then
skip the work; × with a one-row side gathers only that side; ``str_join``
keeps one-item groups as they are; σ ``b = true()`` over booleans is a
payload mask.  Each test draws inputs in every shape the check has to
tell apart — sorted, sorted with ties, strictly sorted, sorted on the
first key only, reversed, shuffled, with duplicates, one row, empty — and holds the kernel or
handler to a reference written the slow way (``lexsort``, ``np.unique``,
``repeat`` + ``tile``, plain Python): same rows, same order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.encoding.arena import NodeArena
from repro.relational import algebra as alg
from repro.relational import evaluate as ev
from repro.relational import items as it
from repro.relational import kernels as k
from repro.relational.algebra import col, const
from repro.relational.items import ItemColumn
from repro.relational.staircase import _sorted_distinct_pairs
from repro.relational.table import Table

SHAPES = (
    "sorted", "ties", "strict", "primary", "reversed", "shuffled", "duplicates",
    "one", "empty",
)

#: stands in for the child plan of a handler called directly
_CHILD = alg.Lit(("x",), ())

#: 2^53 + 1: the first integer a float64 cannot hold
BIG = 2**53 + 1

_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def key_rows(draw, width=1, lo=0, hi=5):
    """``width`` int64 key columns whose rows come in one of SHAPES."""
    shape = draw(st.sampled_from(SHAPES))
    if shape == "empty":
        rows = []
    else:
        size = 1 if shape == "one" else draw(st.integers(2, 24))
        cell = st.integers(lo, hi)
        rows = draw(st.lists(st.tuples(*[cell] * width), min_size=size, max_size=size))
    if shape == "sorted":
        rows.sort()
    elif shape == "ties":
        rows = sorted(rows + rows[:2])
    elif shape == "strict":
        rows = sorted(set(rows))
    elif shape == "primary":  # sorted on the first key only
        rows.sort(key=lambda row: row[0])
    elif shape == "reversed":
        rows.sort(reverse=True)
    elif shape == "shuffled":
        rows = draw(st.permutations(rows))
    elif shape == "duplicates":
        rows = draw(st.permutations(rows + rows))
    array = np.asarray(rows, dtype=np.int64).reshape(len(rows), width)
    return [array[:, j].copy() for j in range(width)]


def _ctx():
    return ev.EvalContext(NodeArena())


def _same(table: Table, expected: Table):
    assert table.schema == expected.schema
    for name in expected.schema:
        got, want = table.col(name), expected.col(name)
        assert isinstance(got, ItemColumn) == isinstance(want, ItemColumn), name
        if isinstance(want, ItemColumn):
            assert got.kinds.tolist() == want.kinds.tolist(), name
            assert got.data.tolist() == want.data.tolist(), name
        else:
            assert np.asarray(got).tolist() == np.asarray(want).tolist(), name


def _group_starts(sorted_groups: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) of each run of equal values."""
    bounds = [0] + [i for i in range(1, len(sorted_groups))
                    if sorted_groups[i] != sorted_groups[i - 1]] + [len(sorted_groups)]
    return list(zip(bounds[:-1], bounds[1:])) if len(sorted_groups) else []


# --------------------------------------------------------------- kernels
@given(key_rows(width=2), st.booleans())
@_SETTINGS
def test_is_sorted_is_python_tuple_order(columns, strict):
    rows = list(zip(*(c.tolist() for c in columns)))
    pairs = list(zip(rows, rows[1:]))
    want = all(a < b for a, b in pairs) if strict else all(a <= b for a, b in pairs)
    assert k.is_sorted(columns, strict=strict) == want
    # and on the primary key alone
    first = columns[0].tolist()
    steps = list(zip(first, first[1:]))
    want1 = all(a < b for a, b in steps) if strict else all(a <= b for a, b in steps)
    assert k.is_sorted(columns[:1], strict=strict) == want1


def test_is_sorted_edges():
    assert k.is_sorted([])
    assert k.is_sorted([np.empty(0, dtype=np.int64)], strict=True)
    assert k.is_sorted([np.asarray([3])], strict=True)
    assert not k.is_sorted([np.asarray([1, 1])], strict=True)
    assert k.is_sorted([np.asarray([1, 1]), np.asarray([0, 1])], strict=True)
    assert not k.is_sorted([np.asarray([1, 1]), np.asarray([1, 0])])
    assert k.is_sorted([np.asarray([1.5, 2.0, 2.0])])


@given(key_rows(), key_rows())
@_SETTINGS
def test_join_indices_matches_stable_sort_merge(left, right):
    (lk,), (rk,) = left, right
    order = np.argsort(rk, kind="stable")
    want = [(i, int(j)) for i in range(len(lk)) for j in order if rk[j] == lk[i]]
    li, ri = k.join_indices(lk, rk)
    assert list(zip(li.tolist(), ri.tolist())) == want


@given(key_rows(), key_rows())
@_SETTINGS
def test_in_set_matches_membership(keys, probe):
    (keys,), (probe,) = keys, probe
    members = set(probe.tolist())
    assert k.in_set(keys, probe).tolist() == [x in members for x in keys.tolist()]


@given(key_rows(width=2))
@_SETTINGS
def test_sorted_distinct_pairs_matches_sorted_set(columns):
    iters, rows = columns
    want = sorted(set(zip(iters.tolist(), rows.tolist())))
    got_i, got_r = _sorted_distinct_pairs(iters, rows)
    assert list(zip(got_i.tolist(), got_r.tolist())) == want


# -------------------------------------------------------------- handlers
@st.composite
def rownum_case(draw):
    """(table, RowNum) with an optional group and one order key that is
    an int column, a node-item column or a mixed item column."""
    grouped = draw(st.booleans())
    group, keys = draw(key_rows(width=2))
    kind = draw(st.sampled_from(("int", "node", "mixed")))
    if kind == "int":
        key: object = keys
    elif kind == "node":
        key = ItemColumn.from_nodes(keys)
    else:
        kinds = np.where(keys % 2 == 0, it.K_INT, it.K_NODE).astype(np.uint8)
        key = ItemColumn(kinds, keys)
    descending = draw(st.booleans())
    table = Table({"g": group, "k": key})
    node = alg.RowNum(_CHILD, "r", (("k", descending),), "g" if grouped else None)
    return table, node


@given(rownum_case())
@_SETTINGS
def test_rownum_matches_lexsort(case):
    table, node = case
    ctx = _ctx()
    got = ev._eval_rownum(node, [table], ctx)
    # the slow way: items.order_columns for every item column, lexsort
    key = table.col("k")
    descending = node.order[0][1]
    if isinstance(key, ItemColumn):
        sort_keys = it.order_columns(key, ctx.pool)
    else:
        sort_keys = [key]
    if descending:
        sort_keys = [-x for x in sort_keys]
    n = table.num_rows
    group = table.num("g") if node.group else np.zeros(n, dtype=np.int64)
    order = np.lexsort(sort_keys[::-1] + [group])
    ranks = np.empty(n, dtype=np.int64)
    for start, stop in _group_starts(group[order]):
        ranks[order[start:stop]] = np.arange(1, stop - start + 1)
    _same(got, table.with_column("r", ranks))


@st.composite
def aggr_case(draw):
    """(table, Aggr) over drawn groups and an optional order column."""
    group, pos = draw(key_rows(width=2))
    n = len(group)
    kind = draw(st.sampled_from(("count", "sum", "min", "max", "str_join")))
    ordered = kind == "str_join" or draw(st.booleans())
    if kind == "str_join":
        words = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
        arg: object = words
    else:
        # either integers beyond 2^53, which must survive exactly, or
        # small integers mixed with (integral, so exactly summed) doubles
        # that make their group a double group
        ints = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        if draw(st.booleans()):
            arg = [BIG + v for v in ints]
        else:
            doubles = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            arg = [float(v) if d else v for v, d in zip(ints, doubles)]
    grouped = draw(st.booleans())
    node = alg.Aggr(
        _CHILD, kind, "v", None if kind == "count" else "a",
        "g" if grouped else None, sep="-", order_col="p" if ordered else None,
    )
    return {"g": group, "p": pos, "a": arg}, node


@given(aggr_case())
@example((  # groups in order, but not the rows inside a group
    {"g": np.asarray([1, 1, 2]), "p": np.asarray([2, 1, 1]), "a": ["a", "b", "c"]},
    alg.Aggr(_CHILD, "str_join", "v", "a", "g", sep="-", order_col="p"),
))
@_SETTINGS
def test_aggr_matches_sorted_groups(case):
    columns, node = case
    ctx = _ctx()
    table = Table({
        "g": columns["g"], "p": columns["p"],
        "a": ItemColumn.from_values(columns["a"], ctx.pool),
    })
    got = ev._eval_aggr(node, [table], ctx)
    n = table.num_rows
    groups = columns["g"] if node.group else np.zeros(n, dtype=np.int64)
    order = (np.lexsort((columns["p"], groups)) if node.order_col
             else np.argsort(groups, kind="stable"))
    values = [columns["a"][i] for i in order]
    spans = _group_starts(groups[order])
    if node.kind == "count":
        want = [stop - start for start, stop in spans]
    elif node.kind == "str_join":
        want = ["-".join(values[start:stop]) for start, stop in spans]
    else:
        reduce = {"sum": sum, "min": min, "max": max}[node.kind]
        want = []
        for start, stop in spans:
            group_values = values[start:stop]
            if all(isinstance(v, int) for v in group_values):
                want.append(reduce(group_values))  # exact, in Python ints
            else:
                want.append(float(reduce(float(v) for v in group_values)))
    if node.group is None and n == 0:
        want = [0] if node.kind == "count" else []
    agg = got.col("v")
    values_out = agg.tolist() if isinstance(agg, np.ndarray) else agg.to_values(ctx.pool)
    assert values_out == want
    assert all(type(a) is type(b) for a, b in zip(values_out, want))
    if node.group is not None:
        assert got.num("g").tolist() == [int(groups[order][s]) for s, _ in spans]


@st.composite
def distinct_case(draw):
    """(table, Distinct) keyed on an int column and an item column."""
    a, b, p = draw(key_rows(width=3))
    items = draw(st.booleans())
    table = Table({"a": a, "b": ItemColumn.from_ints(b) if items else b, "p": p})
    ordered = draw(st.booleans())
    return table, alg.Distinct(_CHILD, ("a", "b"), "p" if ordered else None)


@given(distinct_case())
@_SETTINGS
def test_distinct_keeps_first_in_order(case):
    table, node = case
    got = ev._eval_distinct(node, [table], _ctx())
    a, b, p = table.num("a"), table.num("b"), table.num("p")
    order = np.argsort(p, kind="stable") if node.order_col else np.arange(len(a))
    first: dict[tuple, int] = {}
    for i in order.tolist():
        first.setdefault((int(a[i]), int(b[i])), i)
    _same(got, table.take(np.asarray(sorted(first.values()), dtype=np.int64)))


@given(key_rows(), key_rows())
@_SETTINGS
def test_cross_matches_repeat_tile(left, right):
    (lv,), (rv,) = left, right
    lt = Table({"l": lv, "li": ItemColumn.from_ints(lv * 10)})
    rt = Table({"r": rv, "ri": ItemColumn.from_nodes(rv)})
    got = ev._eval_cross(alg.Cross(_CHILD, _CHILD), [lt, rt], _ctx())
    nl, nr = len(lv), len(rv)
    li = np.repeat(np.arange(nl, dtype=np.int64), nr)
    ri = np.tile(np.arange(nr, dtype=np.int64), nl)
    _same(got, Table({**lt.take(li).columns, **rt.take(ri).columns}))


@given(key_rows(width=2), st.booleans(), st.booleans())
@_SETTINGS
def test_select_bool_matches_compare(columns, value, boolean_items):
    ctx = _ctx()
    rows, flags = columns
    item = (ItemColumn.from_bools(flags % 2 == 1) if boolean_items
            else ItemColumn.from_ints(flags % 2))
    table = Table({"r": rows, "b": item})
    got = ev._eval_select(alg.Select(_CHILD, "eq", col("b"), const(value)), [table], ctx)
    n = len(rows)
    constant = ItemColumn.from_bools(np.full(n, value))
    _same(got, table.take(it.compare("eq", item, constant, ctx.pool)))
