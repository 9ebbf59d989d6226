"""Staircase join: tree-aware XPath axis evaluation on the encoding.

The staircase join [Grust/van Keulen/Teubner, VLDB 2003] makes an RDBMS
"watch its axis steps": for a *set* of context nodes it evaluates an XPath
axis in one scan by (a) **pruning** context nodes whose axis region is
covered by another context node's region, (b) **partitioning** the
remaining regions so no output is produced twice, and (c) **skipping**
rows that cannot qualify.  With the arena's row-id-equals-pre property the
regions are integer ranges, so the scan phase is a batched range
materialisation.

Everything here is *per iteration* (``iter``): the loop-lifted plans
evaluate one axis step for many iterations at once, so pruning and
deduplication are segmented by ``iter``.

:func:`staircase_step` is the tree-aware implementation;
:func:`naive_step` is the deliberately tree-unaware baseline (a region
selection per context node, duplicates removed at the end) used by the E5
ablation benchmark — it is what a stock RDBMS would do and is asymptotically
worse on recursive axes, which is the paper's Q6/Q7 headline.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.arena import (
    NK_COMMENT,
    NK_DOC,
    NK_ELEM,
    NK_PI,
    NK_TEXT,
    NodeArena,
)
from repro.encoding.axes import Axis, NodeTest
from repro.errors import DynamicError
from repro.relational.kernels import (
    coalesce_ranges,
    group_starts,
    is_sorted,
    join_indices,
    multi_arange,
    segmented_cummax,
)

_EMPTY = np.empty(0, dtype=np.int64)

_KIND_OF_TEST = {
    "element": NK_ELEM,
    "text": NK_TEXT,
    "comment": NK_COMMENT,
    "processing-instruction": NK_PI,
    "document-node": NK_DOC,
}


def node_test_mask(arena: NodeArena, rows: np.ndarray, test: NodeTest) -> np.ndarray:
    """Boolean mask of arena rows satisfying a node test."""
    if test.kind == "node":
        return np.ones(len(rows), dtype=bool)
    if test.kind == "attribute":
        return np.zeros(len(rows), dtype=bool)
    want = _KIND_OF_TEST[test.kind]
    mask = arena.kind[rows] == want
    if test.name is not None:
        name_id = arena.pool.lookup(test.name)
        mask &= arena.name[rows] == name_id
    return mask


def attr_test_mask(arena: NodeArena, attr_ids: np.ndarray, test: NodeTest) -> np.ndarray:
    """Boolean mask of attribute ids satisfying an attribute node test."""
    if test.kind == "node":
        return np.ones(len(attr_ids), dtype=bool)
    if test.kind != "attribute":
        return np.zeros(len(attr_ids), dtype=bool)
    if test.name is None:
        return np.ones(len(attr_ids), dtype=bool)
    name_id = arena.pool.lookup(test.name)
    return arena.attr_name[attr_ids] == name_id


def _sorted_distinct_pairs(
    iters: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(iter, row) pairs sorted by (iter, row) and duplicate-free — the
    axis-step post-condition.  Pairs that are already in order (a chain
    of steps hands them over that way) skip the sort."""
    if not is_sorted((iters, rows)):
        order = np.lexsort((rows, iters))
        iters, rows = iters[order], rows[order]
    if len(iters):
        # a pair repeats only if both iter and row repeat
        keep = np.concatenate(([True], (iters[1:] != iters[:-1]) | (rows[1:] != rows[:-1])))
        if not keep.all():
            iters, rows = iters[keep], rows[keep]
    return iters, rows


def staircase_step(
    arena: NodeArena,
    iters: np.ndarray,
    nodes: np.ndarray,
    axis: Axis,
    test: NodeTest,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``axis::test`` for a batch of (iter, context-node) pairs.

    Returns ``(iters, rows)`` sorted by (iter, document order) and
    duplicate-free per iter — the axis-step post-condition.  For
    ``Axis.ATTRIBUTE`` the returned rows are attribute ids, otherwise
    arena node rows.
    """
    iters = np.asarray(iters, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    if len(iters) == 0:
        return _EMPTY, _EMPTY
    # axes never leave the context nodes' fragments, so faulting those
    # fragments in covers every row (and attribute) this step can read
    arena.ensure_rows(nodes)
    iters, nodes = _sorted_distinct_pairs(iters, nodes)
    return _step_sorted(arena, iters, nodes, axis, test)


def _step_sorted(
    arena: NodeArena,
    iters: np.ndarray,
    nodes: np.ndarray,
    axis: Axis,
    test: NodeTest,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-axis staircase body; contexts must already be sorted by
    (iter, document order) and duplicate-free — which is also the output
    post-condition, so steps chain without re-sorting (the twig join's
    fused loop relies on exactly that)."""
    if axis is Axis.ATTRIBUTE:
        order, lo, hi = arena.attr_ranges(nodes)
        out_iter = np.repeat(iters, hi - lo)
        attr_ids = order[multi_arange(lo, hi)]
        mask = attr_test_mask(arena, attr_ids, test)
        out_iter, attr_ids = out_iter[mask], attr_ids[mask]
        return _sorted_distinct_pairs(out_iter, attr_ids)

    if axis is Axis.SELF:
        mask = node_test_mask(arena, nodes, test)
        return iters[mask], nodes[mask]

    if axis is Axis.CHILD:
        order, lo, hi = arena.children_ranges(nodes)
        out_iter = np.repeat(iters, hi - lo)
        rows = order[multi_arange(lo, hi)]
        mask = node_test_mask(arena, rows, test)
        out_iter, rows = out_iter[mask], rows[mask]
        return _sorted_distinct_pairs(out_iter, rows)

    if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        ends = nodes + arena.size[nodes]
        running = segmented_cummax(ends, iters)
        keep = group_starts(iters).copy()
        if len(iters) > 1:
            keep[1:] |= nodes[1:] > running[:-1]
        c_iter, c_node, c_end = iters[keep], nodes[keep], ends[keep]
        starts = c_node if axis is Axis.DESCENDANT_OR_SELF else c_node + 1
        rows = multi_arange(starts, c_end + 1)
        out_iter = np.repeat(c_iter, np.maximum(c_end + 1 - starts, 0))
        mask = node_test_mask(arena, rows, test)
        return out_iter[mask], rows[mask]

    if axis is Axis.PARENT:
        parents = arena.parent[nodes]
        valid = parents >= 0
        out_iter, rows = iters[valid], parents[valid]
        mask = node_test_mask(arena, rows, test)
        return _sorted_distinct_pairs(out_iter[mask], rows[mask])

    if axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
        acc_i: list[np.ndarray] = []
        acc_r: list[np.ndarray] = []
        cur_i, cur_r = iters, nodes
        if axis is Axis.ANCESTOR_OR_SELF:
            acc_i.append(cur_i)
            acc_r.append(cur_r)
        while len(cur_r):
            parents = arena.parent[cur_r]
            valid = parents >= 0
            cur_i, cur_r = cur_i[valid], parents[valid]
            if len(cur_r) == 0:
                break
            # dedupe as we climb: many contexts converge onto few ancestors
            cur_i, cur_r = _sorted_distinct_pairs(cur_i, cur_r)
            acc_i.append(cur_i)
            acc_r.append(cur_r)
        if not acc_i:
            return _EMPTY, _EMPTY
        out_iter = np.concatenate(acc_i)
        rows = np.concatenate(acc_r)
        mask = node_test_mask(arena, rows, test)
        return _sorted_distinct_pairs(out_iter[mask], rows[mask])

    if axis is Axis.FOLLOWING:
        starts = nodes + arena.size[nodes] + 1
        fends = arena.frag_end(nodes)
        frags = arena.frag[nodes]
        boundary = group_starts(iters) | np.concatenate(
            ([True], frags[1:] != frags[:-1])
        ) if len(iters) else np.empty(0, dtype=bool)
        group_idx = np.nonzero(boundary)[0]
        mins = np.minimum.reduceat(starts, group_idx)
        g_iter = iters[group_idx]
        g_end = fends[group_idx]
        rows = multi_arange(mins, g_end + 1)
        out_iter = np.repeat(g_iter, np.maximum(g_end + 1 - mins, 0))
        mask = node_test_mask(arena, rows, test)
        return out_iter[mask], rows[mask]

    if axis is Axis.PRECEDING:
        frags = arena.frag[nodes]
        bases = arena.frag_base[frags]
        boundary = group_starts(iters) | np.concatenate(
            ([True], frags[1:] != frags[:-1])
        ) if len(iters) else np.empty(0, dtype=bool)
        group_idx = np.nonzero(boundary)[0]
        group_last = np.concatenate((group_idx[1:] - 1, [len(iters) - 1]))
        maxs = nodes[group_last]  # contexts sorted: max node per group is last
        g_iter = iters[group_idx]
        g_base = bases[group_idx]
        rows = multi_arange(g_base, maxs)
        out_iter = np.repeat(g_iter, np.maximum(maxs - g_base, 0))
        keep = rows + arena.size[rows] < np.repeat(maxs, np.maximum(maxs - g_base, 0))
        out_iter, rows = out_iter[keep], rows[keep]
        mask = node_test_mask(arena, rows, test)
        return out_iter[mask], rows[mask]

    if axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING):
        parents = arena.parent[nodes]
        valid = parents >= 0
        iters_v, nodes_v, parents_v = iters[valid], nodes[valid], parents[valid]
        order, lo, hi = arena.children_ranges(parents_v)
        counts = hi - lo
        out_iter = np.repeat(iters_v, counts)
        ctx = np.repeat(nodes_v, counts)
        rows = order[multi_arange(lo, hi)]
        if axis is Axis.FOLLOWING_SIBLING:
            keep = rows > ctx
        else:
            keep = rows < ctx
        out_iter, rows = out_iter[keep], rows[keep]
        mask = node_test_mask(arena, rows, test)
        return _sorted_distinct_pairs(out_iter[mask], rows[mask])

    raise DynamicError(f"unsupported axis {axis}")


#: axes a :func:`twig_match` chain may contain (node-kind, downward)
TWIG_AXES = (Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF)


def twig_match(
    arena: NodeArena,
    iters: np.ndarray,
    nodes: np.ndarray,
    steps: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """Match a whole chain of axis steps in one pass (a twig join).

    ``steps`` is ``((axis, test), ...)`` with axes from :data:`TWIG_AXES`.
    Semantically identical to folding :func:`staircase_step` over the
    chain — same sorted, duplicate-free-per-iter output — but evaluated
    as one multi-way join:

    * an **all-child chain** runs bottom-up: the distinct context
      subtrees are coalesced into disjoint pre ranges
      (:func:`~repro.relational.kernels.coalesce_ranges`), candidates for
      the *last* step's test are materialised once from those ranges, and
      each survivor walks its parent chain upward checking the earlier
      tests — the chain's k-th ancestor is then joined back against the
      ``(iter, context)`` pairs.  No intermediate frontier is ever
      materialised, which is the worst-case-optimal property;
    * a **mixed chain** runs the staircase per-axis bodies fused: each
      step's output already satisfies the sorted-distinct post-condition,
      so the per-step context re-sort of the pairwise pipeline is
      skipped, and an empty frontier terminates the whole match early.

    No plan operator calls it — plans keep pairwise staircase steps; the
    benchmark's layer probe (``perf/layers.py``) times it beside them.
    """
    iters = np.asarray(iters, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    if len(iters) == 0 or not steps:
        return _EMPTY, _EMPTY
    arena.ensure_rows(nodes)
    iters, nodes = _sorted_distinct_pairs(iters, nodes)
    if all(axis is Axis.CHILD for axis, _ in steps):
        return _twig_child_chain(arena, iters, nodes, [t for _, t in steps])
    cur_i, cur_n = iters, nodes
    for axis, test in steps:
        if len(cur_i) == 0:
            return _EMPTY, _EMPTY  # empty-intermediate early termination
        cur_i, cur_n = _step_sorted(arena, cur_i, cur_n, axis, test)
    return cur_i, cur_n


def _twig_candidates(
    arena: NodeArena, starts: np.ndarray, stops: np.ndarray, test: NodeTest
) -> np.ndarray:
    """Rows inside the disjoint sorted ranges that satisfy ``test``.

    Scans the kind/name columns as one contiguous slice over the
    covering span — no row-index materialisation, no gathers — then
    drops matches that fall in gaps between ranges.  Gap rows may be
    paged-out garbage, which is fine: they never survive the range
    filter, and a single range has no gaps at all.
    """
    if test.kind == "attribute":
        return _EMPTY
    if test.kind == "node":
        return multi_arange(starts, stops)
    lo, hi = int(starts[0]), int(stops[-1])
    mask = arena.kind[lo:hi] == _KIND_OF_TEST[test.kind]
    if test.name is not None:
        mask &= arena.name[lo:hi] == arena.pool.lookup(test.name)
    cand = np.flatnonzero(mask)
    cand += lo
    if len(starts) > 1:
        pos = np.searchsorted(starts, cand, side="right") - 1
        cand = cand[cand < stops[pos]]
    return cand


def _twig_child_chain(
    arena: NodeArena,
    iters: np.ndarray,
    nodes: np.ndarray,
    tests: list[NodeTest],
) -> tuple[np.ndarray, np.ndarray]:
    """All-child twig: candidate scan + parent-chain walk + context join.

    A node matches a k-step child chain iff its k-th ancestor is a
    context node and the i-th node on the walk up satisfies the i-th
    test from the end.  Each candidate has exactly one k-th ancestor, so
    the joined output has no duplicates by construction.
    """
    k = len(tests)
    cnodes = np.unique(nodes)
    starts, stops = coalesce_ranges(cnodes + 1, cnodes + arena.size[cnodes] + 1)
    cand = _twig_candidates(arena, starts, stops, tests[-1])
    cur = cand
    for j in range(k - 2, -1, -1):
        if len(cur) == 0:
            return _EMPTY, _EMPTY
        cur = arena.parent[cur]
        ok = cur >= 0
        if not ok.all():
            cand, cur = cand[ok], cur[ok]
        m = node_test_mask(arena, cur, tests[j])
        if not m.all():
            cand, cur = cand[m], cur[m]
    if len(cur) == 0:
        return _EMPTY, _EMPTY
    anchors = arena.parent[cur]  # each survivor's k-th ancestor
    li, ri = join_indices(nodes, anchors)
    out_iter, rows = iters[li], cand[ri]
    order = np.lexsort((rows, out_iter))
    return out_iter[order], rows[order]


def naive_step(
    arena: NodeArena,
    iters: np.ndarray,
    nodes: np.ndarray,
    axis: Axis,
    test: NodeTest,
) -> tuple[np.ndarray, np.ndarray]:
    """Tree-unaware baseline: one region selection per context node.

    This is what the paper's "RDBMS gives away significant opportunities
    for optimization" refers to: for every context node the *whole
    fragment* is scanned with the region predicate, duplicates are produced
    for overlapping regions and removed only at the end.  Complexity is
    O(contexts × fragment size) regardless of result size.
    """
    iters = np.asarray(iters, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    if axis is Axis.ATTRIBUTE:
        # attributes live outside the region plane; share the index path
        return staircase_step(arena, iters, nodes, axis, test)
    arena.ensure_rows(nodes)
    out_i: list[np.ndarray] = []
    out_r: list[np.ndarray] = []
    bases = arena.frag_base
    size = arena.size
    parent = arena.parent
    for it, v in zip(iters, nodes):
        v = int(v)
        base = int(bases[arena.frag[v]])
        end = base + int(size[base])
        rows = np.arange(base, end + 1, dtype=np.int64)
        if axis is Axis.SELF:
            mask = rows == v
        elif axis is Axis.CHILD:
            mask = parent[rows] == v
        elif axis is Axis.DESCENDANT:
            mask = (rows > v) & (rows <= v + size[v])
        elif axis is Axis.DESCENDANT_OR_SELF:
            mask = (rows >= v) & (rows <= v + size[v])
        elif axis is Axis.PARENT:
            mask = rows == parent[v]
        elif axis is Axis.ANCESTOR:
            mask = (rows < v) & (rows + size[rows] >= v)
        elif axis is Axis.ANCESTOR_OR_SELF:
            mask = (rows <= v) & (rows + size[rows] >= v)
        elif axis is Axis.FOLLOWING:
            mask = rows > v + size[v]
        elif axis is Axis.PRECEDING:
            mask = (rows < v) & (rows + size[rows] < v)
        elif axis is Axis.FOLLOWING_SIBLING:
            mask = (parent[rows] == parent[v]) & (rows > v) if parent[v] >= 0 else np.zeros(len(rows), bool)
        elif axis is Axis.PRECEDING_SIBLING:
            mask = (parent[rows] == parent[v]) & (rows < v) if parent[v] >= 0 else np.zeros(len(rows), bool)
        else:
            raise DynamicError(f"unsupported axis {axis}")
        hits = rows[mask]
        out_i.append(np.full(len(hits), it, dtype=np.int64))
        out_r.append(hits)
    if not out_i:
        return _EMPTY, _EMPTY
    out_iter = np.concatenate(out_i)
    rows = np.concatenate(out_r)
    mask = node_test_mask(arena, rows, test)
    return _sorted_distinct_pairs(out_iter[mask], rows[mask])
