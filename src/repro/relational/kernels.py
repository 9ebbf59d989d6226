"""Vectorised array kernels shared by the relational operators.

These are the little building blocks a column store is made of: batched
range materialisation, segmented running maxima (the heart of the staircase
join's pruning step), dense group numbering, multi-column factorisation
for hash-free equi-joins and the sort-based band join behind ⋈θ.

Loop-lifted plans mostly hand these kernels input that is already in
the order a sort would produce (``iter|pos`` ascending, staircase output
sorted and duplicate-free), so the sorting kernels first ask
:func:`is_sorted` — one O(n) pass — and skip the O(n log n) work when it
says yes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.relational import items as it

_EMPTY = np.empty(0, dtype=np.int64)


def is_sorted(keys: Sequence[np.ndarray], strict: bool = False) -> bool:
    """Are the rows of ``keys`` (primary key first) in lexicographic order?

    With ``strict`` no two rows may be equal on every key, i.e. the rows
    are sorted *and* distinct.  Either way a stable sort of these rows is
    the identity, which is what the callers rely on.
    """
    n = len(keys[0]) if keys else 0
    if n < 2:
        return True
    tied = np.ones(n - 1, dtype=bool)  # adjacent rows equal on every key so far
    for key in keys:
        key = np.asarray(key)
        if (tied & (key[1:] < key[:-1])).any():
            return False
        tied &= key[1:] == key[:-1]
        if not tied.any():
            return True
    return not (strict and tied.any())


def multi_arange(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], stops[i])`` for all i, vectorised.

    This is the kernel behind the staircase join's scan phase: after
    pruning, each context node contributes one contiguous ``pre`` range and
    the result is the concatenation of those ranges.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if len(starts) == 1:  # one range: the O(k) bookkeeping below is moot
        return np.arange(starts[0], stops[0], dtype=np.int64)
    lengths = np.maximum(stops - starts, 0)
    total = int(lengths.sum())
    if total == 0:
        return _EMPTY
    # Classic cumsum trick: start from all-ones, then at each range start
    # inject a jump that rebases the running sum onto ``starts[i]``.
    out = np.ones(total, dtype=np.int64)
    first = np.zeros(len(lengths), dtype=np.int64)
    nonempty = lengths > 0
    idx = np.nonzero(nonempty)[0]
    offsets = np.concatenate(([0], np.cumsum(lengths[idx])[:-1]))
    prev_end = np.concatenate(([0], (starts[idx] + lengths[idx])[:-1]))
    first = starts[idx] - prev_end + 1
    out[offsets] = first
    out[0] = starts[idx[0]]
    np.cumsum(out, out=out)
    return out


def repeat_index(counts: np.ndarray) -> np.ndarray:
    """Return ``[0,0,...,1,1,...]`` repeating index i ``counts[i]`` times."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def segmented_cummax(values: np.ndarray, group_ids: np.ndarray) -> np.ndarray:
    """Running maximum of ``values`` that restarts at each group boundary.

    ``group_ids`` must be non-decreasing (rows sorted by group).  Uses the
    offset trick: adding ``group * BIG`` makes maxima from earlier groups
    irrelevant, so one global ``maximum.accumulate`` suffices.
    """
    values = np.asarray(values, dtype=np.int64)
    group_ids = np.asarray(group_ids, dtype=np.int64)
    if len(values) == 0:
        return _EMPTY
    lo = int(values.min())
    hi = int(values.max())
    span = hi - lo + 1
    shifted = (values - lo) + group_ids * span
    running = np.maximum.accumulate(shifted)
    return running - group_ids * span + lo


def group_starts(sorted_ids: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first row of each group (ids pre-sorted)."""
    sorted_ids = np.asarray(sorted_ids)
    if len(sorted_ids) == 0:
        return np.empty(0, dtype=bool)
    mask = np.empty(len(sorted_ids), dtype=bool)
    mask[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=mask[1:])
    return mask


def row_number_per_group(sorted_ids: np.ndarray) -> np.ndarray:
    """1-based row number within each group (ids pre-sorted)."""
    n = len(sorted_ids)
    if n == 0:
        return _EMPTY
    starts = group_starts(sorted_ids)
    idx = np.arange(n, dtype=np.int64)
    base = np.zeros(n, dtype=np.int64)
    base[starts] = idx[starts]
    np.maximum.accumulate(base, out=base)
    return idx - base + 1


def factorize(column: np.ndarray) -> tuple[np.ndarray, int]:
    """Map values to dense codes ``0..k-1``; returns ``(codes, k)``."""
    uniq, codes = np.unique(np.asarray(column), return_inverse=True)
    return codes.astype(np.int64), len(uniq)


def combine_keys(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Collapse a multi-column key into one collision-free int64 column.

    Each column is factorised to a dense domain and the codes are mixed by
    positional weighting (like row-major indexing into the cross product of
    the domains), so equality of the combined key is exactly equality of
    the tuple.
    """
    if len(columns) == 1:
        return np.asarray(columns[0], dtype=np.int64)
    combined = None
    for col in columns:
        codes, k = factorize(col)
        if combined is None:
            combined = codes
        else:
            combined = combined * np.int64(k) + codes
    return combined


def join_indices(
    left_key: np.ndarray, right_key: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inner equi-join: row-index pairs where keys match.

    Sort-merge on the right side: the right key is sorted once (unless it
    already is), each left key probes via binary search, and matches are
    materialised with :func:`multi_arange`.  Output preserves left order (then right-sorted
    order within a key), which keeps plans deterministic.
    """
    left_key = np.asarray(left_key, dtype=np.int64)
    right_key = np.asarray(right_key, dtype=np.int64)
    if len(left_key) == 0 or len(right_key) == 0:
        return _EMPTY, _EMPTY
    if is_sorted((right_key,)):
        order, sorted_right = None, right_key
    else:
        order = np.argsort(right_key, kind="stable")
        sorted_right = right_key[order]
    lo = np.searchsorted(sorted_right, left_key, side="left")
    hi = np.searchsorted(sorted_right, left_key, side="right")
    counts = hi - lo
    left_idx = repeat_index(counts)
    right_idx = multi_arange(lo, hi)
    return left_idx, right_idx if order is None else order[right_idx]


#: the comparison ``b op a`` means, as ``a flipped[op] b``
FLIPPED = {"eq": "eq", "ne": "ne", "lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}

_NUMERIC_KINDS = np.array((it.K_INT, it.K_DBL, it.K_DEC, it.K_BOOL), dtype=np.uint8)


def theta_join_indices(
    op: str,
    left: "it.ItemColumn",
    right: "it.ItemColumn",
    pool: "it.StringPool",
    left_key: np.ndarray | None = None,
    right_key: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs ``(i, j)`` with ``left[i] op right[j]`` under the
    general-comparison rules of :func:`~repro.relational.items.compare`,
    restricted to equal keys when ``left_key``/``right_key`` are given.

    Output order is the filtered product: left-major, right rows
    ascending.  Two homogeneous cases run as a sort-based band join in
    O((n+m) log m + output): every pair compares numerically when one
    side is entirely numeric (both sides cast to double), and as strings
    when neither side holds a numeric item (both sides ranked together).
    Sides that mix kinds compare pair by pair.
    """
    n, m = len(left), len(right)
    keyed = left_key is not None
    if n == 0 or m == 0:
        return _EMPTY, _EMPTY
    num_l = np.isin(left.kinds, _NUMERIC_KINDS)
    num_r = np.isin(right.kinds, _NUMERIC_KINDS)
    if num_l.all() or num_r.all():
        lv, rv = it.to_double(left, pool), it.to_double(right, pool)
    elif not num_l.any() and not num_r.any():
        ranks = pool.sort_ranks(
            np.concatenate([it.to_string_ids(left, pool), it.to_string_ids(right, pool)])
        )
        lv, rv = ranks[:n], ranks[n:]
    else:
        if keyed:
            li, ri = join_indices(left_key, right_key)
        else:
            li = np.repeat(np.arange(n, dtype=np.int64), m)
            ri = np.tile(np.arange(m, dtype=np.int64), n)
        keep = it.compare(op, left.take(li), right.take(ri), pool)
        return li[keep], ri[keep]
    if not keyed:
        left_key = np.zeros(n, dtype=np.int64)
        right_key = np.zeros(m, dtype=np.int64)
    return band_join(op, left_key, lv, right_key, rv)


def band_join(
    op: str,
    left_key: np.ndarray,
    left_val: np.ndarray,
    right_key: np.ndarray,
    right_val: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(i, j)`` with equal keys and ``left_val[i] op right_val[j]``,
    left-major with right rows ascending.

    The right side is sorted once by (key, value); every left value finds
    its key group and its place in that group by binary search, and each
    left row's matches are one or two contiguous runs of the sorted right
    side.  NaN matches nothing under ``eq/lt/le/gt/ge`` and everything
    under ``ne`` (IEEE semantics, as :func:`~repro.relational.items.compare`).
    """
    n, m = len(left_val), len(right_val)
    # one code per (key, value): values ranked jointly, NaN ranked last
    _, keys = np.unique(
        np.concatenate([left_key, right_key]).astype(np.int64), return_inverse=True
    )
    values = np.concatenate([left_val, right_val])
    nan = np.isnan(values) if values.dtype.kind == "f" else np.zeros(len(values), bool)
    distinct, inverse = np.unique(values[~nan], return_inverse=True)
    nan_rank = len(distinct)
    ranks = np.full(len(values), nan_rank, dtype=np.int64)
    ranks[~nan] = inverse.reshape(-1)
    stride = nan_rank + 1
    codes = keys.reshape(-1).astype(np.int64) * stride + ranks
    order = np.argsort(codes[n:], kind="stable")
    sorted_right = codes[n:][order]
    group = codes[:n] - ranks[:n]
    probe = codes[:n]
    g_lo = np.searchsorted(sorted_right, group, side="left")
    g_hi = np.searchsorted(sorted_right, group + stride, side="left")
    lo = np.searchsorted(sorted_right, probe, side="left")
    hi = np.searchsorted(sorted_right, probe, side="right")
    valued = g_hi if not nan.any() else np.searchsorted(
        sorted_right, group + nan_rank, side="left"
    )  # end of the group's non-NaN values
    if op == "ne":
        lo = np.where(ranks[:n] == nan_rank, g_lo, lo)
        hi = np.where(ranks[:n] == nan_rank, g_lo, hi)
        starts = np.stack([g_lo, hi], axis=1).reshape(-1)
        stops = np.stack([lo, g_hi], axis=1).reshape(-1)
        owner = np.repeat(np.arange(n, dtype=np.int64), 2)
    else:
        starts, stops = {
            "eq": (lo, hi), "lt": (hi, valued), "le": (lo, valued),
            "gt": (g_lo, lo), "ge": (g_lo, hi),
        }[op]
        stops = np.where(ranks[:n] == nan_rank, starts, stops)
        owner = np.arange(n, dtype=np.int64)
    counts = np.maximum(stops - starts, 0)
    right_idx = order[multi_arange(starts, stops)]
    left_idx = np.repeat(owner, counts)
    # restore the product order: right rows ascending within each left row
    pair = left_idx * m + right_idx
    pair.sort()
    return pair // m, pair % m


def coalesce_ranges(
    starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge overlapping half-open ranges; ``starts`` must be ascending.

    The twig join's candidate-generation kernel: the subtree regions of a
    sorted context set are nested or disjoint, so coalescing them yields
    disjoint ranges whose concatenation enumerates every candidate row
    exactly once (no per-context duplicate materialisation).
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if len(starts) == 0:
        return _EMPTY, _EMPTY
    running = np.maximum.accumulate(stops)
    keep = np.concatenate(([True], starts[1:] > running[:-1]))
    idx = np.nonzero(keep)[0]
    last = np.concatenate((idx[1:] - 1, [len(starts) - 1]))
    return starts[keep], running[last]


def in_set(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Membership mask: ``keys[i] in probe`` (semi-join kernel)."""
    keys = np.asarray(keys, dtype=np.int64)
    probe = np.asarray(probe, dtype=np.int64)
    if not is_sorted((probe,), strict=True):
        probe = np.unique(probe)
    if len(keys) == 0:
        return np.empty(0, dtype=bool)
    if len(probe) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(probe, keys)
    pos = np.minimum(pos, len(probe) - 1)
    return probe[pos] == keys
