"""Vectorised array kernels shared by the relational operators.

These are the little building blocks a column store is made of: batched
range materialisation, segmented running maxima (the heart of the staircase
join's pruning step), dense group numbering and multi-column factorisation
for hash-free equi-joins.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


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


def dense_group_ids(sorted_ids: np.ndarray) -> np.ndarray:
    """Renumber pre-sorted group ids densely as 0,1,2,..."""
    starts = group_starts(sorted_ids)
    return np.cumsum(starts) - 1


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

    Sort-merge on the right side: the right key is sorted once, each left
    key probes via binary search, and matches are materialised with
    :func:`multi_arange`.  Output preserves left order (then right-sorted
    order within a key), which keeps plans deterministic.
    """
    left_key = np.asarray(left_key, dtype=np.int64)
    right_key = np.asarray(right_key, dtype=np.int64)
    if len(left_key) == 0 or len(right_key) == 0:
        return _EMPTY, _EMPTY
    order = np.argsort(right_key, kind="stable")
    sorted_right = right_key[order]
    lo = np.searchsorted(sorted_right, left_key, side="left")
    hi = np.searchsorted(sorted_right, left_key, side="right")
    counts = hi - lo
    left_idx = repeat_index(counts)
    right_idx = order[multi_arange(lo, hi)]
    return left_idx, right_idx


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
    probe = np.unique(np.asarray(probe, dtype=np.int64))
    if len(keys) == 0:
        return np.empty(0, dtype=bool)
    if len(probe) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(probe, keys)
    pos = np.minimum(pos, len(probe) - 1)
    return probe[pos] == keys
