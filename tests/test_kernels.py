"""Unit and property tests for the vectorised array kernels."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.relational import items as it
from repro.relational import kernels as k


class TestMultiArange:
    def test_basic(self):
        out = k.multi_arange(np.asarray([0, 5]), np.asarray([3, 7]))
        assert out.tolist() == [0, 1, 2, 5, 6]

    def test_empty_ranges_skipped(self):
        out = k.multi_arange(np.asarray([4, 2, 9]), np.asarray([4, 5, 8]))
        assert out.tolist() == [2, 3, 4]

    def test_all_empty(self):
        assert k.multi_arange(np.asarray([1]), np.asarray([1])).tolist() == []

    def test_no_ranges(self):
        assert k.multi_arange(np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64)).tolist() == []

    def test_adjacent_and_overlapping(self):
        out = k.multi_arange(np.asarray([0, 1]), np.asarray([2, 4]))
        assert out.tolist() == [0, 1, 1, 2, 3]

    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(0, 20)),
            max_size=20,
        )
    )
    def test_matches_naive(self, spans):
        starts = np.asarray([s for s, _ in spans], dtype=np.int64)
        stops = np.asarray([s + n for s, n in spans], dtype=np.int64)
        want = [v for s, n in spans for v in range(s, s + n)]
        assert k.multi_arange(starts, stops).tolist() == want


class TestSegmentedCummax:
    def test_restarts_per_group(self):
        vals = np.asarray([3, 1, 5, 2, 9, 4])
        grp = np.asarray([0, 0, 0, 1, 1, 1])
        assert k.segmented_cummax(vals, grp).tolist() == [3, 3, 5, 2, 9, 9]

    def test_negative_values(self):
        vals = np.asarray([-5, -2, -9])
        grp = np.asarray([0, 0, 1])
        assert k.segmented_cummax(vals, grp).tolist() == [-5, -2, -9]

    def test_empty(self):
        assert k.segmented_cummax(np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64)).tolist() == []

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(-100, 100)),
            max_size=40,
        ).map(lambda rows: sorted(rows, key=lambda r: r[0]))
    )
    def test_matches_naive(self, rows):
        grp = np.asarray([g for g, _ in rows], dtype=np.int64)
        vals = np.asarray([v for _, v in rows], dtype=np.int64)
        want, cur, cur_g = [], None, None
        for g, v in rows:
            cur = v if g != cur_g else max(cur, v)
            cur_g = g
            want.append(cur)
        assert k.segmented_cummax(vals, grp).tolist() == want


class TestGroupKernels:
    def test_group_starts(self):
        assert k.group_starts(np.asarray([1, 1, 2, 3, 3])).tolist() == [
            True, False, True, True, False,
        ]

    def test_dense_group_ids(self):
        assert k.dense_group_ids(np.asarray([4, 4, 7, 9, 9])).tolist() == [0, 0, 1, 2, 2]

    def test_row_number_per_group(self):
        assert k.row_number_per_group(np.asarray([1, 1, 1, 5, 5])).tolist() == [1, 2, 3, 1, 2]

    def test_row_number_empty(self):
        assert k.row_number_per_group(np.asarray([], dtype=np.int64)).tolist() == []


class TestJoinKernels:
    def test_join_indices_basic(self):
        li, ri = k.join_indices(np.asarray([1, 2, 3]), np.asarray([2, 2, 4]))
        pairs = list(zip(li.tolist(), ri.tolist()))
        assert pairs == [(1, 0), (1, 1)]

    def test_join_indices_empty_side(self):
        li, ri = k.join_indices(np.asarray([], dtype=np.int64), np.asarray([1]))
        assert li.tolist() == [] and ri.tolist() == []

    def test_in_set(self):
        mask = k.in_set(np.asarray([5, 1, 9]), np.asarray([1, 5]))
        assert mask.tolist() == [True, True, False]

    def test_in_set_empty_probe(self):
        assert k.in_set(np.asarray([1, 2]), np.asarray([], dtype=np.int64)).tolist() == [False, False]

    @given(
        st.lists(st.integers(0, 8), max_size=15),
        st.lists(st.integers(0, 8), max_size=15),
    )
    def test_join_matches_naive(self, left, right):
        li, ri = k.join_indices(
            np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
        )
        got = sorted(zip(li.tolist(), ri.tolist()))
        want = sorted(
            (i, j)
            for i, x in enumerate(left)
            for j, y in enumerate(right)
            if x == y
        )
        assert got == want

    @given(
        st.lists(st.integers(-5, 5), max_size=20),
        st.lists(st.integers(-5, 5), max_size=20),
    )
    def test_in_set_matches_naive(self, keys, probe):
        got = k.in_set(
            np.asarray(keys, dtype=np.int64), np.asarray(probe, dtype=np.int64)
        ).tolist()
        assert got == [x in set(probe) for x in keys]


class TestCombineKeys:
    def test_multi_column_equality(self):
        a = np.asarray([1, 1, 2])
        b = np.asarray([7, 8, 7])
        combined = k.combine_keys([a, b])
        assert combined[0] != combined[1]
        assert combined[0] != combined[2]

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=30,
        )
    )
    def test_combined_equality_is_tuple_equality(self, rows):
        cols = [np.asarray([r[i] for r in rows], dtype=np.int64) for i in range(3)]
        combined = k.combine_keys(cols)
        for i in range(len(rows)):
            for j in range(len(rows)):
                assert (combined[i] == combined[j]) == (rows[i] == rows[j])


# --------------------------------------------------------------------------
# the band θ-join kernel against pairwise general comparison
# --------------------------------------------------------------------------
#: atomic values of every kind a general comparison meets: integers,
#: decimals, doubles (NaN and infinities included), untyped text that is
#: numeric, non-numeric or "NaN", strings and booleans
_ATOMS = st.one_of(
    st.tuples(st.just("int"), st.integers(-3, 3)),
    st.tuples(st.just("dec"), st.sampled_from([-1.5, 0.0, 2.0, 2.5])),
    st.tuples(st.just("dbl"), st.sampled_from(
        [-1.0, -0.0, 0.5, 2.0, float("nan"), float("inf"), float("-inf")]
    )),
    st.tuples(st.just("untyped"), st.sampled_from(["1", "2.0", " 3 ", "NaN", "x", "", "-INF"])),
    st.tuples(st.just("str"), st.sampled_from(["1", "2", "a", "b", "ab", ""])),
    st.tuples(st.just("bool"), st.booleans()),
)


def _item_column(atoms, pool):
    values = [
        it.XSDecimal(v) if kind == "dec" else float(v) if kind == "dbl" else v
        for kind, v in atoms
    ]
    column = it.ItemColumn.from_values(values, pool)
    for i, (kind, _) in enumerate(atoms):
        if kind == "untyped":
            column.kinds[i] = it.K_UNTYPED
    return column


#: one side drawn from a single family, so every kernel case is reached:
#: all numeric, all string-like, or mixed
_SIDE = st.sampled_from(["numeric", "strings", "mixed"]).flatmap(
    lambda family: st.lists(
        _ATOMS.filter(
            lambda a: family == "mixed"
            or (family == "numeric") == (a[0] in ("int", "dec", "dbl", "bool"))
        ),
        max_size=7,
    )
)


class TestThetaJoin:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
        _SIDE,
        _SIDE,
        st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=14, max_size=14)),
    )
    def test_matches_pairwise_compare(self, op, left, right, keys):
        pool = it.StringPool()
        lc, rc = _item_column(left, pool), _item_column(right, pool)
        lk = rk = None
        if keys is not None:
            lk = np.asarray(keys[: len(left)], dtype=np.int64)
            rk = np.asarray(keys[7 : 7 + len(right)], dtype=np.int64)
        li, ri = k.theta_join_indices(op, lc, rc, pool, lk, rk)
        # the filtered product, in its order: left-major, right ascending
        want = [
            (i, j)
            for i in range(len(left))
            for j in range(len(right))
            if (keys is None or lk[i] == rk[j])
            and it.compare(op, lc.take([i]), rc.take([j]), pool)[0]
        ]
        assert list(zip(li.tolist(), ri.tolist())) == want

    def test_duplicates_and_nan(self):
        pool = it.StringPool()
        left = it.ItemColumn.from_doubles([2.0, float("nan"), 2.0])
        right = it.ItemColumn.from_ints([3, 2, 2, 1])
        li, ri = k.theta_join_indices("ge", left, right, pool)
        assert list(zip(li.tolist(), ri.tolist())) == [
            (0, 1), (0, 2), (0, 3), (2, 1), (2, 2), (2, 3)
        ]
        li, ri = k.theta_join_indices("ne", left, right, pool)
        assert list(zip(li.tolist(), ri.tolist())) == [
            (0, 0), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 3)
        ]

    def test_empty_side(self):
        pool = it.StringPool()
        li, ri = k.theta_join_indices(
            "lt", it.ItemColumn.from_ints([1]), it.ItemColumn.empty(), pool
        )
        assert li.tolist() == [] and ri.tolist() == []
